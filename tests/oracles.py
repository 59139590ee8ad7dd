"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (loops, direct formulas)
and must stay independent of the library code paths it checks.
"""
import math

import numpy as np

from acadsearch.errors import ConfigError
from acadsearch.kg_builder import RELATION_ORDER, RELATION_SIGNATURE
from acadsearch.user_models import (AggregationMode, attention_user_score,
                                    kg_user_scores, mean_user_vector)


def naive_map_at_k(ranking, relevant, k=100):
    hits = 0
    ap = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            hits += 1
            ap += hits / i
    return ap / min(len(relevant), k)


def naive_mrr_at_k(ranking, relevant, k=10):
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            return 1.0 / i
    return 0.0


def naive_ndcg_at_k(ranking, relevant, k=10):
    dcg = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            dcg += 1.0 / math.log2(i + 1)
    ideal = 0.0
    for i in range(1, min(len(relevant), k) + 1):
        ideal += 1.0 / math.log2(i + 1)
    return dcg / ideal


def naive_bm25_score(tf_by_term, doc_len, avg_len, n_docs, df_by_term,
                     query_tokens, k1=0.9, b=0.4):
    """Direct evaluation of the scoring formula for one document."""
    score = 0.0
    for term in query_tokens:
        tf = tf_by_term.get(term, 0)
        df = df_by_term.get(term, 0)
        if tf == 0 or df == 0:
            continue
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * doc_len / avg_len))
    return score


def frozen_retrieve_topk(index, query_tokens, k, k1=0.9, b=0.4, allowed=None):
    """BM25 top-k by scoring every document and sorting every nonzero score.

    A frozen copy of the library's first full-sort form, reading only the
    index's ``postings``, ``doc_lengths``, ``avg_doc_len`` and ``doc_count``.
    Each term's score is the same expression the library evaluates, in the
    same order, so the two must agree bit for bit.
    """
    scores = np.zeros(index.doc_count, dtype=np.float64)
    norm_base = k1 * (1.0 - b + b * index.doc_lengths / index.avg_doc_len)
    for term in query_tokens:
        entry = index.postings.get(term)
        if entry is None:
            continue
        ords, tfs = entry
        df = len(ords)
        idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        tf = tfs.astype(np.float64)
        scores[ords] += idf * tf * (k1 + 1.0) / (tf + norm_base[ords])
    if allowed is not None:
        scores = np.where(allowed, scores, 0.0)
    nonzero = np.flatnonzero(scores > 0.0)
    if len(nonzero) == 0:
        return []
    order = nonzero[np.lexsort((nonzero, -scores[nonzero]))]
    return [(int(o), float(scores[o])) for o in order[:k]]


def frozen_union_qrels(corpus, index, queries, depth=100):
    """query_id -> relevant doc ids under the earlier union rule.

    A frozen copy of the rule ``splits`` once applied to every training
    query: the source paper's citations published before the query's year,
    plus the BM25 top-``depth`` of the source title among those earlier
    documents, minus the source itself. Queries with neither are absent.
    """
    from acadsearch.lexical_index import tokenize
    years = np.asarray([corpus.get(d).year for d in index.doc_ids])
    qrels = {}
    for q in queries:
        relevant = set()
        source = corpus.get(q.source_doc_id) if (
            q.source_doc_id and q.source_doc_id in corpus) else None
        if source is not None:
            for ref in source.references:
                if ref in corpus and corpus.get(ref).year < q.year:
                    relevant.add(ref)
        title = source.title if source is not None else q.text
        hits = frozen_retrieve_topk(index, tokenize(title), depth,
                                    allowed=years < q.year)
        relevant.update(index.doc_ids[o] for o, _ in hits)
        relevant.discard(q.source_doc_id)
        if relevant:
            qrels[q.query_id] = relevant
    return qrels


def reference_pagerank(n, edges, alpha=0.85, iterations=10000, tol=1e-14):
    """Dense-matrix power iteration run (effectively) to convergence."""
    out_deg = [0] * n
    for a, _ in edges:
        out_deg[a] += 1
    x = [1.0 / n] * n
    for _ in range(iterations):
        new = [0.0] * n
        dangling = sum(x[i] for i in range(n) if out_deg[i] == 0)
        for a, b_ in edges:
            new[b_] += x[a] / out_deg[a]
        total_change = 0.0
        for i in range(n):
            v = (1.0 - alpha) / n + alpha * (new[i] + dangling / n)
            total_change += abs(v - x[i])
            new[i] = v
        x = new
        if total_change < tol:
            break
    return x


def central_difference(fn, args, arg_index, h=1e-5):
    """Central finite-difference gradient of fn w.r.t. one vector argument."""
    base = [np.array(a, dtype=np.float64, copy=True) if isinstance(a, np.ndarray)
            else a for a in args]
    x = base[arg_index]
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus = [a.copy() if isinstance(a, np.ndarray) else a for a in base]
        minus = [a.copy() if isinstance(a, np.ndarray) else a for a in base]
        plus[arg_index].flat[i] += h
        minus[arg_index].flat[i] -= h
        grad.flat[i] = (fn(*plus) - fn(*minus)) / (2.0 * h)
    return grad


def relative_error(numeric, analytic):
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return np.abs(numeric - analytic).max() / scale


# --- single-pair forms of the training losses ---------------------------------
# The trainers vectorize these formulas over whole batches; the analytic
# gradients here are checked against finite differences.

def triplet_loss(q, d_pos, negatives, margin):
    """Hinge loss pushing the positive closer than each negative by ``margin``."""
    if margin <= 0:
        raise ConfigError(f"margin must be positive, got {margin}")
    q = np.asarray(q, dtype=np.float64)
    d_pos = np.asarray(d_pos, dtype=np.float64)
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if d_pos.shape != q.shape or negatives.shape[1] != q.shape[0]:
        raise ValueError("dimension mismatch between query, positive, and negatives")
    pos_dist = np.linalg.norm(q - d_pos)
    neg_dists = np.linalg.norm(q[None, :] - negatives, axis=1)
    return float(np.sum(np.maximum(pos_dist - neg_dists + margin, 0.0)))


def triplet_loss_grads(q, d_pos, negatives, margin):
    """Loss and analytic gradients w.r.t. q, d_pos, and each negative."""
    q = np.asarray(q, dtype=np.float64)
    d_pos = np.asarray(d_pos, dtype=np.float64)
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    u = q - d_pos
    pos_dist = np.linalg.norm(u)
    diffs = q[None, :] - negatives
    neg_dists = np.linalg.norm(diffs, axis=1)
    hinge = pos_dist - neg_dists + margin
    active = hinge > 0.0
    loss = float(np.sum(hinge[active]))
    g_q = np.zeros_like(q)
    g_pos = np.zeros_like(q)
    g_negs = np.zeros_like(negatives)
    n_active = int(np.count_nonzero(active))
    if n_active:
        # Subgradient 0 at zero distance.
        u_hat = u / pos_dist if pos_dist > 1e-12 else np.zeros_like(u)
        g_q += n_active * u_hat
        g_pos -= n_active * u_hat
        safe = np.where(neg_dists > 1e-12, neg_dists, 1.0)
        v_hat = diffs / safe[:, None]
        v_hat[neg_dists <= 1e-12] = 0.0
        g_q -= v_hat[active].sum(axis=0)
        g_negs[active] = v_hat[active]
    return loss, g_q, g_pos, g_negs


def transe_score(h_vec, r_vec, t_vec):
    """||h + r - t||, the translation residual."""
    if not (h_vec.shape == r_vec.shape == t_vec.shape):
        raise ValueError("h, r, t must share one dimension")
    return float(np.linalg.norm(h_vec + r_vec - t_vec))


def transh_project(v_vec, w_vec):
    """Project v onto the hyperplane with unit normal w."""
    if v_vec.shape != w_vec.shape:
        raise ValueError("vector and normal must share one dimension")
    norm = np.linalg.norm(w_vec)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"hyperplane normal must be unit length, got ||w|| = {norm}")
    return v_vec - np.dot(w_vec, v_vec) * w_vec


def transh_score(h_vec, t_vec, w_r, d_r):
    return float(np.linalg.norm(
        transh_project(h_vec, w_r) + d_r - transh_project(t_vec, w_r)))


def transe_pair_grads(h, r, t, hn, tn, margin):
    """Loss and gradients of max(margin + ||h+r-t|| - ||hn+r-tn||, 0).

    The relation vector is shared between the positive and the corrupted
    triple, as produced by corruption sampling.
    """
    u_pos = h + r - t
    u_neg = hn + r - tn
    d_pos = np.linalg.norm(u_pos)
    d_neg = np.linalg.norm(u_neg)
    loss = margin + d_pos - d_neg
    zeros = {k: np.zeros_like(h) for k in ("h", "r", "t", "hn", "tn")}
    if loss <= 0.0:
        return 0.0, zeros
    g_pos = u_pos / d_pos if d_pos > 1e-12 else np.zeros_like(u_pos)
    g_neg = u_neg / d_neg if d_neg > 1e-12 else np.zeros_like(u_neg)
    return float(loss), {"h": g_pos, "r": g_pos - g_neg, "t": -g_pos,
                         "hn": -g_neg, "tn": g_neg}


def _transh_residual_grads(h, t, w, dr):
    """Gradients of ||proj(h,w) + dr - proj(t,w)|| w.r.t. h, t, w, dr."""
    a = h - t
    u = a + dr - np.dot(w, a) * w
    d = np.linalg.norm(u)
    if d <= 1e-12:
        z = np.zeros_like(h)
        return 0.0, z, z, z, z
    g = u / d
    gw = np.dot(g, w)
    grad_h = g - gw * w
    grad_t = -grad_h
    grad_w = -(gw * a + np.dot(w, a) * g)
    return d, grad_h, grad_t, grad_w, g


def transh_pair_grads(h, t, hn, tn, w, dr, margin):
    """Margin ranking loss for the hyperplane model, single positive/negative."""
    d_pos, gh, gt, gw_pos, gdr_pos = _transh_residual_grads(h, t, w, dr)
    d_neg, ghn, gtn, gw_neg, gdr_neg = _transh_residual_grads(hn, tn, w, dr)
    loss = margin + d_pos - d_neg
    zeros = {k: np.zeros_like(h) for k in ("h", "t", "hn", "tn", "w", "dr")}
    if loss <= 0.0:
        return 0.0, zeros
    return float(loss), {"h": gh, "t": gt, "hn": -ghn, "tn": -gtn,
                         "w": gw_pos - gw_neg, "dr": gdr_pos - gdr_neg}


# --- single-triple forms of the KG embedding queries ------------------------------

def triple_score(emb, triple):
    """f(h, r, t) of one triple under the embeddings' model."""
    ri = RELATION_ORDER.index(triple.relation)
    h, t = emb.entities[triple.head], emb.entities[triple.tail]
    if emb.model == "transe":
        return transe_score(h, emb.rel_translations[ri], t)
    return transh_score(h, t, emb.rel_normals[ri], emb.rel_translations[ri])


def entity_vector(emb, kind, external_id):
    """Entity row plus a flag marking frozen (document) entities."""
    ordinal = emb.catalog.ordinal(kind, external_id)
    lo, hi = emb.frozen_range
    return emb.entities[ordinal].copy(), lo <= ordinal < hi


def heldout_split(triples, relation, n_heldout, seed):
    """Split off ``n_heldout`` triples of one relation for link prediction."""
    of_rel = [i for i, t in enumerate(triples) if t.relation == relation]
    if len(of_rel) <= n_heldout:
        raise ConfigError(f"not enough {relation.value} triples to hold out "
                          f"{n_heldout}")
    rng = np.random.default_rng(seed)
    chosen = set(rng.choice(of_rel, size=n_heldout, replace=False).tolist())
    train = [t for i, t in enumerate(triples) if i not in chosen]
    heldout = [triples[i] for i in sorted(chosen)]
    return train, heldout


def link_prediction_mean_rank(emb, eval_triples, known_codes):
    """Filtered mean rank of true tails among type-correct candidates.

    ``known_codes`` must contain every known-true triple (training plus
    held-out) encoded by ``encode_triples``; candidates matching a known
    triple other than the target are excluded before ranking.
    """
    catalog = emb.catalog
    total = catalog.total
    ranks = []
    for triple in eval_triples:
        ri = RELATION_ORDER.index(triple.relation)
        lo, hi = catalog.kind_range(RELATION_SIGNATURE[triple.relation][1])
        cand = np.arange(lo, hi, dtype=np.int64)
        h = emb.entities[triple.head]
        block = emb.entities[lo:hi]
        if emb.model == "transe":
            d = np.linalg.norm(h + emb.rel_translations[ri] - block, axis=1)
        else:
            w = emb.rel_normals[ri]
            hp = h - np.dot(w, h) * w
            tp = block - (block @ w)[:, None] * w
            d = np.linalg.norm(hp + emb.rel_translations[ri] - tp, axis=1)
        codes = (triple.head * len(RELATION_ORDER) + ri) * total + cand
        pos = np.searchsorted(known_codes, codes)
        pos_clip = np.minimum(pos, len(known_codes) - 1)
        is_known = (pos < len(known_codes)) & (known_codes[pos_clip] == codes)
        allowed = ~is_known
        allowed[triple.tail - lo] = True
        target_d = d[triple.tail - lo]
        rank = 1 + int(np.count_nonzero(d[allowed] < target_d))
        ranks.append(rank)
    return float(np.mean(ranks))


# --- one-item-at-a-time forms of the array-shaped query path ---------------------

def naive_grid_map(prepared, weights, k=100):
    """MAP@k at one lattice point: one argsort and one AP sum per query."""
    values = []
    for norm, rel_mask, n_rel in prepared:
        fused = norm @ weights
        order = np.argsort(-fused, kind="stable")
        rel_sorted = rel_mask[order][:k]
        hits = np.cumsum(rel_sorted)
        ranks = np.arange(1, len(rel_sorted) + 1)
        ap = float((hits[rel_sorted] / ranks[rel_sorted]).sum()) / min(n_rel, k)
        values.append(ap)
    return float(np.mean(values)) if values else 0.0


def naive_significance_test(metrics_a, metrics_b, permutations, seed):
    """Paired randomization test with one sign draw per permutation."""
    diffs = np.asarray(metrics_a, dtype=np.float64) - np.asarray(metrics_b,
                                                                 dtype=np.float64)
    observed = abs(diffs.mean())
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(permutations):
        signs = rng.integers(0, 2, size=len(diffs)) * 2 - 1
        if abs((signs * diffs).mean()) >= observed - 1e-12:
            hits += 1
    return (hits + 1) / (permutations + 1)


def naive_attention_user_score(q_vec, authored_rows, candidate_row):
    """Softmax-weighted profile of the authored rows, rebuilt per candidate."""
    if len(authored_rows) == 0:
        return 0.0
    logits = authored_rows @ q_vec / np.sqrt(authored_rows.shape[1])
    logits -= logits.max()
    exp = np.exp(logits)
    profile = (exp / exp.sum()) @ authored_rows
    norm = np.linalg.norm(profile)
    if norm < 1e-12:
        return 0.0
    return float(np.dot(profile / norm, candidate_row))


def naive_kg_user_score(vectors, query_user_id, candidate_author_ids,
                        use_max=True, metric="cosine"):
    """(score, known) for one candidate; ``vectors`` maps user id -> vector."""
    if query_user_id not in vectors:
        return 0.0, False
    q_vec = vectors[query_user_id]
    sims = []
    for a in candidate_author_ids:
        if a not in vectors:
            continue
        a_vec = vectors[a]
        if metric == "cosine":
            na = np.linalg.norm(q_vec)
            nb = np.linalg.norm(a_vec)
            sims.append(0.0 if na < 1e-12 or nb < 1e-12
                        else float(np.dot(q_vec, a_vec) / (na * nb)))
        else:
            sims.append(-float(np.linalg.norm(q_vec - a_vec)))
    if not sims:
        return None, True
    return (max(sims) if use_max else float(np.mean(sims))), True


def frozen_user_column(channel, record, corpus, resources, aggregation="max",
                       metric="cosine"):
    """The pipeline's per-candidate user column before channels scored whole
    lists by ordinal, with the graph lookups and the per-candidate
    self-citation rule it called written out."""
    doc_ids = record["doc_ids"]
    if channel == "none":
        return [0.0] * len(doc_ids)
    if channel == "kg":
        column, known = kg_user_scores(
            resources["kg_emb"], record["user_id"],
            [corpus.get(d).author_ids for d in doc_ids],
            AggregationMode(aggregation), metric=metric)
        if not known:
            return column
        present = [s for s in column if s is not None]
        floor = min(present) if present else 0.0
        return [floor if s is None else s for s in column]
    contexts = resources.get("contexts", {})
    ctx = contexts.get(record["user_id"])
    if channel == "selfcite":
        if ctx is None:
            return [0.0] * len(doc_ids)
        boost_set = {ctx.user_id} | set(ctx.coauthors)
        return [1.0 if boost_set.intersection(corpus.get(d).author_ids) else 0.0
                for d in doc_ids]
    if channel == "pagerank":
        pr = resources["pagerank"]
        return [pr.get(corpus.ordinal(d), 0.0) for d in doc_ids]
    if channel == "pop":
        graph = resources["graph"]
        node = {int(o): i for i, o in enumerate(graph.ordinals)}
        in_degree = np.bincount(graph.dst, minlength=graph.n)
        return [float(in_degree[node[corpus.ordinal(d)]])
                if corpus.ordinal(d) in node else 0.0 for d in doc_ids]
    store = resources["store"]
    if ctx is None:
        return [0.0] * len(doc_ids)
    if channel == "mean":
        mv = mean_user_vector(store, ctx)
        if mv is None:
            return [0.0] * len(doc_ids)
        return [float(np.dot(mv, store.row(corpus.ordinal(d))))
                for d in doc_ids]
    if channel == "attention":
        q_vec = resources["encoder"].encode(record["text"])
        return attention_user_score(q_vec, ctx, store,
                                    [corpus.ordinal(d) for d in doc_ids])
    raise ValueError(f"unknown user channel {channel!r}")


# --- unblocked forms of the training steps ----------------------------------------
# Each operation runs once over the whole array, with a fresh temporary where
# the expression needs one; the blocked library forms must match them bit
# for bit.

def same_bits(a, b) -> bool:
    """Equal dtype, shape and bit pattern (so -0.0 differs from 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    uint = np.dtype(f"u{a.dtype.itemsize}")
    return np.array_equal(a.view(uint), b.view(uint))


class NaiveAdamW:
    """AdamW with whole-array operations."""

    def __init__(self, shape, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01, dtype=np.float64):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = np.zeros(shape, dtype=dtype)
        self.v = np.zeros(shape, dtype=dtype)
        self.t = 0
        self._scratch = np.empty(shape, dtype=dtype)

    def step(self, param, grad):
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        np.multiply(grad, grad, out=self._scratch)
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * self._scratch
        np.divide(self.v, 1.0 - self.beta2 ** self.t, out=self._scratch)
        np.sqrt(self._scratch, out=self._scratch)
        self._scratch += self.eps
        np.divide(self.m, (1.0 - self.beta1 ** self.t) * self._scratch,
                  out=self._scratch)
        if self.weight_decay:
            self._scratch += self.weight_decay * param
        self._scratch *= self.lr
        param -= self._scratch


def naive_encode_batch(table, ids_list):
    """Forward pass with one gather and one ``reduceat`` over all the texts.

    Returns (normalized matrix, raw-mean norms, concatenated ids, segment
    lengths), zero rows and norms for empty or degenerate texts.
    """
    dim = table.shape[1]
    n = len(ids_list)
    lengths = np.array([len(ids) for ids in ids_list], dtype=np.int64)
    out = np.zeros((n, dim))
    norms = np.zeros(n)
    nonempty = np.flatnonzero(lengths > 0)
    if len(nonempty) == 0:
        return out, norms, np.empty(0, dtype=np.int64), lengths
    all_ids = np.concatenate([ids_list[i] for i in nonempty])
    starts = np.zeros(len(nonempty), dtype=np.int64)
    np.cumsum(lengths[nonempty][:-1], out=starts[1:])
    sums = np.add.reduceat(table[all_ids], starts, axis=0)
    means = sums / lengths[nonempty, None]
    raw = np.linalg.norm(means, axis=1)
    ok = raw > 1e-12
    means[ok] /= raw[ok, None]
    means[~ok] = 0.0
    out[nonempty] = means
    norms[nonempty] = np.where(ok, raw, 0.0)
    return out, norms, all_ids, lengths


def naive_encoder_step(table, q_ids, p_ids, margin, opt):
    """Triplet step over the whole (b, b, dim) batch, with a scatter into a
    fresh full-table gradient."""
    b = len(q_ids)
    dim = table.shape[1]
    vecs, norms, all_ids, lengths = naive_encode_batch(table, q_ids + p_ids)
    Q, P = vecs[:b], vecs[b:]
    diff = Q[:, None, :] - P[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    pos = np.diag(dist)
    hinge = pos[:, None] - dist + margin
    np.fill_diagonal(hinge, 0.0)
    active = hinge > 0.0
    loss = float(hinge[active].sum() / b)
    safe = np.where(dist > 1e-12, dist, 1.0)
    unit = diff / safe[:, :, None]
    counts = active.sum(axis=1) / b
    w = active.astype(np.float64) / b
    pos_unit = unit[np.arange(b), np.arange(b)]
    grad_q = counts[:, None] * pos_unit - np.einsum("ij,ijd->id", w, unit)
    grad_p = -counts[:, None] * pos_unit + np.einsum("ij,ijd->jd", w, unit)
    grad_vecs = np.vstack([grad_q, grad_p])
    ok = norms > 1e-12
    inner = np.einsum("ij,ij->i", vecs, grad_vecs)
    grad_vecs = np.where(
        ok[:, None],
        (grad_vecs - vecs * inner[:, None]) / np.where(ok, norms, 1.0)[:, None],
        0.0)
    grad_vecs /= np.maximum(lengths, 1)[:, None]
    per_token = np.repeat(grad_vecs[lengths > 0], lengths[lengths > 0], axis=0)
    grad_table = np.zeros_like(table)
    if len(all_ids):
        flat = (all_ids[:, None] * dim + np.arange(dim)).ravel()
        grad_table = np.bincount(flat, weights=per_token.ravel(),
                                 minlength=table.size
                                 ).reshape(table.shape).astype(table.dtype)
    opt.step(table, grad_table)
    return loss


def naive_kg_step(emb, config, bh, br, bt, nh, nt, valid,
                  opt_pre, opt_post, opt_rel, opt_w):
    """Margin-ranking step with every row-local expression over the batch."""
    from acadsearch.kg_embed import N_RELATIONS, transh_constraint_grads

    ent = emb.entities
    dim = emb.dim
    doc_lo, doc_hi = emb.frozen_range
    total = ent.shape[0]
    scale = 1.0 / int(valid.sum())
    rel_t = emb.rel_translations

    def residuals(h_idx, t_idx, r_idx):
        h = ent[h_idx]
        t = ent[t_idx]
        if config.model == "transe":
            u = h + rel_t[r_idx] - t
            return np.linalg.norm(u, axis=1), u, None
        w = emb.rel_normals[r_idx]
        a = h - t
        wa = np.einsum("ij,ij->i", w, a)
        u = a + rel_t[r_idx] - wa[:, None] * w
        return np.linalg.norm(u, axis=1), u, (a, wa, w)

    d_pos, u_pos, extras_pos = residuals(bh, bt, br)
    d_neg, u_neg, extras_neg = residuals(nh, nt, br)
    hinge = config.margin + d_pos - d_neg
    active = (hinge > 0.0) & valid
    loss = float(hinge[active].sum() * scale)
    if not active.any():
        return 0.0
    safe_pos = np.where(d_pos > 1e-12, d_pos, 1.0)
    safe_neg = np.where(d_neg > 1e-12, d_neg, 1.0)
    g_pos = np.where(active, scale, 0.0)[:, None] * u_pos / safe_pos[:, None]
    g_neg = np.where(active, scale, 0.0)[:, None] * u_neg / safe_neg[:, None]

    def rel_scatter(rows):
        flat = (br[:, None] * dim + np.arange(dim)).ravel()
        return np.bincount(flat, weights=rows.ravel(),
                           minlength=N_RELATIONS * dim).reshape(N_RELATIONS, dim)

    grad_rel = rel_scatter(g_pos - g_neg)
    if config.model == "transe":
        ent_contribs = [(bh, g_pos), (bt, -g_pos), (nh, -g_neg), (nt, g_neg)]
    else:
        a_pos, wa_pos, w = extras_pos
        a_neg, wa_neg, _ = extras_neg
        gw_pos = np.einsum("ij,ij->i", g_pos, w)
        gw_neg = np.einsum("ij,ij->i", g_neg, w)
        gh_pos = g_pos - gw_pos[:, None] * w
        gh_neg = g_neg - gw_neg[:, None] * w
        ent_contribs = [(bh, gh_pos), (bt, -gh_pos), (nh, -gh_neg), (nt, gh_neg)]
        grad_w = rel_scatter(
            -(gw_pos[:, None] * a_pos + wa_pos[:, None] * g_pos)
            + (gw_neg[:, None] * a_neg + wa_neg[:, None] * g_neg))
        for ri in range(N_RELATIONS):
            _, cw, cdr = transh_constraint_grads(
                emb.rel_normals[ri], rel_t[ri],
                config.constraint_weight, config.constraint_eps)
            grad_w[ri] += cw
            grad_rel[ri] += cdr

    idx_parts = []
    grad_parts = []
    for idx, g in ent_contribs:
        keep = (idx < doc_lo) | (idx >= doc_hi)
        idx_parts.append(idx[keep])
        grad_parts.append(g[keep])
    idx = np.concatenate(idx_parts)
    grads = np.concatenate(grad_parts, axis=0)
    n_trainable = total - (doc_hi - doc_lo)
    compact = np.where(idx < doc_lo, idx, idx - (doc_hi - doc_lo))
    flat = (compact[:, None] * dim + np.arange(dim)).ravel()
    grad_tr = np.bincount(flat, weights=grads.ravel(),
                          minlength=n_trainable * dim).reshape(n_trainable, dim)
    if doc_lo:
        opt_pre.step(ent[:doc_lo], grad_tr[:doc_lo])
    if total - doc_hi:
        opt_post.step(ent[doc_hi:], grad_tr[doc_lo:])
    opt_rel.step(rel_t, grad_rel)
    if config.model == "transh":
        opt_w.step(emb.rel_normals, grad_w)
        norms = np.linalg.norm(emb.rel_normals, axis=1)
        emb.rel_normals /= np.where(norms < 1e-12, 1.0, norms)[:, None]
    return loss
