"""Independent reference implementations used as test oracles.

Everything here is written as plainly as possible (loops, direct formulas)
and must stay independent of the library code paths it checks.
"""
import math

import numpy as np


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
