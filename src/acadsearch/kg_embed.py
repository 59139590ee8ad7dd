"""Translational knowledge-graph embeddings with frozen document rows.

Two models over the academic KG:

* translation model ("transe"): f(h, r, t) = ||h + r - t||
* hyperplane model ("transh"): entities are first projected onto the
  relation's hyperplane, f = ||proj(h, w_r) + d_r - proj(t, w_r)|| with
  proj(v, w) = v - (w . v) w and unit normals w_r.

Document entity rows are initialized from the dense encoder's document
embeddings and never updated, so user/venue/affiliation vectors are pulled
into the same semantic space as the text. Training minimizes the margin
ranking loss max(margin + f(pos) - f(neg), 0) over corrupted negatives
(type-constrained, closed-world filtered), using AdamW. Hyperplane normals
are re-normalized to unit length after every update; trainable entity rows
are clipped to the unit ball after every epoch.

A training step computes its row-local maths in blocks of rows that fit a
core's L2 cache, the blocks mapped over the worker threads when there are
several; the loss sum and the gradient scatters then run once over the
whole batch in the order an unblocked step would use, so the embeddings
are the same bit for bit at any block size and thread count.

Paper-scale settings would be 100 epochs at batch size 16384; defaults here
are desk-scale (50 epochs, batch 4096) with the same learning rate 1e-3.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dense_encoder import DocEmbeddingStore, load_embedding_matrix, save_embedding_matrix
from .errors import ConfigError, DataFormatError
from .kg_builder import (RELATION_ORDER, RELATION_SIGNATURE, EntityCatalog,
                         EntityKind, RelationType, Triple)
from .optim import AdamW

log = logging.getLogger(__name__)

_REL_INDEX = {rel: i for i, rel in enumerate(RELATION_ORDER)}
N_RELATIONS = len(RELATION_ORDER)


# --- scoring ----------------------------------------------------------------

def transe_score(h_vec: np.ndarray, r_vec: np.ndarray, t_vec: np.ndarray) -> float:
    """||h + r - t||, the translation residual."""
    if not (h_vec.shape == r_vec.shape == t_vec.shape):
        raise ValueError("h, r, t must share one dimension")
    return float(np.linalg.norm(h_vec + r_vec - t_vec))


def transh_project(v_vec: np.ndarray, w_vec: np.ndarray) -> np.ndarray:
    """Project v onto the hyperplane with unit normal w."""
    if v_vec.shape != w_vec.shape:
        raise ValueError("vector and normal must share one dimension")
    norm = np.linalg.norm(w_vec)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"hyperplane normal must be unit length, got ||w|| = {norm}")
    return v_vec - np.dot(w_vec, v_vec) * w_vec


def transh_score(h_vec: np.ndarray, t_vec: np.ndarray, w_r: np.ndarray,
                 d_r: np.ndarray) -> float:
    return float(np.linalg.norm(
        transh_project(h_vec, w_r) + d_r - transh_project(t_vec, w_r)))


# --- pairwise margin loss with analytic gradients ---------------------------
# These single-pair forms exist for gradient verification; the batch trainer
# below vectorizes the same formulas.

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


def transh_constraint_grads(w, dr, weight, eps):
    """Soft orthogonality penalty weight * max((w.dr)^2/||dr||^2 - eps^2, 0)."""
    n2 = float(np.dot(dr, dr))
    if n2 <= 1e-24:
        return 0.0, np.zeros_like(w), np.zeros_like(dr)
    p = float(np.dot(w, dr))
    s = p * p / n2
    if s <= eps * eps:
        return 0.0, np.zeros_like(w), np.zeros_like(dr)
    grad_w = weight * 2.0 * p * dr / n2
    grad_dr = weight * (2.0 * p / n2) * (w - p * dr / n2)
    return weight * (s - eps * eps), grad_w, grad_dr


# --- negative sampling -------------------------------------------------------

def sample_negative(triple: Triple, catalog: EntityCatalog,
                    triples: set[Triple], rng: np.random.Generator,
                    max_attempts: int = 100) -> Triple | None:
    """Corrupt head or tail (p = 1/2 each) with a type-correct entity.

    Resamples until the corrupted triple is absent from the known set
    (closed-world assumption); returns None when no valid corruption is
    found within ``max_attempts``.
    """
    head_kind, tail_kind = RELATION_SIGNATURE[triple.relation]
    for _ in range(max_attempts):
        corrupt_head = rng.random() < 0.5
        kind = head_kind if corrupt_head else tail_kind
        lo, hi = catalog.kind_range(kind)
        if hi <= lo:
            return None
        cand = int(rng.integers(lo, hi))
        corrupted = (Triple(cand, triple.relation, triple.tail) if corrupt_head
                     else Triple(triple.head, triple.relation, cand))
        if corrupted not in triples:
            return corrupted
    return None


def encode_triples(heads, rels, tails, total_entities: int) -> np.ndarray:
    """Pack (h, r, t) into sortable int64 codes for membership tests."""
    return (heads.astype(np.int64) * N_RELATIONS + rels) * total_entities + tails


def _corruption_ranges(catalog: EntityCatalog):
    """Per-relation tail ranges and the user (head) range, as numpy arrays."""
    tail_lo = np.empty(N_RELATIONS, dtype=np.int64)
    tail_hi = np.empty(N_RELATIONS, dtype=np.int64)
    for rel, i in _REL_INDEX.items():
        tail_lo[i], tail_hi[i] = catalog.kind_range(RELATION_SIGNATURE[rel][1])
    user_lo, user_hi = catalog.kind_range(EntityKind.USER)
    return tail_lo, tail_hi, user_lo, user_hi


def _corrupt_batch(rng, heads, rels, tails, ranges, total: int,
                   known_codes: np.ndarray, rounds: int = 100):
    """Vectorized corruption with the same semantics as sample_negative.

    ``ranges`` comes from :func:`_corruption_ranges`, ``total`` is the
    catalog size.
    """
    n = len(heads)
    tail_lo, tail_hi, user_lo, user_hi = ranges
    nh = heads.copy()
    nt = tails.copy()
    pending = np.arange(n)
    for _ in range(rounds):
        if len(pending) == 0:
            break
        side_head = rng.random(len(pending)) < 0.5
        lo = np.where(side_head, user_lo, tail_lo[rels[pending]])
        hi = np.where(side_head, user_hi, tail_hi[rels[pending]])
        degenerate = hi <= lo
        hi = np.maximum(hi, lo + 1)
        cand = rng.integers(lo, hi)
        nh[pending] = np.where(side_head, cand, nh[pending])
        nt[pending] = np.where(side_head, nt[pending], cand)
        codes = encode_triples(nh[pending], rels[pending], nt[pending], total)
        pos = np.searchsorted(known_codes, codes)
        pos_clip = np.minimum(pos, len(known_codes) - 1)
        hit = (pos < len(known_codes)) & (known_codes[pos_clip] == codes)
        pending = pending[hit | degenerate]
    valid = np.ones(n, dtype=bool)
    valid[pending] = False
    return nh, nt, valid


# --- model container ---------------------------------------------------------

class KGEmbeddings:
    """Entity matrix, relation translations, and (hyperplane model) normals."""

    def __init__(self, model: str, entities: np.ndarray,
                 rel_translations: np.ndarray, rel_normals: np.ndarray | None,
                 catalog: EntityCatalog, frozen_range: tuple[int, int]):
        self.model = model
        self.entities = entities
        self.rel_translations = rel_translations
        self.rel_normals = rel_normals
        self.catalog = catalog
        self.frozen_range = frozen_range
        self.dim = entities.shape[1]
        self.epoch_losses: list[float] = []
        self.normal_deviations: list[float] = []

    def is_frozen(self, ordinal: int) -> bool:
        return self.frozen_range[0] <= ordinal < self.frozen_range[1]

    def relation_translation(self, rel: RelationType) -> np.ndarray:
        return self.rel_translations[_REL_INDEX[rel]]

    def relation_normal(self, rel: RelationType) -> np.ndarray:
        if self.rel_normals is None:
            raise ValueError("translation model has no hyperplane normals")
        return self.rel_normals[_REL_INDEX[rel]]

    def score(self, triple: Triple) -> float:
        h = self.entities[triple.head]
        t = self.entities[triple.tail]
        if self.model == "transe":
            return transe_score(h, self.relation_translation(triple.relation), t)
        return transh_score(h, t, self.relation_normal(triple.relation),
                            self.relation_translation(triple.relation))


def entity_vector(embeddings: KGEmbeddings, kind: EntityKind, external_id: str
                  ) -> tuple[np.ndarray, bool]:
    """Entity row plus a flag marking frozen (document) entities."""
    ordinal = embeddings.catalog.ordinal(kind, external_id)
    return embeddings.entities[ordinal].copy(), embeddings.is_frozen(ordinal)


# --- training ----------------------------------------------------------------

@dataclass
class KGTrainConfig:
    model: str = "transh"
    margin: float = 1.0
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 4096
    negatives: int = 1
    constraint_weight: float = 0.25
    constraint_eps: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0

    def validate(self) -> None:
        if self.model not in ("transe", "transh"):
            raise ConfigError(f"unknown KG model {self.model!r}")
        if self.margin <= 0 or self.lr <= 0 or self.batch_size < 1 or self.negatives < 1:
            raise ConfigError("margin, lr, batch_size, negatives must be positive")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


def init_embeddings(catalog: EntityCatalog, store: DocEmbeddingStore,
                    config: KGTrainConfig) -> KGEmbeddings:
    """Uniform +-6/sqrt(d) init, rows normalized; document rows from the store."""
    doc_lo, doc_hi = catalog.kind_range(EntityKind.DOCUMENT)
    if store.count != doc_hi - doc_lo:
        raise ConfigError(f"document store has {store.count} rows but the catalog "
                          f"holds {doc_hi - doc_lo} document entities")
    dim = store.dim
    rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(dim)

    def init_rows(n):
        rows = rng.uniform(-bound, bound, size=(n, dim))
        norms = np.linalg.norm(rows, axis=1)
        return rows / np.where(norms < 1e-12, 1.0, norms)[:, None]

    entities = np.empty((catalog.total, dim), dtype=np.float64)
    entities[:doc_lo] = init_rows(doc_lo)
    entities[doc_hi:] = init_rows(catalog.total - doc_hi)
    entities[doc_lo:doc_hi] = store.vectors
    rel_t = init_rows(N_RELATIONS)
    rel_w = init_rows(N_RELATIONS) if config.model == "transh" else None
    return KGEmbeddings(config.model, entities, rel_t, rel_w, catalog,
                        (doc_lo, doc_hi))


def train_kg(triples: list[Triple], store: DocEmbeddingStore,
             catalog: EntityCatalog, config: KGTrainConfig,
             threads: int = 1) -> KGEmbeddings:
    """Train embeddings; document rows stay exactly as loaded from the store."""
    config.validate()
    emb = init_embeddings(catalog, store, config)
    if config.epochs == 0 or not triples:
        return emb
    dim = emb.dim
    doc_lo, doc_hi = emb.frozen_range
    total = catalog.total

    heads = np.asarray([t.head for t in triples], dtype=np.int64)
    rels = np.asarray([_REL_INDEX[t.relation] for t in triples], dtype=np.int64)
    tails = np.asarray([t.tail for t in triples], dtype=np.int64)
    known = np.sort(encode_triples(heads, rels, tails, total))

    ranges = _corruption_ranges(catalog)

    rng = np.random.default_rng(config.seed + 1)
    ent = emb.entities
    opt_pre = AdamW((doc_lo, dim), lr=config.lr, weight_decay=config.weight_decay)
    opt_post = AdamW((total - doc_hi, dim), lr=config.lr,
                     weight_decay=config.weight_decay)
    opt_rel = AdamW(emb.rel_translations.shape, lr=config.lr,
                    weight_decay=config.weight_decay)
    opt_w = (AdamW(emb.rel_normals.shape, lr=config.lr, weight_decay=0.0)
             if config.model == "transh" else None)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    n = len(triples)
    try:
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                if config.negatives > 1:
                    idx = np.repeat(idx, config.negatives)
                bh, br, bt = heads[idx], rels[idx], tails[idx]
                nh, nt, valid = _corrupt_batch(rng, bh, br, bt, ranges, total,
                                               known)
                if not valid.any():
                    continue
                loss = _kg_step(emb, config, bh, br, bt, nh, nt, valid,
                                opt_pre, opt_post, opt_rel, opt_w, pool)
                batch_losses.append(loss)
            # Trainable rows obey the unit-norm cap; frozen rows are untouched.
            for sl in (slice(0, doc_lo), slice(doc_hi, total)):
                block = ent[sl]
                if block.shape[0]:
                    norms = np.linalg.norm(block, axis=1)
                    over = norms > 1.0
                    if over.any():
                        block[over] /= norms[over, None]
            mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
            emb.epoch_losses.append(mean_loss)
            if emb.rel_normals is not None:
                dev = float(np.max(np.abs(
                    np.linalg.norm(emb.rel_normals, axis=1) - 1.0)))
                emb.normal_deviations.append(dev)
            log.info("kg %s epoch %d/%d: mean batch loss %.6f",
                     config.model, epoch + 1, config.epochs, mean_loss)
    finally:
        if pool is not None:
            pool.shutdown()
    return emb


# rows per block of the KG step's row-local maths: a block's gathers and
# residuals (512 x 64 f64, 256 KiB each) stay in a core's L2 cache
_KG_BLOCK = 512


def _kg_step(emb, config, bh, br, bt, nh, nt, valid,
             opt_pre, opt_post, opt_rel, opt_w, pool) -> float:
    """One AdamW step on positive triples and their corruptions.

    The row-local maths (gathers, residuals, hinge, per-row gradients) runs
    on blocks of ``_KG_BLOCK`` rows, mapped over ``pool`` when one is given;
    each block writes its own slices of full-length arrays. The loss sum
    and the gradient scatters run over those full arrays, so the result is
    the same at any block size and thread count.
    """
    ent = emb.entities
    rel_t = emb.rel_translations
    transh = config.model == "transh"
    dim = emb.dim
    doc_lo, doc_hi = emb.frozen_range
    total = ent.shape[0]
    n = len(bh)
    scale = 1.0 / int(valid.sum())

    hinge = np.empty(n)
    active = np.empty(n, dtype=bool)
    # entity gradient rows in scatter order: bh, bt, nh, nt
    ent_rows = np.empty((4 * n, dim))
    rel_rows = np.empty((n, dim))
    w_rows = np.empty((n, dim)) if transh else None

    def residuals(h_idx, t_idx, r_idx):
        h = ent[h_idx]
        t = ent[t_idx]
        if not transh:
            u = h + rel_t[r_idx] - t
            return np.linalg.norm(u, axis=1), u, None
        w = emb.rel_normals[r_idx]
        a = h - t
        wa = np.einsum("ij,ij->i", w, a)
        u = a + rel_t[r_idx] - wa[:, None] * w
        return np.linalg.norm(u, axis=1), u, (a, wa, w)

    def block(lo):
        hi = min(lo + _KG_BLOCK, n)
        d_pos, u_pos, x_pos = residuals(bh[lo:hi], bt[lo:hi], br[lo:hi])
        d_neg, u_neg, x_neg = residuals(nh[lo:hi], nt[lo:hi], br[lo:hi])
        margin_gap = hinge[lo:hi]
        np.subtract(config.margin + d_pos, d_neg, out=margin_gap)
        act = active[lo:hi]
        np.logical_and(margin_gap > 0.0, valid[lo:hi], out=act)
        coef = np.where(act, scale, 0.0)[:, None]
        g_pos = coef * u_pos / np.where(d_pos > 1e-12, d_pos, 1.0)[:, None]
        g_neg = coef * u_neg / np.where(d_neg > 1e-12, d_neg, 1.0)[:, None]
        np.subtract(g_pos, g_neg, out=rel_rows[lo:hi])
        if transh:
            a_pos, wa_pos, w = x_pos
            a_neg, wa_neg, _ = x_neg
            gw_pos = np.einsum("ij,ij->i", g_pos, w)
            gw_neg = np.einsum("ij,ij->i", g_neg, w)
            np.add(-(gw_pos[:, None] * a_pos + wa_pos[:, None] * g_pos),
                   gw_neg[:, None] * a_neg + wa_neg[:, None] * g_neg,
                   out=w_rows[lo:hi])
            g_pos = g_pos - gw_pos[:, None] * w
            g_neg = g_neg - gw_neg[:, None] * w
        ent_rows[lo:hi] = g_pos
        np.negative(g_pos, out=ent_rows[n + lo:n + hi])
        np.negative(g_neg, out=ent_rows[2 * n + lo:2 * n + hi])
        ent_rows[3 * n + lo:3 * n + hi] = g_neg

    starts = range(0, n, _KG_BLOCK)
    if pool is None:
        for lo in starts:
            block(lo)
    else:
        list(pool.map(block, starts))

    loss = float(hinge[active].sum() * scale)
    if not active.any():
        return 0.0

    rel_flat = (br[:, None] * dim + np.arange(dim)).ravel()

    def rel_scatter(rows):
        return np.bincount(rel_flat, weights=rows.ravel(),
                           minlength=N_RELATIONS * dim).reshape(N_RELATIONS, dim)

    grad_rel = rel_scatter(rel_rows)
    if transh:
        grad_w = rel_scatter(w_rows)
        for ri in range(N_RELATIONS):
            _, cw, cdr = transh_constraint_grads(
                emb.rel_normals[ri], rel_t[ri],
                config.constraint_weight, config.constraint_eps)
            grad_w[ri] += cw
            grad_rel[ri] += cdr

    # Frozen document rows take no gradient, so their contributions are
    # dropped before the scatter.
    idx = np.concatenate([bh, bt, nh, nt])
    keep = (idx < doc_lo) | (idx >= doc_hi)
    if not keep.all():
        idx = idx[keep]
        ent_rows = ent_rows[keep]
    # compact ordinals: the frozen document block is cut out of the middle
    n_trainable = total - (doc_hi - doc_lo)
    compact = np.where(idx < doc_lo, idx, idx - (doc_hi - doc_lo))
    flat = (compact[:, None] * dim + np.arange(dim)).ravel()
    grad_tr = np.bincount(flat, weights=ent_rows.ravel(),
                          minlength=n_trainable * dim).reshape(n_trainable, dim)

    if doc_lo:
        opt_pre.step(ent[:doc_lo], grad_tr[:doc_lo])
    if total - doc_hi:
        opt_post.step(ent[doc_hi:], grad_tr[doc_lo:])
    opt_rel.step(rel_t, grad_rel)
    if transh:
        opt_w.step(emb.rel_normals, grad_w)
        norms = np.linalg.norm(emb.rel_normals, axis=1)
        emb.rel_normals /= np.where(norms < 1e-12, 1.0, norms)[:, None]
    return loss


# --- link prediction sanity --------------------------------------------------

def link_prediction_mean_rank(emb: KGEmbeddings, eval_triples: list[Triple],
                              known_codes: np.ndarray) -> float:
    """Filtered mean rank of true tails among type-correct candidates.

    ``known_codes`` must contain every known-true triple (training plus
    held-out) encoded by :func:`encode_triples`; candidates matching a known
    triple other than the target are excluded before ranking.
    """
    catalog = emb.catalog
    total = catalog.total
    ranks = []
    for triple in eval_triples:
        ri = _REL_INDEX[triple.relation]
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
        codes = (triple.head * N_RELATIONS + ri) * total + cand
        pos = np.searchsorted(known_codes, codes)
        pos_clip = np.minimum(pos, len(known_codes) - 1)
        is_known = (pos < len(known_codes)) & (known_codes[pos_clip] == codes)
        allowed = ~is_known
        allowed[triple.tail - lo] = True
        target_d = d[triple.tail - lo]
        rank = 1 + int(np.count_nonzero(d[allowed] < target_d))
        ranks.append(rank)
    return float(np.mean(ranks))


# --- persistence -------------------------------------------------------------

def save_kg_embeddings(emb: KGEmbeddings, bin_path: str | Path,
                       manifest_path: str | Path) -> None:
    """Entity matrix in the shared embedding format plus a text manifest."""
    save_embedding_matrix(emb.entities, bin_path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("#kg-embeddings v1\n")
        fh.write(f"model\t{emb.model}\n")
        fh.write(f"dim\t{emb.dim}\n")
        fh.write(f"frozen\t{emb.frozen_range[0]}\t{emb.frozen_range[1]}\n")
        for ordinal in range(emb.catalog.total):
            kind, ext = emb.catalog.entity(ordinal)
            fh.write(f"entity\t{ordinal}\t{kind.value}\t{ext}\n")
        for rel in RELATION_ORDER:
            vec = ",".join(f"{x:.17g}" for x in emb.rel_translations[_REL_INDEX[rel]])
            fh.write(f"relation\t{rel.value}\t{vec}\n")
        if emb.rel_normals is not None:
            for rel in RELATION_ORDER:
                vec = ",".join(f"{x:.17g}" for x in emb.rel_normals[_REL_INDEX[rel]])
                fh.write(f"normal\t{rel.value}\t{vec}\n")


def load_kg_embeddings(bin_path: str | Path, manifest_path: str | Path,
                       catalog: EntityCatalog) -> KGEmbeddings:
    manifest_path = Path(manifest_path)
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#kg-embeddings"):
        raise DataFormatError(f"{manifest_path}: not a KG embedding manifest")
    model = None
    dim = None
    frozen = (0, 0)
    rel_t = np.zeros((N_RELATIONS, 1))
    rel_w = None
    entity_rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        tag = parts[0]
        try:
            if tag == "model":
                model = parts[1]
            elif tag == "dim":
                dim = int(parts[1])
                rel_t = np.zeros((N_RELATIONS, dim))
            elif tag == "frozen":
                frozen = (int(parts[1]), int(parts[2]))
            elif tag == "entity":
                ordinal, kind, ext = int(parts[1]), EntityKind(parts[2]), parts[3]
                if catalog.ordinal(kind, ext) != ordinal:
                    raise DataFormatError(
                        f"{manifest_path}: entity {ext!r} maps to ordinal "
                        f"{catalog.ordinal(kind, ext)} in the catalog, manifest "
                        f"says {ordinal}")
                entity_rows += 1
            elif tag == "relation":
                rel_t[_REL_INDEX[RelationType(parts[1])]] = \
                    [float(x) for x in parts[2].split(",")]
            elif tag == "normal":
                if rel_w is None:
                    rel_w = np.zeros((N_RELATIONS, dim))
                rel_w[_REL_INDEX[RelationType(parts[1])]] = \
                    [float(x) for x in parts[2].split(",")]
        except (IndexError, ValueError, KeyError) as exc:
            raise DataFormatError(
                f"{manifest_path}: bad manifest line {lineno}: {exc}") from None
    if model is None or dim is None:
        raise DataFormatError(f"{manifest_path}: manifest missing model or dim")
    if entity_rows != catalog.total:
        raise DataFormatError(f"{manifest_path}: manifest lists {entity_rows} "
                              f"entities, catalog has {catalog.total}")
    entities = load_embedding_matrix(bin_path, expect_count=catalog.total,
                                     expect_dim=dim)
    if model == "transh" and rel_w is None:
        raise DataFormatError(f"{manifest_path}: hyperplane model without normals")
    return KGEmbeddings(model, entities, rel_t, rel_w, catalog, frozen)


def heldout_split(triples: list[Triple], relation: RelationType, n_heldout: int,
                  seed: int) -> tuple[list[Triple], list[Triple]]:
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
