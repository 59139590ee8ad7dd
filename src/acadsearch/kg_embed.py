"""Translational knowledge-graph embeddings with frozen document rows.

Two models over the academic KG:

* translation model ("transe"): f(h, r, t) = ||h + r - t||
* hyperplane model ("transh"): entities are first projected onto the
  relation's hyperplane, f = ||proj(h, w_r) + d_r - proj(t, w_r)|| with
  proj(v, w) = v - (w . v) w and unit normals w_r.

Document entity rows are initialized from the dense encoder's document
embeddings and never updated, so user/venue/affiliation vectors are pulled
into the same semantic space as the text. The catalog puts the documents
last, so the trainable rows are one prefix of the entity matrix and the
frozen document rows its tail. Training minimizes the margin ranking loss
max(margin + f(pos) - f(neg), 0) over corrupted negatives (type-constrained,
closed-world filtered), using AdamW. Hyperplane normals are re-normalized to
unit length after every update; trainable entity rows are clipped to the
unit ball after every epoch.

A training step computes its row-local maths in blocks of rows that fit a
core's L2 cache; the loss sum and the gradient scatters then run once over
the whole batch in the order an unblocked step would use, so the embeddings
are the same bit for bit at any block size.

Paper-scale settings would be 100 epochs at batch size 16384; defaults here
are desk-scale (50 epochs, batch 4096) with the same learning rate 1e-3.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus.io import read_lines
from .dense_encoder import DocEmbeddingStore, load_embedding_matrix, save_embedding_matrix
from .errors import ConfigError, DataFormatError
from .kg_builder import (RELATION_ORDER, RELATION_SIGNATURE, EntityCatalog,
                         EntityKind, RelationType, Triple)
from .optim import AdamW

log = logging.getLogger(__name__)

KG_MODELS = ("transe", "transh")
_REL_INDEX = {rel: i for i, rel in enumerate(RELATION_ORDER)}
N_RELATIONS = len(RELATION_ORDER)


# --- hyperplane constraint ---------------------------------------------------

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
    """Corrupt head or tail (p = 1/2 each) with a type-correct entity.

    Each round picks a side afresh for every pending row and overwrites that
    side with a draw from its type range; the other side keeps whatever it
    holds, so a row retried after a rejected draw can end up differing from
    its positive in both head and tail. A row leaves the pending set once its
    drawn range is non-empty and its triple is absent from ``known_codes``
    (closed-world assumption); rows still pending after ``rounds`` rounds
    come back invalid. ``ranges`` comes from :func:`_corruption_ranges`,
    ``total`` is the catalog size.
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
    """Entity matrix, relation translations, and (hyperplane model) normals.

    ``frozen_range`` is the catalog's document block, the tail of the
    entity matrix; every row before it is trainable.
    """

    def __init__(self, model: str, entities: np.ndarray,
                 rel_translations: np.ndarray, rel_normals: np.ndarray | None,
                 catalog: EntityCatalog):
        self.model = model
        self.entities = entities
        self.rel_translations = rel_translations
        self.rel_normals = rel_normals
        self.catalog = catalog
        self.frozen_range = catalog.kind_range(EntityKind.DOCUMENT)
        self.dim = entities.shape[1]
        self.epoch_losses: list[float] = []
        self.normal_deviations: list[float] = []


# --- training ----------------------------------------------------------------

@dataclass
class KGTrainConfig:
    model: str = "transh"
    margin: float = 1.0
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 4096
    constraint_weight: float = 0.25
    constraint_eps: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0


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
    entities[doc_lo:] = store.vectors
    rel_t = init_rows(N_RELATIONS)
    rel_w = init_rows(N_RELATIONS) if config.model == "transh" else None
    return KGEmbeddings(config.model, entities, rel_t, rel_w, catalog)


def train_kg(triples: list[Triple], store: DocEmbeddingStore,
             catalog: EntityCatalog, config: KGTrainConfig) -> KGEmbeddings:
    """Train embeddings; document rows stay exactly as loaded from the store."""
    emb = init_embeddings(catalog, store, config)
    if config.epochs == 0 or not triples:
        return emb
    n_train = emb.frozen_range[0]
    total = catalog.total

    heads = np.asarray([t.head for t in triples], dtype=np.int64)
    rels = np.asarray([_REL_INDEX[t.relation] for t in triples], dtype=np.int64)
    tails = np.asarray([t.tail for t in triples], dtype=np.int64)
    known = np.sort(encode_triples(heads, rels, tails, total))

    ranges = _corruption_ranges(catalog)

    rng = np.random.default_rng(config.seed + 1)
    trainable = emb.entities[:n_train]
    opt_ent = AdamW((n_train, emb.dim), lr=config.lr,
                    weight_decay=config.weight_decay)
    opt_rel = AdamW(emb.rel_translations.shape, lr=config.lr,
                    weight_decay=config.weight_decay)
    opt_w = (AdamW(emb.rel_normals.shape, lr=config.lr, weight_decay=0.0)
             if config.model == "transh" else None)

    n = len(triples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            bh, br, bt = heads[idx], rels[idx], tails[idx]
            nh, nt, valid = _corrupt_batch(rng, bh, br, bt, ranges, total,
                                           known)
            if not valid.any():
                continue
            loss = _kg_step(emb, config, bh, br, bt, nh, nt, valid,
                            opt_ent, opt_rel, opt_w)
            batch_losses.append(loss)
        # Trainable rows obey the unit-norm cap; frozen rows are untouched.
        norms = np.linalg.norm(trainable, axis=1)
        over = norms > 1.0
        if over.any():
            trainable[over] /= norms[over, None]
        mean_loss = float(np.mean(batch_losses)) if batch_losses else 0.0
        emb.epoch_losses.append(mean_loss)
        if emb.rel_normals is not None:
            dev = float(np.max(np.abs(
                np.linalg.norm(emb.rel_normals, axis=1) - 1.0)))
            emb.normal_deviations.append(dev)
        log.info("kg %s epoch %d/%d: mean batch loss %.6f",
                 config.model, epoch + 1, config.epochs, mean_loss)
    return emb


# rows per block of the KG step's row-local maths: a block's gathers and
# residuals (512 x 64 f64, 256 KiB each) stay in a core's L2 cache
_KG_BLOCK = 512


def _kg_step(emb, config, bh, br, bt, nh, nt, valid,
             opt_ent, opt_rel, opt_w) -> float:
    """One AdamW step on positive triples and their corruptions.

    The row-local maths (gathers, residuals, hinge, per-row gradients) runs
    on blocks of ``_KG_BLOCK`` rows, each writing its own slices of
    full-length arrays. The loss sum and the gradient scatters run over
    those full arrays, so the result is the same at any block size.
    """
    ent = emb.entities
    rel_t = emb.rel_translations
    transh = config.model == "transh"
    dim = emb.dim
    n_train = emb.frozen_range[0]
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

    for lo in range(0, n, _KG_BLOCK):
        block(lo)

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

    # Frozen document rows (the tail) take no gradient, so their
    # contributions are dropped before the scatter.
    idx = np.concatenate([bh, bt, nh, nt])
    keep = idx < n_train
    if not keep.all():
        idx = idx[keep]
        ent_rows = ent_rows[keep]
    flat = (idx[:, None] * dim + np.arange(dim)).ravel()
    grad_ent = np.bincount(flat, weights=ent_rows.ravel(),
                           minlength=n_train * dim).reshape(n_train, dim)

    opt_ent.step(ent[:n_train], grad_ent)
    opt_rel.step(rel_t, grad_rel)
    if transh:
        opt_w.step(emb.rel_normals, grad_w)
        norms = np.linalg.norm(emb.rel_normals, axis=1)
        emb.rel_normals /= np.where(norms < 1e-12, 1.0, norms)[:, None]
    return loss


# --- persistence -------------------------------------------------------------

def save_kg_embeddings(emb: KGEmbeddings, bin_path: str | Path,
                       manifest_path: str | Path) -> None:
    """Entity matrix in the shared embedding format plus a text manifest."""
    save_embedding_matrix(emb.entities, bin_path)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("#kg-embeddings v1\n")
        fh.write(f"model\t{emb.model}\n")
        fh.write(f"dim\t{emb.dim}\n")
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
    """Read what :func:`save_kg_embeddings` wrote.

    Every line the writer emits must be there, each relation vector (and,
    for the hyperplane model, each normal) exactly once with ``dim`` values,
    and the file must end in a newline, so a manifest cut short anywhere
    raises DataFormatError.
    """
    manifest_path = Path(manifest_path)
    lines = read_lines(manifest_path)
    _, line = next(lines, (1, ""))
    if not line.startswith("#kg-embeddings"):
        raise DataFormatError(f"{manifest_path}: not a KG embedding manifest")
    model = dim = None
    vectors: dict[str, dict[RelationType, list[float]]] = {"relation": {},
                                                            "normal": {}}
    entity_rows = 0
    for lineno, line in lines:
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        tag = parts[0]
        try:
            if tag == "model":
                model = parts[1]
            elif tag == "dim":
                dim = int(parts[1])
            elif tag == "entity":
                ordinal, kind, ext = int(parts[1]), EntityKind(parts[2]), parts[3]
                if catalog.ordinal(kind, ext) != ordinal:
                    raise DataFormatError(
                        f"{manifest_path}: entity {ext!r} maps to ordinal "
                        f"{catalog.ordinal(kind, ext)} in the catalog, manifest "
                        f"says {ordinal}")
                entity_rows += 1
            elif tag in vectors:
                rel = RelationType(parts[1])
                vec = [float(x) for x in parts[2].split(",")]
                if dim is None or len(vec) != dim or rel in vectors[tag]:
                    raise ValueError(f"{tag} {rel.value} comes before dim, "
                                     f"repeats, or has not {dim} values")
                vectors[tag][rel] = vec
        except (IndexError, ValueError, KeyError) as exc:
            raise DataFormatError(
                f"{manifest_path}: bad manifest line {lineno}: {exc}") from None
    if not line.endswith("\n"):
        raise DataFormatError(f"{manifest_path}: truncated manifest "
                              f"(no newline at the end)")
    if model is None or dim is None:
        raise DataFormatError(f"{manifest_path}: manifest missing model or dim")
    if entity_rows != catalog.total:
        raise DataFormatError(f"{manifest_path}: manifest lists {entity_rows} "
                              f"entities, catalog has {catalog.total}")
    if len(vectors["relation"]) != N_RELATIONS:
        raise DataFormatError(f"{manifest_path}: manifest lists "
                              f"{len(vectors['relation'])} of {N_RELATIONS} "
                              f"relation vectors")
    if (len(vectors["normal"]) not in (0, N_RELATIONS)
            or (model == "transh" and not vectors["normal"])):
        raise DataFormatError(f"{manifest_path}: hyperplane model without "
                              f"a normal for every relation")
    entities = load_embedding_matrix(bin_path, expect_count=catalog.total,
                                     expect_dim=dim)
    rel_t = np.array([vectors["relation"][rel] for rel in RELATION_ORDER])
    rel_w = (np.array([vectors["normal"][rel] for rel in RELATION_ORDER])
             if vectors["normal"] else None)
    return KGEmbeddings(model, entities, rel_t, rel_w, catalog)
