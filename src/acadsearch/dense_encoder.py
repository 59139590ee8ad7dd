"""Pluggable text embeddings and the triplet-margin-loss trainer.

The built-in encoder is a trainable hashed bag-of-words model: tokens hash
(crc32) into H buckets of a learned H x d table; a text is the L2-normalized
mean of its token bucket rows. It is a deliberately lightweight stand-in for
a transformer bi-encoder; precomputed embeddings from any external model can
be dropped in through the shared binary format.

Training minimizes, per (query, positive) pair,

    sum over negatives of max(||q - d+|| - ||q - d-|| + margin, 0)

with negatives taken from the other positives in the same batch, optimized
by AdamW. A step sums token gradients for the buckets its batch touched
only and hands the optimizer those rows (``AdamW.step(..., rows=)``). The
optimizer steps only the warm rows, those that have had a gradient; most
buckets never do. A cold row's moments and gradient are +0.0, so a step
would only decay it, ``p -= (+0.0 + p * wd) * lr``, and ``AdamW.settle``
replays those steps, the same operations in the same order, just before
the row is first read: a step settles its batch's rows before the forward
pass, and training settles the whole table before it returns. So the
trained table is the same bit for bit as full-table steps give, and
training holds no table-sized array besides the table and AdamW's moments.
The rest is block-sized too: the table is drawn in row chunks, a step's
forward pass gathers token rows a chunk of texts at a time, and its
(batch, batch, dim) distance maths runs on blocks of query rows, all with
the same results as the one-shot forms. Runs are bit-reproducible for a
fixed seed.
"""
from __future__ import annotations

import logging
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .lexical_index import tokenize
from .optim import AdamW

log = logging.getLogger(__name__)

_MAGIC = b"EMBD"
_FORMAT_VERSION = 1

# table rows per float64 draw at initialization (2 MiB at dim 64)
_INIT_ROWS = 4096
# texts per token gather in the forward pass: at about 64 tokens a text,
# the (tokens, dim) f32 gather of a chunk takes about 0.5 MiB at dim 64
_GATHER_TEXTS = 32
# query rows per block of the triplet step: a block's (rows, batch, dim)
# f64 temporaries take 1 MiB each at batch 128 and dim 64
_STEP_ROWS = 16


# --- shared embedding binary format (also used for KG entity matrices) -----

def save_embedding_matrix(matrix: np.ndarray, path: str | Path) -> None:
    """magic | u32 version | u32 count | u32 dim | count*dim little-endian f32."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _FORMAT_VERSION, matrix.shape[0], matrix.shape[1]))
        # a C-contiguous little-endian f32 table is written from its own buffer
        np.ascontiguousarray(matrix, dtype="<f4").tofile(fh)


def load_embedding_matrix(path: str | Path, expect_count: int | None = None,
                          expect_dim: int | None = None,
                          dtype=np.float64) -> np.ndarray:
    """Read a matrix as ``dtype`` (float64 or float32).

    The stored f32 values are read straight into a fresh, writable array,
    so a float32 load holds the table once and a float64 load converts it
    once.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != _MAGIC:
            raise DataFormatError(f"{path}: not an embedding file (bad magic)")
        if len(header) < 16:
            raise DataFormatError(f"{path}: truncated embedding file "
                                  f"({len(header)}-byte header, expected 16)")
        version, count, dim = struct.unpack_from("<III", header, 4)
        if version != _FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported embedding format version {version}")
        if expect_count is not None and count != expect_count:
            raise DataFormatError(f"{path}: expected {expect_count} rows, found {count}")
        if expect_dim is not None and dim != expect_dim:
            raise DataFormatError(f"{path}: expected dimension {expect_dim}, found {dim}")
        size = os.fstat(fh.fileno()).st_size
        if size < 16 + 4 * count * dim:
            raise DataFormatError(f"{path}: truncated embedding file ({size} bytes "
                                  f"for {count} x {dim})")
        matrix = np.empty((count, dim), dtype="<f4")
        if fh.readinto(matrix) != matrix.nbytes:
            raise DataFormatError(f"{path}: truncated embedding file")
    return matrix.astype(dtype, copy=False)


class DocEmbeddingStore:
    """Document vectors aligned with index ordinals; rows unit-length or zero."""

    def __init__(self, vectors: np.ndarray, renormalized: int = 0):
        vectors = np.asarray(vectors, dtype=np.float64)
        norms = np.linalg.norm(vectors, axis=1)
        self.empty_mask = norms < 1e-12
        safe = np.where(self.empty_mask, 1.0, norms)
        self.vectors = vectors / safe[:, None]
        self.vectors[self.empty_mask] = 0.0
        self.renormalized = renormalized

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def row(self, ordinal: int) -> np.ndarray:
        return self.vectors[ordinal]

    def save(self, path: str | Path) -> None:
        save_embedding_matrix(self.vectors, path)


def load_precomputed_embeddings(path: str | Path, expect_count: int | None = None,
                                expect_dim: int | None = None) -> DocEmbeddingStore:
    """Load a store, re-normalizing rows and warning when any deviates > 1e-3."""
    matrix = load_embedding_matrix(path, expect_count, expect_dim)
    norms = np.linalg.norm(matrix, axis=1)
    nonempty = norms >= 1e-12
    off = int(np.sum(nonempty & (np.abs(norms - 1.0) > 1e-3)))
    if off:
        log.warning("%s: re-normalized %d rows whose norm deviated by more than 1e-3",
                    path, off)
    return DocEmbeddingStore(matrix, renormalized=off)


# --- the trainable encoder --------------------------------------------------

class HashedBowEncoder:
    """Learned bucket table; texts embed as normalized means of token rows."""

    def __init__(self, dim: int = 64, buckets: int = 1 << 16, seed: int = 0):
        self.dim = dim
        self.buckets = buckets
        rng = np.random.default_rng(seed)
        # float32 throughout: the on-disk format is f32 anyway, and the
        # optimizer runs several times faster on half the memory traffic.
        # Row chunks take the same values from the stream as one
        # (buckets, dim) draw, so only a chunk exists in float64.
        self.table = np.empty((buckets, dim), dtype=np.float32)
        for lo in range(0, buckets, _INIT_ROWS):
            hi = min(lo + _INIT_ROWS, buckets)
            self.table[lo:hi] = rng.normal(0.0, 1.0 / np.sqrt(dim),
                                           size=(hi - lo, dim))
        self._bucket_cache: dict[str, int] = {}

    def bucket(self, token: str) -> int:
        b = self._bucket_cache.get(token)
        if b is None:
            b = zlib.crc32(token.encode("utf-8")) % self.buckets
            self._bucket_cache[token] = b
        return b

    def bucket_ids(self, text: str) -> np.ndarray:
        return np.asarray([self.bucket(t) for t in tokenize(text)], dtype=np.int64)

    def encode_ids(self, ids: np.ndarray) -> np.ndarray:
        if len(ids) == 0:
            return np.zeros(self.dim)
        vec = self.table[ids].astype(np.float64).mean(axis=0)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            return np.zeros(self.dim)
        return vec / norm

    def encode(self, text: str) -> np.ndarray:
        return self.encode_ids(self.bucket_ids(text))

    def save(self, path: str | Path) -> None:
        save_embedding_matrix(self.table, path)

    @classmethod
    def load(cls, path: str | Path) -> "HashedBowEncoder":
        table = load_embedding_matrix(path, dtype=np.float32)
        enc = cls.__new__(cls)
        enc.buckets, enc.dim = table.shape
        enc.table = table
        enc._bucket_cache = {}
        return enc


def _encode_batch(table: np.ndarray, ids_list: list[np.ndarray]):
    """Vectorized forward pass over many token-id arrays.

    Returns (normalized matrix, raw-mean norms, concatenated ids, segment
    lengths); empty or degenerate texts get zero rows and zero norms. Token
    rows are gathered and summed ``_GATHER_TEXTS`` texts at a time; each
    text's sum runs over its own tokens in order, whatever the chunking.
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
    bounds = np.zeros(len(nonempty) + 1, dtype=np.int64)
    np.cumsum(lengths[nonempty], out=bounds[1:])
    sums = np.empty((len(nonempty), dim), dtype=table.dtype)
    for lo in range(0, len(nonempty), _GATHER_TEXTS):
        hi = min(lo + _GATHER_TEXTS, len(nonempty))
        sums[lo:hi] = np.add.reduceat(table[all_ids[bounds[lo]:bounds[hi]]],
                                      bounds[lo:hi] - bounds[lo], axis=0)
    means = sums / lengths[nonempty, None]
    raw = np.linalg.norm(means, axis=1)
    ok = raw > 1e-12
    means[ok] /= raw[ok, None]
    means[~ok] = 0.0
    out[nonempty] = means
    norms[nonempty] = np.where(ok, raw, 0.0)
    return out, norms, all_ids, lengths


def train_encoder(encoder: HashedBowEncoder, pairs: list[tuple[str, int]],
                  doc_texts, epochs: int, lr: float = 1e-3,
                  batch_size: int = 128, margin: float = 1.0, seed: int = 0,
                  weight_decay: float = 0.01) -> list[float]:
    """Train in place on (query text, positive doc ordinal) pairs.

    Negatives for each query are the other positives in its batch. Returns
    the per-epoch mean batch loss. ``doc_texts`` maps ordinal -> text.
    """
    if not pairs or epochs == 0:
        return []
    rng = np.random.default_rng(seed)
    # a query repeats once per positive; each distinct text is bucketed once
    text_ids = {q: encoder.bucket_ids(q) for q in {q for q, _ in pairs}}
    query_ids = [text_ids[q] for q, _ in pairs]
    doc_ids = {o: encoder.bucket_ids(doc_texts[o]) for o in {o for _, o in pairs}}
    opt = AdamW(encoder.table.shape, lr=lr, weight_decay=weight_decay,
                dtype=encoder.table.dtype)
    n = len(pairs)
    losses: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            if len(batch) < 2:
                continue
            q_ids = [query_ids[i] for i in batch]
            p_ids = [doc_ids[pairs[i][1]] for i in batch]
            epoch_losses.append(
                _encoder_step(encoder.table, q_ids, p_ids, margin, opt))
        mean_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0
        losses.append(mean_loss)
        log.info("encoder epoch %d/%d: mean batch loss %.6f",
                 epoch + 1, epochs, mean_loss)
    opt.settle(encoder.table)
    return losses


def _encoder_step(table, q_ids, p_ids, margin, opt) -> float:
    """One AdamW step on a batch; the gradient goes to ``opt`` by touched row."""
    b = len(q_ids)
    dim = table.shape[1]
    # the batch's rows, brought up to date before the forward pass reads them
    touched, slot = np.unique(np.concatenate(q_ids + p_ids), return_inverse=True)
    opt.settle(table, touched)
    vecs, norms, _, lengths = _encode_batch(table, q_ids + p_ids)
    Q, P = vecs[:b], vecs[b:]

    # The (b, b, dim) distance maths runs on blocks of ``_STEP_ROWS`` query
    # rows, so its largest temporaries are (rows, b, dim). ``dist`` is
    # np.linalg.norm(diff, axis=2) without its second temporary, the same
    # sum bit for bit, and the unit vectors overwrite ``diff``. Every
    # expression is row-local except two sums over query rows: the loss sums
    # the blocks' active hinges joined in row-major order, the same 1-D array
    # as the whole batch's, and ``grad_p`` adds one query row at a time in
    # order, as einsum("ij,ijd->jd") does (adding per-block einsum results
    # would round differently).
    grad_q = np.empty((b, dim))
    grad_p = np.zeros((b, dim))
    pos_unit = np.empty((b, dim))
    counts = np.empty(b)                                  # weight on the positive term
    hinges = []
    for lo in range(0, b, _STEP_ROWS):
        hi = min(lo + _STEP_ROWS, b)
        rows = np.arange(hi - lo)
        diff = Q[lo:hi, None, :] - P[None, :, :]
        sq = np.multiply(diff, diff)
        dist = np.sqrt(np.add.reduce(sq, axis=2))
        del sq
        pos = dist[rows, lo + rows]
        hinge = pos[:, None] - dist + margin
        hinge[rows, lo + rows] = 0.0
        active = hinge > 0.0
        hinges.append(hinge[active])

        safe = np.where(dist > 1e-12, dist, 1.0)
        unit = np.divide(diff, safe[:, :, None], out=diff)
        counts[lo:hi] = active.sum(axis=1) / b
        w = active.astype(np.float64) / b
        pos_unit[lo:hi] = unit[rows, lo + rows]
        grad_q[lo:hi] = (counts[lo:hi, None] * pos_unit[lo:hi]
                         - np.einsum("ij,ijd->id", w, unit))
        for i in rows:
            grad_p += w[i, :, None] * unit[i]
        del diff, unit
    loss = float(np.concatenate(hinges).sum() / b)
    grad_p = -counts[:, None] * pos_unit + grad_p

    # Backprop through normalization and the token mean into the bucket table.
    grad_vecs = np.vstack([grad_q, grad_p])
    ok = norms > 1e-12
    inner = np.einsum("ij,ij->i", vecs, grad_vecs)
    grad_vecs = np.where(
        ok[:, None],
        (grad_vecs - vecs * inner[:, None]) / np.where(ok, norms, 1.0)[:, None],
        0.0)
    grad_vecs /= np.maximum(lengths, 1)[:, None]
    # Sum per touched bucket, one embedding column at a time, so no
    # (tokens, dim) array exists: each bucket's tokens still add in token
    # order from 0.0, and storing into the table's dtype rounds each sum once.
    nonempty = lengths > 0
    text_grads, text_lengths = grad_vecs[nonempty], lengths[nonempty]
    vals = np.empty((len(touched), dim), dtype=table.dtype)
    for c in range(dim):
        weights = np.repeat(text_grads[:, c], text_lengths)
        vals[:, c] = np.bincount(slot, weights=weights, minlength=len(touched))
    opt.step(table, vals, rows=touched)
    return loss


def embed_corpus(encoder: HashedBowEncoder, documents) -> DocEmbeddingStore:
    """One row per document in ordinal order; empty texts become zero rows."""
    rows = [encoder.encode(d if isinstance(d, str) else d.text())
            for d in documents]
    store = DocEmbeddingStore(np.stack(rows) if rows else np.zeros((0, encoder.dim)))
    n_empty = int(store.empty_mask.sum())
    if n_empty:
        log.warning("embed_corpus: %d documents produced empty embeddings", n_empty)
    return store
