"""In-memory inverted index with BM25 scoring and top-k retrieval.

Scoring uses the nonnegative idf variant

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

and the usual saturated term-frequency form

    score(q, d) = sum_t idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len/avg_len))

so no score is ever negative, which keeps downstream min-max fusion simple.
Defaults k1=0.9, b=0.4 are common short-text settings.
"""
from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_MAGIC = b"LIDX"
_FORMAT_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class BM25Params:
    k1: float = 0.9
    b: float = 0.4


class InvertedIndex:
    """Term -> postings of (doc ordinal, term frequency), ordinals in build order.

    Postings are stored as parallel numpy arrays per term so query-time
    scoring is vectorized. Postings and collection statistics are immutable
    after construction. ``score_all`` caches each queried term's
    per-posting BM25 contributions for the most recent (k1, b), at most one
    f64 per posting. A fill only adds a finished array computed from the
    immutable data, and a new (k1, b) swaps in a fresh cache, so concurrent
    readers of a shared index never see a half-filled entry.
    """

    def __init__(self, doc_ids: list[str], doc_lengths: np.ndarray,
                 postings: dict[str, tuple[np.ndarray, np.ndarray]]):
        self.doc_ids = list(doc_ids)
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
        self.doc_count = len(self.doc_ids)
        self.avg_doc_len = float(self.doc_lengths.sum() / self.doc_count) if self.doc_count else 0.0
        self.postings = postings
        # ((k1, b), per-document length norm, term -> contribution array)
        self._contrib: tuple[tuple[float, float], np.ndarray,
                             dict[str, np.ndarray]] | None = None

    def df(self, term: str) -> int:
        entry = self.postings.get(term)
        return 0 if entry is None else len(entry[0])

    def idf(self, term: str) -> float:
        df = self.df(term)
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))


def build_index(documents) -> InvertedIndex:
    """Build an index over (doc_id, text) pairs, a Corpus, or a CorpusView."""
    doc_ids: list[str] = []
    lengths: list[int] = []
    # term -> (ordinals list, tfs list); ordinals appended in build order, so
    # posting lists come out sorted without an extra pass.
    accum: dict[str, tuple[list[int], list[int]]] = {}
    for item in documents:
        if isinstance(item, tuple):
            doc_id, text = item
        else:
            doc_id, text = item.doc_id, item.text()
        ordinal = len(doc_ids)
        doc_ids.append(doc_id)
        tokens = tokenize(text)
        lengths.append(len(tokens))
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        for term, tf in counts.items():
            entry = accum.setdefault(term, ([], []))
            entry[0].append(ordinal)
            entry[1].append(tf)
    if not doc_ids:
        raise DataFormatError("cannot build an index over an empty corpus")
    postings = {
        term: (np.asarray(ords, dtype=np.int64), np.asarray(tfs, dtype=np.int64))
        for term, (ords, tfs) in accum.items()
    }
    return InvertedIndex(doc_ids, np.asarray(lengths, dtype=np.int64), postings)


def score_all(index: InvertedIndex, query_tokens: list[str],
              params: BM25Params | None = None) -> np.ndarray:
    """BM25 scores for every document; zero where no query term matches.

    Terms are added in query order, and a duplicate query term contributes
    once per occurrence.
    """
    params = params or BM25Params()
    cache = index._contrib
    if cache is None or cache[0] != (params.k1, params.b):
        norm_base = params.k1 * (1.0 - params.b
                                 + params.b * index.doc_lengths / index.avg_doc_len)
        cache = index._contrib = ((params.k1, params.b), norm_base, {})
    _, norm_base, contribs = cache
    scores = np.zeros(index.doc_count, dtype=np.float64)
    for term in query_tokens:
        entry = index.postings.get(term)
        if entry is None:
            continue
        ords, tfs = entry
        contrib = contribs.get(term)
        if contrib is None:
            tf = tfs.astype(np.float64)
            contrib = index.idf(term) * tf * (params.k1 + 1.0) / (tf + norm_base[ords])
            contribs[term] = contrib
        scores[ords] += contrib
    return scores


def retrieve_topk(index: InvertedIndex, query_tokens: list[str], k: int,
                  params: BM25Params | None = None,
                  allowed: np.ndarray | None = None) -> list[tuple[int, float]]:
    """Top-k documents by BM25, descending score, ties by ascending ordinal.

    Only documents with score > 0 are returned. ``allowed`` is an optional
    boolean mask over ordinals restricting the candidate pool (used for
    time-aware retrieval).
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    scores = score_all(index, query_tokens, params)
    nonzero = np.flatnonzero(scores > 0.0)
    if allowed is not None:
        nonzero = nonzero[np.asarray(allowed, dtype=bool)[nonzero]]
    if len(nonzero) > k:
        # Keep every score at or above the k-th largest: ties straddling
        # place k all stay in, so sorting the kept set gives the same top k
        # as sorting every nonzero score.
        vals = scores[nonzero]
        nonzero = nonzero[vals >= np.partition(vals, len(vals) - k)[len(vals) - k]]
    order = nonzero[np.lexsort((nonzero, -scores[nonzero]))][:k]
    return list(zip(order.tolist(), scores[order].tolist()))


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Binary snapshot. Layout (little-endian):

    magic 'LIDX' | u32 version | u32 doc_count | u32 term_count
    doc table: per doc, u16 id length + utf-8 id + u32 token length
    term table: per term, u16 term length + utf-8 term + u32 df
                + df * u32 ordinal + df * u32 tf (all ordinals, then all tfs)
    """
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _FORMAT_VERSION, index.doc_count, len(index.postings)))
        for doc_id, length in zip(index.doc_ids, index.doc_lengths):
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", int(length)))
        for term in sorted(index.postings):
            ords, tfs = index.postings[term]
            raw = term.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", len(ords)))
            fh.write(ords.astype("<u4").tobytes())
            fh.write(tfs.astype("<u4").tobytes())


def load_index(path: str | Path) -> InvertedIndex:
    """Read a snapshot; a short, overlong or corrupt file raises DataFormatError."""
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != _MAGIC:
        raise DataFormatError(f"{path}: not an index snapshot (bad magic)")
    if len(data) < 16:
        raise DataFormatError(f"{path}: truncated index snapshot "
                              f"({len(data)}-byte header, expected 16)")
    version, doc_count, term_count = struct.unpack_from("<III", data, 4)
    if version != _FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported index format version {version}")
    # every doc entry takes at least 6 bytes and every term entry 6
    if 16 + 6 * (doc_count + term_count) > len(data):
        raise DataFormatError(f"{path}: truncated index snapshot: {len(data)} bytes "
                              f"cannot hold {doc_count} docs and {term_count} terms")
    off = 16
    doc_ids: list[str] = []
    lengths = np.empty(doc_count, dtype=np.int64)
    postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    # a read past the end raises struct.error or ValueError (frombuffer),
    # a bad utf-8 name UnicodeDecodeError; ``entry`` is where the failing
    # doc or term entry starts
    entry = off
    try:
        for i in range(doc_count):
            entry = off
            (n,) = struct.unpack_from("<H", data, off)
            off += 2
            doc_ids.append(data[off:off + n].decode("utf-8"))
            off += n
            (lengths[i],) = struct.unpack_from("<I", data, off)
            off += 4
        for _ in range(term_count):
            entry = off
            (n,) = struct.unpack_from("<H", data, off)
            off += 2
            term = data[off:off + n].decode("utf-8")
            off += n
            (df,) = struct.unpack_from("<I", data, off)
            off += 4
            ords = np.frombuffer(data, dtype="<u4", count=df, offset=off).astype(np.int64)
            off += 4 * df
            tfs = np.frombuffer(data, dtype="<u4", count=df, offset=off).astype(np.int64)
            off += 4 * df
            postings[term] = (ords, tfs)
    except (struct.error, ValueError):
        raise DataFormatError(f"{path}: truncated or corrupt index snapshot "
                              f"(entry at byte offset {entry})") from None
    if off != len(data):
        raise DataFormatError(f"{path}: {len(data) - off} unexpected bytes after "
                              f"the last term (byte offset {off})")
    return InvertedIndex(doc_ids, lengths, postings)
