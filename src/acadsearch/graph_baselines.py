"""Citation-graph baselines: PageRank and citation-count popularity.

Both operate on the pre-cutoff citation graph only, consistent with the
no-leakage policy. PageRank uses power iteration with uniform teleport and
dangling-node mass redistributed uniformly, iterating until the L1 change
drops below tolerance.
"""
from __future__ import annotations

import numpy as np

from .corpus.model import Corpus
from .errors import ConfigError, DataFormatError


class CitationGraph:
    """Directed citation edges over a subset of document ordinals."""

    def __init__(self, ordinals: list[int], edges: list[tuple[int, int]]):
        self.ordinals = np.asarray(sorted(ordinals), dtype=np.int64)
        index = {int(o): i for i, o in enumerate(self.ordinals)}
        self.n = len(self.ordinals)
        src = []
        dst = []
        for a, b in edges:
            if a == b:
                raise DataFormatError(f"self-loop on ordinal {a}")
            if a not in index or b not in index:
                raise DataFormatError(f"edge ({a}, {b}) references an ordinal "
                                      f"outside the graph")
            src.append(index[a])
            dst.append(index[b])
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.out_degree = np.bincount(self.src, minlength=self.n)

    @classmethod
    def from_corpus(cls, corpus: Corpus, cutoff_year: int) -> "CitationGraph":
        """Edge d -> d' iff d references d'; restricted to pre-cutoff docs."""
        keep = corpus.before(cutoff_year).ordinals
        kept = set(keep)
        edges = []
        for i in keep:
            for ref in corpus.docs[i].references:
                j = corpus.ordinal(ref)
                if j in kept and j != i:
                    edges.append((i, j))
        return cls(keep, edges)


def pagerank(graph: CitationGraph, alpha: float = 0.85, tol: float = 1e-8,
             max_iter: int = 100) -> np.ndarray:
    """Power iteration; returns scores per graph node summing to 1."""
    if graph.n == 0:
        raise DataFormatError("pagerank on an empty graph")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if tol <= 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    n = graph.n
    x = np.full(n, 1.0 / n)
    dangling = graph.out_degree == 0
    out_safe = np.where(dangling, 1, graph.out_degree).astype(np.float64)
    for _ in range(max_iter):
        contrib = x / out_safe
        spread = np.bincount(graph.dst, weights=contrib[graph.src], minlength=n)
        dangling_mass = x[dangling].sum()
        new = (1.0 - alpha) / n + alpha * (spread + dangling_mass / n)
        if np.abs(new - x).sum() < tol:
            x = new
            break
        x = new
    return x


def pagerank_by_ordinal(graph: CitationGraph, n_docs: int) -> np.ndarray:
    """PageRank per document ordinal below ``n_docs``; 0.0 outside the graph."""
    out = np.zeros(n_docs)
    out[graph.ordinals] = pagerank(graph)
    return out


def popularity_by_ordinal(graph: CitationGraph, n_docs: int) -> np.ndarray:
    """In-graph citation count per document ordinal below ``n_docs``."""
    return np.bincount(graph.ordinals[graph.dst], minlength=n_docs).astype(float)
