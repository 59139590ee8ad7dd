"""Chronological splitting, query generation, and qrels construction.

Relevance for a query generated from paper p is the union of p's citations
and the BM25 top-k for p's exact title (train/validation), or citations only
(test default). The retrieval pool for any query is every document published
strictly before the query's year, which keeps qrels retrievable under the
time-aware pool rule.
"""
from __future__ import annotations

import logging

import numpy as np

from ..errors import ConfigError, SplitError
from ..lexical_index import BM25Params, InvertedIndex, retrieve_topk, tokenize
from .model import Corpus, CorpusView, Query, QrelSet
from .text import make_query

log = logging.getLogger(__name__)


def query_from_doc(corpus: Corpus, ordinal: int) -> Query | None:
    """Semi-synthetic query from a document title; None if unusable."""
    doc = corpus.doc(ordinal)
    text = make_query(doc.title)
    if not text or not doc.author_ids:
        return None
    return Query(
        query_id=f"q-{doc.doc_id}",
        user_id=doc.author_ids[0],
        text=text,
        year=doc.year,
        source_doc_id=doc.doc_id,
    )


def make_queries(corpus: Corpus, ordinals) -> tuple[list[Query], int]:
    """Queries for the given document ordinals; returns (queries, skipped)."""
    queries: list[Query] = []
    skipped = 0
    for o in ordinals:
        q = query_from_doc(corpus, o)
        if q is None:
            skipped += 1
        else:
            queries.append(q)
    return queries, skipped


def chronological_split(corpus: Corpus, cutoff_year: int
                        ) -> tuple[CorpusView, list[Query]]:
    """Train view (year < cutoff) and test queries from the remaining docs."""
    train = [i for i, d in enumerate(corpus.docs) if d.year < cutoff_year]
    test = [i for i, d in enumerate(corpus.docs) if d.year >= cutoff_year]
    if not train:
        raise SplitError(f"cutoff {cutoff_year} leaves an empty training partition")
    if not test:
        raise SplitError(f"cutoff {cutoff_year} leaves an empty test partition")
    queries, skipped = make_queries(corpus, test)
    if skipped:
        log.info("split: skipped %d test docs (empty query or no authors)", skipped)
    return corpus.view(train), queries


def build_qrels(corpus: Corpus, index: InvertedIndex, queries: list[Query],
                mode: str, depth: int = 100, params: BM25Params | None = None,
                test_union: bool = False) -> tuple[QrelSet, list[str]]:
    """Binary qrels for the given queries.

    mode 'train' takes citations plus BM25 top-``depth`` on the exact source
    title; mode 'test' defaults to citations only (``test_union`` switches the
    union rule on). Queries that end up with no relevant documents are
    dropped and their ids returned.
    """
    if mode not in ("train", "test"):
        raise ConfigError(f"qrels mode must be 'train' or 'test', got {mode!r}")
    union = mode == "train" or (mode == "test" and test_union)
    years = np.asarray([corpus.get(d).year for d in index.doc_ids])
    qrels = QrelSet()
    dropped: list[str] = []
    for q in queries:
        relevant: set[str] = set()
        source = corpus.get(q.source_doc_id) if (
            q.source_doc_id and q.source_doc_id in corpus) else None
        if source is not None:
            for ref in source.references:
                if ref in corpus and corpus.get(ref).year < q.year:
                    relevant.add(ref)
        if union:
            title = source.title if source is not None else q.text
            allowed = years < q.year
            hits = retrieve_topk(index, tokenize(title), depth, params, allowed=allowed)
            relevant.update(index.doc_ids[o] for o, _ in hits)
        if q.source_doc_id:
            relevant.discard(q.source_doc_id)
        if relevant:
            for d in sorted(relevant):
                qrels.add(q.query_id, d)
        else:
            dropped.append(q.query_id)
    if dropped:
        log.info("qrels(%s): dropped %d queries with no relevant documents",
                 mode, len(dropped))
    return qrels, dropped
