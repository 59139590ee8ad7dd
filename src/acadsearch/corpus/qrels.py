"""Chronological splitting, query generation, and qrels construction.

A query generated from paper p is relevant to p's citations published
before the query's year. Only with ``bm25_fallback``, which the training
split sets, does a query with no such citation take the BM25 top-k for p's
exact title instead. The retrieval pool for any query is every document
published strictly before the query's year, which keeps qrels retrievable
under the time-aware pool rule.
"""
from __future__ import annotations

import logging

import numpy as np

from ..errors import SplitError
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
    train = corpus.before(cutoff_year)
    test = [i for i, d in enumerate(corpus.docs) if d.year >= cutoff_year]
    if not train:
        raise SplitError(f"cutoff {cutoff_year} leaves an empty training partition")
    if not test:
        raise SplitError(f"cutoff {cutoff_year} leaves an empty test partition")
    queries, skipped = make_queries(corpus, test)
    if skipped:
        log.info("split: skipped %d test docs (empty query or no authors)", skipped)
    return train, queries


def build_qrels(corpus: Corpus, index: InvertedIndex, queries: list[Query], *,
                bm25_fallback: bool = False, depth: int = 100,
                params: BM25Params | None = None) -> tuple[QrelSet, list[str]]:
    """Binary qrels: each query's earlier citations, or with
    ``bm25_fallback`` the BM25 top-``depth`` on the exact source title for a
    query that has none. Queries left with no relevant documents are dropped
    and their ids returned. A query shares its source's year, so the source
    itself is never relevant.
    """
    years = np.asarray([corpus.get(d).year for d in index.doc_ids])
    qrels = QrelSet()
    dropped: list[str] = []
    for q in queries:
        source = corpus.get(q.source_doc_id) if (
            q.source_doc_id and q.source_doc_id in corpus) else None
        relevant = {ref for ref in (source.references if source else ())
                    if ref in corpus and corpus.get(ref).year < q.year}
        if not relevant and bm25_fallback:
            title = source.title if source is not None else q.text
            hits = retrieve_topk(index, tokenize(title), depth, params,
                                 allowed=years < q.year)
            relevant = {index.doc_ids[o] for o, _ in hits}
        if relevant:
            for d in sorted(relevant):
                qrels.add(q.query_id, d)
        else:
            dropped.append(q.query_id)
    if dropped:
        log.info("qrels: dropped %d queries with no relevant documents",
                 len(dropped))
    return qrels, dropped
