import numpy as np
import pytest

from acadsearch.corpus import (build_qrels, chronological_split, make_queries,
                               make_query, query_from_doc)
from acadsearch.corpus.model import Author, Corpus, Document
from acadsearch.errors import ConfigError, SplitError
from acadsearch.lexical_index import build_index, retrieve_topk, tokenize


@pytest.fixture
def mini_corpus():
    docs = [
        Document("d1", "vector retrieval methods", "study of vector retrieval",
                 ["u1"], "v1", 2015, []),
        Document("d2", "graph embeddings survey", "graphs and embeddings",
                 ["u2"], "v1", 2015, []),
        Document("d3", "vector indexes at scale", "indexes for vector search",
                 ["u1", "u2"], "v1", 2016, ["d1"]),
        Document("d4", "personalized vector retrieval", "retrieval with users",
                 ["u3"], "v1", 2017, ["d1", "d3"]),
        Document("d5", "neural ranking models", "ranking with networks",
                 ["u2"], "v1", 2017, ["d2"]),
    ]
    authors = [Author("u1", "a1"), Author("u2", "a1"), Author("u3", "a2")]
    return Corpus(docs, authors)


def test_split_partitions_by_year(mini_corpus):
    train, test_queries = chronological_split(mini_corpus, 2017)
    train_years = [d.year for d in train]
    assert all(y < 2017 for y in train_years)
    assert len(train) == 3
    assert {q.source_doc_id for q in test_queries} == {"d4", "d5"}
    for q in test_queries:
        assert q.year == 2017
        assert q.user_id == mini_corpus.get(q.source_doc_id).author_ids[0]


def test_split_boundary_errors(mini_corpus):
    with pytest.raises(SplitError, match="test"):
        chronological_split(mini_corpus, 2018)  # max year + 1
    with pytest.raises(SplitError, match="training"):
        chronological_split(mini_corpus, 2015)


def test_query_from_doc_processing(mini_corpus):
    q = query_from_doc(mini_corpus, mini_corpus.ordinal("d4"))
    assert q.text == make_query("personalized vector retrieval")
    assert q.user_id == "u3"
    # doc with no authors is unusable
    corpus = Corpus([Document("dx", "some title here okay", "a", [], None,
                              2015, [])])
    assert query_from_doc(corpus, 0) is None
    # all-stopword title is unusable
    corpus2 = Corpus([Document("dy", "the of and", "a", ["u1"], None, 2015, [])])
    assert query_from_doc(corpus2, 0) is None


def test_make_queries_counts_skips(mini_corpus):
    queries, skipped = make_queries(mini_corpus, range(len(mini_corpus.docs)))
    assert len(queries) == 5 and skipped == 0


def test_build_qrels_train_union(mini_corpus):
    index = build_index(mini_corpus)
    queries, _ = make_queries(mini_corpus, [mini_corpus.ordinal("d4")])
    qrels, dropped = build_qrels(mini_corpus, index, queries, "train", depth=100)
    relevant = qrels.relevant(queries[0].query_id)
    # citations d1, d3 plus BM25 hits on the exact title, self excluded
    assert {"d1", "d3"} <= relevant
    assert "d4" not in relevant
    assert not dropped
    # everything in the qrels is retrievable under the time-aware pool
    for doc_id in relevant:
        assert mini_corpus.get(doc_id).year < queries[0].year


def test_build_qrels_test_citations_only(mini_corpus):
    index = build_index(mini_corpus)
    queries, _ = make_queries(mini_corpus, [mini_corpus.ordinal("d4")])
    qrels, _ = build_qrels(mini_corpus, index, queries, "test")
    assert qrels.relevant(queries[0].query_id) == frozenset({"d1", "d3"})
    union, _ = build_qrels(mini_corpus, index, queries, "test", test_union=True)
    assert union.relevant(queries[0].query_id) >= frozenset({"d1", "d3"})


def test_build_qrels_drops_empty(mini_corpus):
    index = build_index(mini_corpus)
    # d2 has no references; restrict relevance to citations only
    queries, _ = make_queries(mini_corpus, [mini_corpus.ordinal("d2")])
    qrels, dropped = build_qrels(mini_corpus, index, queries, "test")
    assert dropped == [queries[0].query_id]
    assert queries[0].query_id not in qrels


def test_build_qrels_mode_validation(mini_corpus):
    index = build_index(mini_corpus)
    with pytest.raises(ConfigError):
        build_qrels(mini_corpus, index, [], "validation")


def test_no_leakage_on_synthetic(small_synth):
    """Test-mode qrels only contain docs published before the query year."""
    _, corpus, _ = small_synth
    index = build_index(corpus)
    train, test_queries = chronological_split(corpus, 2016)
    qrels, _ = build_qrels(corpus, index, test_queries[:50], "test")
    years = np.asarray([corpus.get(d).year for d in index.doc_ids])
    by_query = {q.query_id: q for q in test_queries}
    for qid, relevant in qrels.items():
        q = by_query[qid]
        allowed = years < q.year
        retrievable = {index.doc_ids[o] for o in np.flatnonzero(allowed)}
        assert relevant <= retrievable


def test_union_includes_bm25_hits(mini_corpus):
    index = build_index(mini_corpus)
    queries, _ = make_queries(mini_corpus, [mini_corpus.ordinal("d4")])
    q = queries[0]
    allowed = np.asarray([mini_corpus.get(d).year for d in index.doc_ids]) < q.year
    hits = retrieve_topk(index, tokenize(mini_corpus.get("d4").title), 100,
                         allowed=allowed)
    hit_ids = {index.doc_ids[o] for o, _ in hits} - {"d4"}
    qrels, _ = build_qrels(mini_corpus, index, queries, "train")
    assert hit_ids <= qrels.relevant(q.query_id)
