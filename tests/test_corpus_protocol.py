import numpy as np
import pytest

from acadsearch.corpus import (build_qrels, chronological_split, make_queries,
                               make_query, query_from_doc)
from acadsearch.corpus.model import Author, Corpus, Document
from acadsearch.errors import SplitError
from acadsearch.lexical_index import build_index, retrieve_topk, tokenize
from oracles import frozen_union_qrels


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


@pytest.fixture
def qrels_corpus(mini_corpus):
    """mini_corpus plus d6, an earlier paper d4 does not cite although d4's
    title hits it, and d7, a 2017 paper that cites nothing."""
    docs = list(mini_corpus.docs) + [
        Document("d6", "vector retrieval benchmarks", "benchmarks for search",
                 ["u2"], "v1", 2016, []),
        Document("d7", "vector retrieval for users", "users and search",
                 ["u3"], "v1", 2017, []),
    ]
    return Corpus(docs, list(mini_corpus.authors.values()))


def _title_hits(corpus, index, doc_id, k=100):
    """BM25 top-k doc ids of a document's title among earlier documents."""
    year = corpus.get(doc_id).year
    allowed = np.asarray([corpus.get(d).year for d in index.doc_ids]) < year
    hits = retrieve_topk(index, tokenize(corpus.get(doc_id).title), k,
                         allowed=allowed)
    return {index.doc_ids[o] for o, _ in hits}


def test_build_qrels_cited_query_takes_only_its_citations(qrels_corpus):
    index = build_index(qrels_corpus)
    queries, _ = make_queries(qrels_corpus, [qrels_corpus.ordinal("d4")])
    assert "d6" in _title_hits(qrels_corpus, index, "d4")
    for fallback in (False, True):
        qrels, dropped = build_qrels(qrels_corpus, index, queries,
                                     bm25_fallback=fallback)
        assert qrels.relevant(queries[0].query_id) == frozenset({"d1", "d3"})
        assert not dropped


def test_build_qrels_uncited_query_takes_the_bm25_fallback(qrels_corpus):
    index = build_index(qrels_corpus)
    queries, _ = make_queries(qrels_corpus, [qrels_corpus.ordinal("d7")])
    qid = queries[0].query_id
    qrels, dropped = build_qrels(qrels_corpus, index, queries, bm25_fallback=True)
    hits = _title_hits(qrels_corpus, index, "d7")
    assert {"d1", "d3", "d6"} <= hits
    assert qrels.relevant(qid) == hits and not dropped
    # the fallback keeps to the depth and to documents before the query year
    qrels, _ = build_qrels(qrels_corpus, index, queries, bm25_fallback=True,
                           depth=2)
    assert qrels.relevant(qid) == _title_hits(qrels_corpus, index, "d7", k=2)
    assert len(qrels.relevant(qid)) == 2
    assert "d4" not in hits and "d5" not in hits and "d7" not in hits
    qrels, dropped = build_qrels(qrels_corpus, index, queries)
    assert dropped == [qid] and qid not in qrels


def test_build_qrels_drops_empty(mini_corpus):
    index = build_index(mini_corpus)
    # d2 has no references and no earlier documents to fall back on
    queries, _ = make_queries(mini_corpus, [mini_corpus.ordinal("d2")])
    for fallback in (False, True):
        qrels, dropped = build_qrels(mini_corpus, index, queries,
                                     bm25_fallback=fallback)
        assert dropped == [queries[0].query_id]
        assert queries[0].query_id not in qrels


def test_build_qrels_options_are_keyword_only(mini_corpus):
    index = build_index(mini_corpus)
    with pytest.raises(TypeError):
        build_qrels(mini_corpus, index, [], True)


def test_no_leakage_on_synthetic(small_synth):
    """Qrels only contain docs published before the query year."""
    _, corpus, _ = small_synth
    index = build_index(corpus)
    train, test_queries = chronological_split(corpus, 2016)
    years = np.asarray([corpus.get(d).year for d in index.doc_ids])
    by_query = {q.query_id: q for q in test_queries}
    for fallback in (False, True):
        qrels, _ = build_qrels(corpus, index, test_queries[:50],
                               bm25_fallback=fallback)
        for qid, relevant in qrels.items():
            q = by_query[qid]
            allowed = years < q.year
            retrievable = {index.doc_ids[o] for o in np.flatnonzero(allowed)}
            assert relevant <= retrievable


def _positives(corpus, q, relevant, cap=3):
    """The encoder's positives as ``train-dense`` picks them: cited first."""
    source = corpus.get(q.source_doc_id)
    cited = [r for r in source.references if r in relevant]
    return cited[:cap] if cited else sorted(relevant)[:cap]


def test_training_positives_match_the_union_rule(small_synth):
    """Every training query keeps the positives, and the drops, it had
    under the earlier union of citations and BM25 hits."""
    _, corpus, _ = small_synth
    index = build_index(corpus)
    train, _ = chronological_split(corpus, 2016)
    queries, _ = make_queries(corpus, train.ordinals)
    union = frozen_union_qrels(corpus, index, queries)
    qrels, dropped = build_qrels(corpus, index, queries, bm25_fallback=True)
    assert set(dropped) == {q.query_id for q in queries} - set(union)
    uncited = 0
    for q in queries:
        if q.query_id not in union:
            continue
        relevant = qrels.relevant(q.query_id)
        assert (_positives(corpus, q, relevant)
                == _positives(corpus, q, union[q.query_id])), q.query_id
        uncited += not set(corpus.get(q.source_doc_id).references) & relevant
    # both branches of the rule are taken
    assert 0 < uncited < len(union)
