import math
import struct

import numpy as np
import pytest

from acadsearch.corpus import make_query
from acadsearch.errors import ConfigError, DataFormatError
from acadsearch.lexical_index import (BM25Params, build_index, load_index,
                                      retrieve_topk, save_index, score_all,
                                      tokenize)
from oracles import frozen_retrieve_topk, naive_bm25_score


def test_tokenize_examples():
    assert tokenize("BM25, okapi!") == ["bm25", "okapi"]
    assert tokenize("") == []
    assert tokenize("a-b c") == ["a", "b", "c"]


def test_build_index_single_doc():
    index = build_index([("d0", "x x y")])
    ords, tfs = index.postings["x"]
    assert list(ords) == [0] and list(tfs) == [2]
    ords, tfs = index.postings["y"]
    assert list(ords) == [0] and list(tfs) == [1]
    assert index.avg_doc_len == 3.0
    assert index.doc_count == 1


def test_build_index_identical_docs_symmetric():
    index = build_index([("d0", "a b"), ("d1", "a b")])
    for term in ("a", "b"):
        ords, tfs = index.postings[term]
        assert list(ords) == [0, 1]
        assert list(tfs) == [1, 1]


def test_build_index_empty_corpus_errors():
    with pytest.raises(DataFormatError):
        build_index([])


def test_bm25_hand_formula():
    """3-doc corpus from first principles, evaluated at 1e-12."""
    index = build_index([("d0", "a b"), ("d1", "a a b"), ("d2", "c")])
    k1, b = 0.9, 0.4
    n, avg = 3, 2.0
    idf_a = math.log(1 + (n - 2 + 0.5) / (2 + 0.5))
    for ordinal, tf, length in ((0, 1.0, 2), (1, 2.0, 3)):
        expected = idf_a * tf * (k1 + 1) / (tf + k1 * (1 - b + b * length / avg))
        got = score_all(index, ["a"], BM25Params(k1, b))[ordinal]
        assert got == pytest.approx(expected, abs=1e-12)
    assert score_all(index, ["a"])[2] == 0.0


def test_bm25_empty_query_and_symmetry():
    index = build_index([("d0", "x y"), ("d1", "y x")])
    assert score_all(index, ["zzz"]).tolist() == [0.0, 0.0]
    scores = score_all(index, ["x", "y"])
    assert scores[0] == pytest.approx(scores[1], abs=1e-15)


def test_bm25_duplicate_query_terms_double():
    index = build_index([("d0", "x y")])
    assert score_all(index, ["x", "x"])[0] == \
        pytest.approx(2 * score_all(index, ["x"])[0], abs=1e-12)


def test_df_matches_linear_scan(small_synth):
    _, corpus, _ = small_synth
    docs = [(d.doc_id, d.text()) for d in corpus.docs[:1000]]
    index = build_index(docs)
    rng = np.random.default_rng(0)
    terms = sorted(index.postings)
    for term in rng.choice(terms, size=50, replace=False):
        scan = sum(1 for _, text in docs if term in tokenize(text))
        assert index.df(term) == scan


def test_retrieve_topk_basics():
    index = build_index([("d0", "apple pie")])
    assert retrieve_topk(index, ["apple"], 1) == [(0, pytest.approx(
        score_all(index, ["apple"])[0]))]
    assert retrieve_topk(index, [], 5) == []
    assert retrieve_topk(index, ["banana"], 5) == []
    with pytest.raises(ConfigError):
        retrieve_topk(index, ["apple"], 0)


def _oracle_topk(index, tokens, k, params=None):
    """Exhaustive score-all-then-sort via the independent formula."""
    params = params or BM25Params()
    df = {t: index.df(t) for t in tokens}
    scored = []
    for ordinal in range(index.doc_count):
        tf_map = {}
        for t in set(tokens):
            entry = index.postings.get(t)
            if entry is None:
                continue
            ords, tfs = entry
            pos = np.searchsorted(ords, ordinal)
            if pos < len(ords) and ords[pos] == ordinal:
                tf_map[t] = int(tfs[pos])
        s = naive_bm25_score(tf_map, int(index.doc_lengths[ordinal]),
                             index.avg_doc_len, index.doc_count, df, tokens,
                             params.k1, params.b)
        if s > 0:
            scored.append((ordinal, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def test_retrieve_topk_matches_exhaustive_oracle(small_synth):
    _, corpus, _ = small_synth
    index = build_index([(d.doc_id, d.text()) for d in corpus.docs[:1000]])
    rng = np.random.default_rng(1)
    for i in rng.choice(1000, size=25, replace=False):
        tokens = tokenize(make_query(corpus.docs[i].title))
        got = retrieve_topk(index, tokens, 10)
        expected = _oracle_topk(index, tokens, 10)
        assert [o for o, _ in got] == [o for o, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-12)


def test_topk_is_prefix_of_full_ordering(small_synth):
    _, corpus, _ = small_synth
    index = build_index([(d.doc_id, d.text()) for d in corpus.docs[:500]])
    tokens = tokenize(corpus.docs[400].title)
    full = retrieve_topk(index, tokens, index.doc_count)
    for k in (1, 5, 50):
        assert retrieve_topk(index, tokens, k) == full[:k]


def test_allowed_mask_restricts_pool():
    index = build_index([("d0", "x"), ("d1", "x"), ("d2", "x")])
    allowed = np.array([True, False, True])
    hits = retrieve_topk(index, ["x"], 10, allowed=allowed)
    assert [o for o, _ in hits] == [0, 2]


def test_topk_ties_break_by_ascending_ordinal():
    # identical docs score identically; ordinal order decides
    index = build_index([("da", "x y"), ("db", "x y"), ("dc", "x y")])
    hits = retrieve_topk(index, ["x"], 2)
    assert [o for o, _ in hits] == [0, 1]
    assert hits[0][1] == hits[1][1]


def test_postings_sorted_by_ordinal(small_synth):
    _, corpus, _ = small_synth
    index = build_index([(d.doc_id, d.text()) for d in corpus.docs[:300]])
    for term, (ords, _) in index.postings.items():
        assert np.all(np.diff(ords) > 0)


def test_monotonic_in_tf():
    """More occurrences of a query term never lower the score."""
    prev = -1.0
    for tf in range(1, 8):
        docs = [("d0", " ".join(["x"] * tf) + " " + " ".join(["y"] * (8 - tf))),
                ("d1", "z z z z z z z z")]
        index = build_index(docs)
        score = score_all(index, ["x"])[0]
        assert score >= prev
        prev = score


def test_unrelated_doc_changes_nothing_with_stats_held_fixed():
    base_docs = [("d0", "x y z"), ("d1", "x x w")]
    index_a = build_index(base_docs)
    index_b = build_index(base_docs + [("d2", "q r s")])
    # freeze the collection statistics at index_a values
    index_b.doc_count = index_a.doc_count
    index_b.avg_doc_len = index_a.avg_doc_len
    for ordinal in (0, 1):
        for tokens in (["x"], ["x", "y"], ["w", "z"]):
            assert score_all(index_b, tokens)[ordinal] == pytest.approx(
                score_all(index_a, tokens)[ordinal], abs=1e-15)


def test_score_all_agrees_with_naive_oracle(small_synth):
    _, corpus, _ = small_synth
    index = build_index([(d.doc_id, d.text()) for d in corpus.docs[:300]])
    tokens = tokenize(corpus.docs[100].title) + ["unknownterm"]
    df = {t: index.df(t) for t in tokens}
    scores = score_all(index, tokens)
    rng = np.random.default_rng(2)
    for ordinal in rng.choice(300, size=40, replace=False):
        tf_map = {}
        for t in set(tokens):
            ords, tfs = index.postings.get(t, ([], []))
            if ordinal in ords:
                tf_map[t] = int(tfs[list(ords).index(ordinal)])
        expected = naive_bm25_score(tf_map, int(index.doc_lengths[ordinal]),
                                    index.avg_doc_len, index.doc_count, df,
                                    tokens)
        assert scores[ordinal] == pytest.approx(expected, abs=1e-12)


def _pairs_equal(got, expected):
    """``==`` on (int, float) pairs, after checking the element types."""
    assert all(type(o) is int and type(s) is float for o, s in got)
    return got == expected


def test_retrieve_topk_matches_frozen_full_sort_named_cases():
    # d0..d3 tie on "x"; d4, d5 score higher on "x"; d6 matches only "y"
    index = build_index([("d0", "x a"), ("d1", "x a"), ("d2", "x a"),
                         ("d3", "x a"), ("d4", "x x"), ("d5", "x x"),
                         ("d6", "y b"), ("d7", "c d")])
    cases = [
        (["x"], 3, None),                 # ties straddle place 3
        (["x"], 4, None),                 # ... and place 4
        (["x"], 2, None),                 # the kth score is a tie of two
        (["x"], 1, None),
        (["x"], 6, None),                 # k equals the number of matches
        (["x"], 50, None),                # k above it
        (["x", "y"], 7, None),
        (["x", "x", "y"], 3, None),       # duplicate term
        (["zzz", "x", "qqq"], 3, None),   # unknown terms around a known one
        (["zzz"], 5, None),               # no match
        ([], 5, None),
        (["x"], 2, np.array([1, 0, 1, 1, 0, 1, 1, 1], dtype=bool)),
        (["x"], 3, np.array([0, 1, 1, 1, 0, 0, 0, 1], dtype=bool)),
        (["x", "y"], 10, np.zeros(8, dtype=bool)),
        (["y"], 1, np.array([0, 0, 0, 0, 0, 0, 1, 0], dtype=bool)),
    ]
    for tokens, k, allowed in cases:
        got = retrieve_topk(index, tokens, k, allowed=allowed)
        expected = frozen_retrieve_topk(index, tokens, k, allowed=allowed)
        assert _pairs_equal(got, expected), (tokens, k, allowed)
    assert [o for o, _ in retrieve_topk(index, ["x"], 3)] == [4, 5, 0]


def test_retrieve_topk_matches_frozen_full_sort_on_corpus(small_synth):
    _, corpus, _ = small_synth
    index = build_index([(d.doc_id, d.text()) for d in corpus.docs])
    years = np.asarray([d.year for d in corpus.docs])
    rng = np.random.default_rng(4)
    params = [BM25Params(), BM25Params(0.9, 0.75), BM25Params(1.2, 0.75)]
    for i in rng.choice(len(corpus.docs), size=60, replace=False):
        tokens = tokenize(corpus.docs[i].title)
        # alternating parameters swap the contribution cache back and forth
        p = params[int(i) % len(params)]
        allowed = years < corpus.docs[i].year if i % 2 else None
        for k in (1, 7, 100, len(corpus.docs)):
            got = retrieve_topk(index, tokens, k, p, allowed=allowed)
            expected = frozen_retrieve_topk(index, tokens, k, p.k1, p.b,
                                            allowed=allowed)
            assert _pairs_equal(got, expected)


def test_contribution_cache_holds_at_most_one_value_per_posting(small_synth):
    """Scoring every term under two (k1, b) in turn keeps one f64 per
    posting and gives the scores a fresh index gives."""
    _, corpus, _ = small_synth
    docs = [(d.doc_id, d.text()) for d in corpus.docs[:300]]
    index = build_index(docs)
    terms = sorted(index.postings) + sorted(index.postings)[:10]
    score_all(index, terms)
    score_all(index, terms, BM25Params(1.2, 0.75))
    assert np.array_equal(score_all(index, terms),
                          score_all(build_index(docs), terms))
    cached = sum(len(c) for c in index._contrib[2].values())
    assert cached == sum(len(ords) for ords, _ in index.postings.values())


def test_snapshot_roundtrip(tmp_path, small_synth):
    _, corpus, _ = small_synth
    index = build_index([(d.doc_id, d.text()) for d in corpus.docs[:200]])
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_ids == index.doc_ids
    assert loaded.doc_count == index.doc_count
    assert loaded.avg_doc_len == index.avg_doc_len
    assert list(loaded.doc_lengths) == list(index.doc_lengths)
    assert sorted(loaded.postings) == sorted(index.postings)
    for term, (ords, tfs) in index.postings.items():
        lords, ltfs = loaded.postings[term]
        assert np.array_equal(ords, lords) and np.array_equal(tfs, ltfs)
    # second snapshot is byte-identical
    path2 = tmp_path / "index2.bin"
    save_index(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_index(path)


def test_every_prefix_of_a_snapshot_is_rejected(tmp_path):
    index = build_index([("d0", "graph retrieval"), ("dé1", "graph graph ünïcode"),
                         ("d2", "")])
    path = tmp_path / "index.bin"
    save_index(index, path)
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(DataFormatError, match="cut.bin: (truncated|not an)"):
            load_index(cut)
    cut.write_bytes(data + b"\x00")
    with pytest.raises(DataFormatError, match="cut.bin: 1 unexpected bytes"):
        load_index(cut)
    cut.write_bytes(data[:4] + struct.pack("<III", 1, 2**32 - 1, 3) + data[16:])
    with pytest.raises(DataFormatError, match="cut.bin: truncated"):
        load_index(cut)
    assert sorted(load_index(path).postings) == sorted(index.postings)
