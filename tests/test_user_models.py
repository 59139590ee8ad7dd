from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acadsearch.corpus.model import Author, Corpus, Document
from acadsearch.dense_encoder import DocEmbeddingStore
from acadsearch.kg_builder import KGConfig, build_catalog
from acadsearch.kg_embed import KGEmbeddings, KGTrainConfig, init_embeddings
from acadsearch.user_models import (AggregationMode, ChannelInputs,
                                    UserContext, attention_user_score,
                                    attention_weights, build_user_contexts,
                                    kg_user_score, kg_user_scores,
                                    mean_user_vector, self_citation_score,
                                    user_column)
from oracles import naive_attention_user_score, naive_kg_user_score


def _make_kg_embeddings():
    docs = [Document(f"d{i}", "t", "a", [f"u{i % 4}"], None, 2000 + i, [])
            for i in range(5)]
    authors = [Author(f"u{i}", None) for i in range(4)]
    corpus = Corpus(docs, authors)
    config = KGConfig(False, False)
    catalog = build_catalog(corpus, authors, config)
    rng = np.random.default_rng(0)
    store = DocEmbeddingStore(rng.normal(size=(5, 8)))
    emb = init_embeddings(catalog, store, KGTrainConfig(model="transe", seed=2))
    return emb


@pytest.fixture
def kg_embeddings():
    return _make_kg_embeddings()


@lru_cache(maxsize=1)
def _shared_kg_embeddings():
    """One instance for property tests, which must not modify it."""
    emb = _make_kg_embeddings()
    from acadsearch.kg_builder import EntityKind
    emb.entities[emb.catalog.ordinal(EntityKind.USER, "u3")] = 0.0
    return emb


def test_kg_user_score_self_similarity(kg_embeddings):
    [score], known = kg_user_scores(kg_embeddings, "u1", [["u1"]])
    assert known
    assert score == pytest.approx(1.0, abs=1e-9)


def test_kg_user_score_orthogonal_is_zero(kg_embeddings):
    from acadsearch.kg_builder import EntityKind
    cat = kg_embeddings.catalog
    u0 = cat.ordinal(EntityKind.USER, "u0")
    u1 = cat.ordinal(EntityKind.USER, "u1")
    kg_embeddings.entities[u0] = np.eye(8)[0]
    kg_embeddings.entities[u1] = np.eye(8)[1]
    for mode in AggregationMode:
        [score], known = kg_user_scores(kg_embeddings, "u0", [["u1"]], mode)
        assert known and score == pytest.approx(0.0, abs=1e-12)


def test_kg_user_score_max_matches_pairwise_oracle(kg_embeddings):
    from acadsearch.kg_builder import EntityKind
    cat = kg_embeddings.catalog
    q = kg_embeddings.entities[cat.ordinal(EntityKind.USER, "u0")]
    sims = []
    for u in ("u1", "u2", "u3"):
        v = kg_embeddings.entities[cat.ordinal(EntityKind.USER, u)]
        sims.append(float(np.dot(q, v) /
                          (np.linalg.norm(q) * np.linalg.norm(v))))
    [score], _ = kg_user_scores(kg_embeddings, "u0", [["u1", "u2", "u3"]],
                                AggregationMode.MAX)
    assert score == pytest.approx(max(sims), abs=1e-12)
    [mean_score], _ = kg_user_scores(kg_embeddings, "u0", [["u1", "u2", "u3"]],
                                     AggregationMode.MEAN)
    assert mean_score == pytest.approx(float(np.mean(sims)), abs=1e-12)


def test_kg_user_score_unknown_user_flagged(kg_embeddings):
    [score], known = kg_user_scores(kg_embeddings, "stranger", [["u1"]])
    assert score == 0.0 and not known


def test_kg_user_score_no_known_authors(kg_embeddings):
    [score], known = kg_user_scores(kg_embeddings, "u0", [["ghost1", "ghost2"]])
    assert score is None and known


def test_max_dominates_mean(kg_embeddings):
    rng = np.random.default_rng(3)
    for _ in range(30):
        authors = [f"u{int(rng.integers(4))}" for _ in range(3)]
        [hi], _ = kg_user_scores(kg_embeddings, "u0", [authors],
                                 AggregationMode.MAX)
        [lo], _ = kg_user_scores(kg_embeddings, "u0", [authors],
                                 AggregationMode.MEAN)
        assert hi >= lo - 1e-12
        assert -1.0 - 1e-9 <= lo <= hi <= 1.0 + 1e-9


def test_build_user_contexts_cutoff():
    docs = [Document("d0", "t", "a", ["u1", "u2"], None, 2000, []),
            Document("d1", "t", "a", ["u1"], None, 2010, []),
            Document("d2", "t", "a", ["u3"], None, 2020, [])]
    corpus = Corpus(docs)
    ctx = build_user_contexts(corpus, cutoff_year=2015)
    assert ctx["u1"].authored == [0, 1]
    assert ctx["u1"].coauthors == frozenset({"u2"})
    assert "u3" not in ctx
    assert "u1" not in ctx["u1"].coauthors


def test_mean_user_vector():
    rng = np.random.default_rng(4)
    store = DocEmbeddingStore(rng.normal(size=(6, 8)))
    one = UserContext("u", [2], frozenset())
    assert np.allclose(mean_user_vector(store, one), store.row(2), atol=1e-12)
    dup_store = DocEmbeddingStore(np.vstack([store.vectors[0]] * 3))
    same = UserContext("u", [0, 1, 2], frozenset())
    assert np.allclose(mean_user_vector(dup_store, same), dup_store.row(0),
                       atol=1e-12)
    five = UserContext("u", [0, 1, 2, 3, 4], frozenset())
    expected = store.vectors[:5].mean(axis=0)
    expected /= np.linalg.norm(expected)
    assert np.allclose(mean_user_vector(store, five), expected, atol=1e-12)
    assert mean_user_vector(store, UserContext("u", [], frozenset())) is None


def test_attention_weights_and_score():
    rng = np.random.default_rng(5)
    store = DocEmbeddingStore(rng.normal(size=(6, 8)))
    q = rng.normal(size=8)
    q /= np.linalg.norm(q)
    one = UserContext("u", [3], frozenset())
    w = attention_weights(q, one, store)
    assert np.allclose(w, [1.0])
    assert attention_user_score(q, one, store, [5]) == pytest.approx(
        [float(np.dot(store.row(3), store.row(5)))], abs=1e-12)

    ctx = UserContext("u", [0, 1, 2, 4], frozenset())
    w = attention_weights(q, ctx, store)
    logits = store.vectors[[0, 1, 2, 4]] @ q / np.sqrt(8)
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(w, expected, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_attention_identical_docs_ignore_query():
    store = DocEmbeddingStore(np.vstack([np.eye(8)[0]] * 4 + [np.eye(8)[1]]))
    ctx = UserContext("u", [0, 1, 2, 3], frozenset())
    for seed in (0, 1):
        q = np.random.default_rng(seed).normal(size=8)
        [score] = attention_user_score(q, ctx, store, [4])
        assert score == pytest.approx(0.0, abs=1e-12)


def test_attention_empty_context_falls_back():
    store = DocEmbeddingStore(np.eye(4))
    assert attention_user_score(np.ones(4), UserContext("u", [], frozenset()),
                                store, [0, 1]) == [0.0, 0.0]


def test_self_citation():
    ctx = UserContext("u1", [0], frozenset({"u2"}))
    scores = self_citation_score(ctx, [["u1", "ux"], ["u2"], ["u9"], []])
    assert scores.dtype == np.float64
    assert scores.tolist() == [1.0, 1.0, 0.0, 0.0]
    corpus = Corpus([Document("d0", "t", "a", ["u1"], None, 2000, [])])
    inputs = ChannelInputs(corpus, AggregationMode.MAX, "cosine",
                           contexts={"u1": ctx})
    unknown = {"user_id": "u9", "text": "t", "ordinals": [0]}
    assert user_column("selfcite", inputs, unknown).tolist() == [0.0]


def test_negative_l2_metric_flag(kg_embeddings):
    from acadsearch.kg_builder import EntityKind
    cat = kg_embeddings.catalog
    q = kg_embeddings.entities[cat.ordinal(EntityKind.USER, "u0")]
    v = kg_embeddings.entities[cat.ordinal(EntityKind.USER, "u1")]
    [score], known = kg_user_scores(kg_embeddings, "u0", [["u1"]],
                                    metric="neg_l2")
    assert known
    assert score == pytest.approx(-float(np.linalg.norm(q - v)), abs=1e-12)
    with pytest.raises(ValueError):
        kg_user_scores(kg_embeddings, "u0", [["u1"]], metric="manhattan")


def test_missing_user_constant_channel_neutrality():
    """A constant user column yields the same ranking as dropping the channel."""
    from acadsearch.fusion_eval import CandidateList, Lambdas, fuse
    rng = np.random.default_rng(7)
    doc_ids = [f"d{i:02d}" for i in range(30)]
    base = rng.normal(size=(30, 2))
    constant_user = np.column_stack([base, np.full(30, 0.42)])
    with_user = fuse(Lambdas(0.4, 0.4, 0.2), CandidateList("q", doc_ids,
                                                           constant_user))
    zero_user = np.column_stack([base, np.zeros(30)])
    without = fuse(Lambdas(0.5, 0.5, 0.0), CandidateList("q", doc_ids,
                                                         zero_user))
    assert [d for d, _ in with_user] == [d for d, _ in without]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["u0", "u1", "u3", "stranger"]),
       st.lists(st.lists(st.sampled_from(["u0", "u1", "u2", "u3", "ghost"]),
                         max_size=4), max_size=8),
       st.sampled_from(list(AggregationMode)),
       st.sampled_from(["cosine", "neg_l2"]))
def test_kg_user_scores_match_per_candidate_oracle(query_user, author_lists,
                                                   mode, metric):
    """Scoring a query's candidates at once equals scoring each alone,
    including unknown, repeated and zero-vector (u3) authors."""
    from acadsearch.kg_builder import EntityKind
    emb = _shared_kg_embeddings()
    vectors = {u: emb.entities[emb.catalog.ordinal(EntityKind.USER, u)]
               for u in ("u0", "u1", "u2", "u3")}
    expected = [naive_kg_user_score(vectors, query_user, authors,
                                    mode == AggregationMode.MAX, metric)
                for authors in author_lists]
    scores, known = kg_user_scores(emb, query_user, author_lists, mode, metric)
    assert known == (query_user in vectors)
    if known:
        assert scores == [score for score, _ in expected]
    else:
        assert scores == [0.0] * len(author_lists)
    for authors, (score, was_known) in zip(author_lists, expected):
        assert kg_user_score(emb, query_user, authors, mode, metric) == (
            score, was_known)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 6),
       st.data())
def test_attention_user_score_matches_per_candidate_oracle(seed, n_docs, dim,
                                                           data):
    """One profile per query gives every candidate the per-candidate score,
    including empty contexts, zero rows and cancelling profiles."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n_docs, dim))
    vectors[rng.random(n_docs) < 0.2] = 0.0
    store = DocEmbeddingStore(vectors)
    ordinals = st.integers(0, n_docs - 1)
    authored = data.draw(st.lists(ordinals, max_size=5))
    candidates = data.draw(st.lists(ordinals, max_size=10))
    q_vec = rng.normal(size=dim)
    ctx = UserContext("u", authored, frozenset())
    expected = [naive_attention_user_score(q_vec, store.vectors[authored],
                                           store.vectors[o])
                for o in candidates]
    assert attention_user_score(q_vec, ctx, store, candidates) == expected
