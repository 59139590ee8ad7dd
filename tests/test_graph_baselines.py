import numpy as np
import pytest

from acadsearch.corpus.model import Corpus, Document
from acadsearch.errors import ConfigError, DataFormatError
from acadsearch.graph_baselines import (CitationGraph, pagerank,
                                        pagerank_by_ordinal,
                                        popularity_by_ordinal)
from oracles import reference_pagerank


def test_pagerank_complete_graph_uniform():
    edges = [(a, b) for a in range(4) for b in range(4) if a != b]
    graph = CitationGraph(list(range(4)), edges)
    scores = pagerank(graph, alpha=0.85)
    assert np.allclose(scores, 0.25, atol=1e-8)
    assert scores.sum() == pytest.approx(1.0, abs=1e-8)


def test_pagerank_chain_matches_reference():
    graph = CitationGraph([0, 1, 2], [(0, 1), (1, 2)])
    scores = pagerank(graph, alpha=0.85, tol=1e-12, max_iter=1000)
    expected = reference_pagerank(3, [(0, 1), (1, 2)], alpha=0.85)
    assert np.allclose(scores, expected, atol=1e-8)
    assert scores.sum() == pytest.approx(1.0, abs=1e-8)


def test_pagerank_random_graph_matches_reference():
    rng = np.random.default_rng(0)
    n = 30
    edges = list({(int(a), int(b)) for a, b in rng.integers(0, n, size=(150, 2))
                  if a != b})
    graph = CitationGraph(list(range(n)), edges)
    scores = pagerank(graph, tol=1e-12, max_iter=2000)
    expected = reference_pagerank(n, edges)
    assert np.allclose(scores, expected, atol=1e-8)


def test_pagerank_dangling_mass_conserved():
    # node 2 dangles; scores must still sum to 1
    graph = CitationGraph([0, 1, 2], [(0, 2), (1, 2)])
    scores = pagerank(graph)
    assert scores.sum() == pytest.approx(1.0, abs=1e-8)
    assert scores[2] > scores[0]


def test_pagerank_validation():
    graph = CitationGraph([0, 1], [(0, 1)])
    with pytest.raises(ConfigError):
        pagerank(graph, alpha=1.5)
    with pytest.raises(ConfigError):
        pagerank(graph, tol=0.0)
    with pytest.raises(DataFormatError):
        pagerank(CitationGraph([], []))


def test_graph_rejects_self_loops_and_foreign_edges():
    with pytest.raises(DataFormatError):
        CitationGraph([0, 1], [(0, 0)])
    with pytest.raises(DataFormatError):
        CitationGraph([0, 1], [(0, 5)])


def test_pop_score_examples():
    graph = CitationGraph([0, 2, 3, 5], [(2, 0), (3, 0), (5, 0), (0, 3)])
    pop = popularity_by_ordinal(graph, 8)
    assert pop.dtype == np.float64
    assert pop.tolist() == [3.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_pop_handshake(small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2016)
    pop = popularity_by_ordinal(graph, len(corpus))
    assert pop.sum() == len(graph.src)
    outside = np.ones(len(corpus), dtype=bool)
    outside[graph.ordinals] = False
    assert outside.any() and not pop[outside].any()


def test_from_corpus_respects_cutoff(small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2010)
    years = [corpus.doc(int(o)).year for o in graph.ordinals]
    assert all(y < 2010 for y in years)
    full = CitationGraph.from_corpus(corpus, max(corpus.years()) + 1)
    assert full.n > graph.n


def test_pagerank_by_ordinal_alignment(small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2012)
    by_ord = pagerank_by_ordinal(graph, len(corpus))
    scores = pagerank(graph)
    assert by_ord.shape == (len(corpus),)
    for i, o in enumerate(graph.ordinals):
        assert by_ord[int(o)] == scores[i]
    in_graph = set(graph.ordinals.tolist())
    assert all(by_ord[o] == 0.0 for o in range(len(corpus)) if o not in in_graph)
