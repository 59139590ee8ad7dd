import numpy as np
import pytest

from acadsearch.corpus.model import Corpus, Document
from acadsearch.errors import ConfigError, DataFormatError
from acadsearch.graph_baselines import CitationGraph, pagerank, pagerank_by_ordinal
from oracles import reference_pagerank


def pop_score(graph, ordinal):
    """In-degree of the document in the pre-cutoff citation graph."""
    if not graph.has(ordinal):
        raise KeyError(f"ordinal {ordinal} not in the citation graph")
    return int(graph.in_degree[graph.node_index(ordinal)])


def dump_scores(graph, scores, corpus, path):
    """`doc_id<TAB>score` lines for external inspection."""
    with open(path, "w", encoding="utf-8") as fh:
        for o, s in zip(graph.ordinals, scores):
            fh.write(f"{corpus.doc(int(o)).doc_id}\t{s:.10g}\n")


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
    graph = CitationGraph([0, 1, 2, 3], [(1, 0), (2, 0), (3, 0)])
    assert pop_score(graph, 0) == 3
    assert pop_score(graph, 1) == 0
    with pytest.raises(KeyError):
        pop_score(graph, 9)


def test_pop_handshake(small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2016)
    total = sum(pop_score(graph, int(o)) for o in graph.ordinals)
    assert total == len(graph.src)


def test_from_corpus_respects_cutoff(small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2010)
    years = [corpus.doc(int(o)).year for o in graph.ordinals]
    assert all(y < 2010 for y in years)
    full = CitationGraph.from_corpus(corpus)
    assert full.n > graph.n


def test_pagerank_by_ordinal_alignment(small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2012)
    by_ord = pagerank_by_ordinal(graph)
    scores = pagerank(graph)
    for i, o in enumerate(graph.ordinals[:20]):
        assert by_ord[int(o)] == pytest.approx(float(scores[i]))


def test_dump_scores(tmp_path, small_synth):
    _, corpus, _ = small_synth
    graph = CitationGraph.from_corpus(corpus, cutoff_year=2012)
    scores = pagerank(graph)
    path = tmp_path / "pr.tsv"
    dump_scores(graph, scores, corpus, path)
    lines = path.read_text().splitlines()
    assert len(lines) == graph.n
    doc_id, value = lines[0].split("\t")
    assert doc_id in corpus
    float(value)
