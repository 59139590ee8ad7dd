import hashlib
from bisect import bisect_left

import numpy as np
import pytest

from acadsearch.corpus import (SynthConfig, generate_synthetic, save_authors,
                               save_corpus)
from acadsearch.corpus.synth import _Vocab
from acadsearch.lexical_index import tokenize

# the 1,200-document corpus of the benchmark's ``bench`` scale
BENCH_SYNTH = SynthConfig(n_docs=1200, n_authors=120, n_venues=12,
                          n_affiliations=30, n_topics=8, n_subtopics=8,
                          vocab_size=1600)


def _file_digests(tmp_path, corpus, authors):
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    save_authors(authors, tmp_path / "authors.jsonl")
    return tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("corpus.jsonl", "authors.jsonl"))


def test_golden_digest_small_config(tmp_path, small_synth):
    """The generator's draws, their order and arguments, are pinned.

    Any edit that adds, drops, reorders or re-batches a draw changes these
    bytes; a speed-up of the generator must leave them as they are.
    """
    _, corpus, authors = small_synth
    assert _file_digests(tmp_path, corpus, authors) == (
        "53536965452df37f0f002c0bcb16a87396fb70a3b72ae959ee07034864aef341",
        "2e065cdb902990759556522920e7010e7c0c170ab273672bdb09096d5ca0f3fa")


def test_golden_digest_bench_config(tmp_path):
    corpus, authors = generate_synthetic(BENCH_SYNTH, seed=7)
    assert _file_digests(tmp_path, corpus, authors) == (
        "f219d7996d99e3b245e5a99df18380ac2402ef122e467bd26ffe649a6a776731",
        "166fa31e3962050d670ca64b2ed01ba55dfa0301c1b1381e237c0c265cddbc81")


@pytest.mark.parametrize("cfg, digests", [
    # one word per subtopic block: the second dialect falls back to it
    pytest.param(SynthConfig(n_docs=300, n_authors=20, n_venues=3,
                             n_affiliations=4, n_topics=1, n_subtopics=2,
                             vocab_size=4, shared_vocab_frac=0.0),
                 ("5b696cb98994d990fc5d41f9a43bb6ca0dd5fe306cc7a0a51eb32b5dd82afdbf",
                  "f17e385f9e00a9640fb22a5a16fa7285608d2c536a9a2b46ada2add31e38b04f"),
                 id="short-synonym-pair"),
    # no bylines: references come from the same-subtopic and uniform pools
    pytest.param(SynthConfig(n_docs=400, n_authors=50, n_venues=5,
                             n_affiliations=6, n_topics=3, vocab_size=300,
                             authorless_prob=1.0),
                 ("209ec481a9c2bdd44bd05686da61fcf60c3e8341e42e41c48e2d226e054ea4a4",
                  "98863f49bf9399d160c083cfce546c3b7fce25503b7f4cd06a4c1a3e6d740c7c"),
                 id="authorless"),
])
def test_golden_digest_edge_configs(tmp_path, cfg, digests):
    corpus, authors = generate_synthetic(cfg, seed=0)
    assert _file_digests(tmp_path, corpus, authors) == digests


def test_vocab_cdf_bisect_matches_searchsorted():
    """Zipf draws bisect a list copy of each CDF; at every edge value of u
    the index must be the one ``np.searchsorted`` gives on the array."""
    vocab = _Vocab(np.random.default_rng(3), BENCH_SYNTH)
    for cdf in (vocab.shared_cdf, vocab.topic_cdf, vocab.concept_cdf):
        assert all(type(c) is float for c in cdf) and cdf[-1] == 1.0
        arr = np.asarray(cdf)
        us = [0.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(1.0, 0.0))]
        for c in cdf:
            us += [c, float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))]
        for u in us:
            assert bisect_left(cdf, u) == int(np.searchsorted(arr, u))


def test_determinism_byte_identical(tmp_path, small_synth):
    cfg, corpus, _ = small_synth
    corpus2, _ = generate_synthetic(cfg, seed=13)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(corpus, p1)
    save_corpus(corpus2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_differs(small_synth):
    cfg, corpus, _ = small_synth
    corpus2, _ = generate_synthetic(cfg, seed=14)
    assert any(a.title != b.title for a, b in zip(corpus.docs, corpus2.docs))


def test_single_topic_shares_vocabulary():
    cfg = SynthConfig(n_docs=50, n_authors=10, n_venues=2, n_affiliations=3,
                      n_topics=1, n_subtopics=2, vocab_size=200)
    corpus, _ = generate_synthetic(cfg, seed=1)
    assert set(corpus.extras["doc_topics"]) == {0}


def test_structure_invariants(small_synth):
    _, corpus, authors = small_synth
    known_authors = {a.author_id for a in authors}
    for doc in corpus:
        assert doc.doc_id not in doc.references
        title_len = len(tokenize(doc.title))
        assert 5 <= title_len <= 12
        assert 50 <= len(tokenize(doc.abstract)) <= 150
        assert len(doc.author_ids) <= 3
        assert all(a in known_authors for a in doc.author_ids)
        for ref in doc.references:
            assert ref in corpus
            assert corpus.get(ref).year < doc.year


def test_years_sorted_and_in_range(small_synth):
    cfg, corpus, _ = small_synth
    years = corpus.years()
    assert years == sorted(years)
    assert min(years) >= cfg.year_min and max(years) <= cfg.year_max


def test_authors_have_affiliations(small_synth):
    _, _, authors = small_synth
    assert all(a.affiliation_id is not None for a in authors)


def test_citations_prefer_same_topic(small_synth):
    """Within-topic citation mass should dominate cross-topic mass."""
    _, corpus, _ = small_synth
    topics = corpus.extras["doc_topics"]
    same = cross = 0
    for doc in corpus:
        t = topics[corpus.ordinal(doc.doc_id)]
        for ref in doc.references:
            if topics[corpus.ordinal(ref)] == t:
                same += 1
            else:
                cross += 1
    assert same > cross


def test_default_config_topic_citation_dominance():
    """At the default scale, within-topic citation mass dominates."""
    corpus, _ = generate_synthetic(SynthConfig(), seed=7)
    topics = corpus.extras["doc_topics"]
    same = cross = 0
    for doc in corpus:
        t = topics[corpus.ordinal(doc.doc_id)]
        for ref in doc.references:
            if topics[corpus.ordinal(ref)] == t:
                same += 1
            else:
                cross += 1
    assert same > cross


def test_personalization_signal_exists(small_synth):
    """References hit the team's own affiliations far above chance."""
    cfg, corpus, authors = small_synth
    aff_of = {a.author_id: a.affiliation_id for a in authors}
    hits = total = 0
    for doc in corpus:
        team_affs = {aff_of[a] for a in doc.author_ids}
        if not team_affs:
            continue
        for ref in doc.references:
            ref_affs = {aff_of[a] for a in corpus.get(ref).author_ids}
            total += 1
            if team_affs & ref_affs:
                hits += 1
    assert total > 0
    assert hits / total > 3.0 / cfg.n_affiliations
