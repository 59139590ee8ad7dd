"""Thread-mode contracts: pure paths are bit-identical across thread counts."""
import numpy as np

from acadsearch.corpus import make_query
from acadsearch.dense_encoder import HashedBowEncoder, embed_corpus, train_encoder
from acadsearch.kg_builder import KGConfig, build_catalog, build_kg
from acadsearch.kg_embed import KGTrainConfig, train_kg


def _pairs(corpus, n=200):
    texts = [d.text() for d in corpus.docs]
    pairs = []
    for doc in corpus.docs[:n]:
        q = make_query(doc.title)
        if q and doc.references:
            pairs.append((q, corpus.ordinal(doc.references[0])))
    return pairs, texts


def test_embed_corpus_threads_identical(small_synth):
    _, corpus, _ = small_synth
    enc = HashedBowEncoder(dim=16, buckets=1024, seed=5)
    one = embed_corpus(enc, corpus.docs[:200], threads=1)
    four = embed_corpus(enc, corpus.docs[:200], threads=4)
    assert np.array_equal(one.vectors, four.vectors)


def test_train_encoder_threads_identical(small_synth):
    _, corpus, _ = small_synth
    pairs, texts = _pairs(corpus)
    tables = []
    for threads in (1, 3):
        enc = HashedBowEncoder(dim=16, buckets=1024, seed=6)
        train_encoder(enc, pairs, texts, epochs=2, batch_size=32, seed=8,
                      threads=threads)
        tables.append(enc.table.copy())
    assert np.array_equal(tables[0], tables[1])


def test_train_kg_threads_identical(small_synth):
    _, corpus, authors = small_synth
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    view = corpus.view([i for i, d in enumerate(corpus.docs) if d.year < 2014])
    triples = build_kg(view, authors, catalog, config)
    enc = HashedBowEncoder(dim=16, buckets=1024, seed=0)
    store = embed_corpus(enc, corpus.docs)
    results = []
    for threads in (1, 2):
        # 2048-row batches span four row blocks of the KG step
        tc = KGTrainConfig(model="transh", epochs=3, batch_size=2048, seed=4)
        emb = train_kg(triples, store, catalog, tc, threads=threads)
        results.append(emb.entities.copy())
    assert np.array_equal(results[0], results[1])
