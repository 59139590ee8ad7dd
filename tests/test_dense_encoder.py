import copy
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acadsearch.corpus import make_query
from acadsearch.dense_encoder import (_GATHER_TEXTS, _INIT_ROWS, _STEP_ROWS,
                                      DocEmbeddingStore, HashedBowEncoder,
                                      _encode_batch, _encoder_step, embed_corpus,
                                      load_embedding_matrix,
                                      load_precomputed_embeddings,
                                      save_embedding_matrix, train_encoder)
from acadsearch.errors import DataFormatError
from acadsearch.optim import AdamW
from oracles import (NaiveAdamW, central_difference, naive_encode_batch,
                     naive_encoder_step, relative_error, same_bits,
                     triplet_loss, triplet_loss_grads)

finite_vec = st.lists(st.floats(-5, 5), min_size=6, max_size=6).map(np.array)


def _settled(opt, table):
    """``table`` with every row ``opt`` lags settled, in a copy."""
    table = table.copy()
    copy.deepcopy(opt).settle(table)
    return table


@pytest.fixture
def encoder():
    return HashedBowEncoder(dim=16, buckets=512, seed=3)


def test_encode_single_token_is_normalized_bucket_row(encoder):
    vec = encoder.encode("hello")
    row = encoder.table[encoder.bucket("hello")]
    assert np.allclose(vec, row / np.linalg.norm(row), atol=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


def test_encode_empty_is_zero_flag(encoder):
    vec = encoder.encode("")
    assert not vec.any()


def test_encode_order_invariant(encoder):
    assert np.array_equal(encoder.encode("a b"), encoder.encode("b a"))


def test_triplet_loss_examples():
    q = np.array([0.0, 0.0])
    d_pos = np.array([0.1, 0.0])
    far = np.array([10.0, 0.0])
    # margin satisfied for every negative
    assert triplet_loss(q, d_pos, np.array([far]), margin=1.0) == 0.0
    # q = d+ = d-  ->  exactly the margin
    assert triplet_loss(q, q, np.array([q]), margin=1.0) == pytest.approx(1.0)


def test_triplet_loss_matches_direct_formula():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, dp = rng.normal(size=8), rng.normal(size=8)
        negs = rng.normal(size=(4, 8))
        expected = 0.0
        for neg in negs:
            expected += max(np.linalg.norm(q - dp) - np.linalg.norm(q - neg) + 1.0, 0.0)
        assert triplet_loss(q, dp, negs, 1.0) == pytest.approx(expected, abs=1e-12)


def test_triplet_loss_dimension_mismatch():
    with pytest.raises(ValueError):
        triplet_loss(np.zeros(3), np.zeros(4), np.zeros((1, 3)), 1.0)


def test_triplet_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 30:
        q, dp = rng.normal(size=6), rng.normal(size=6)
        negs = rng.normal(size=(3, 6))
        loss, gq, gp, gn = triplet_loss_grads(q, dp, negs, 1.0)
        hinges = (np.linalg.norm(q - dp) - np.linalg.norm(q[None] - negs, axis=1)
                  + 1.0)
        if np.any(np.abs(hinges) < 1e-3):
            continue
        checked += 1
        fn = lambda qq, dd, nn: triplet_loss(qq, dd, nn, 1.0)
        assert relative_error(central_difference(fn, [q, dp, negs], 0), gq) < 1e-4
        assert relative_error(central_difference(fn, [q, dp, negs], 1), gp) < 1e-4
        num_n = central_difference(fn, [q, dp, negs], 2)
        assert relative_error(num_n, gn) < 1e-4


@given(finite_vec, finite_vec, finite_vec)
@settings(max_examples=50)
def test_triplet_loss_nonnegative(q, dp, dn):
    assert triplet_loss(q, dp, np.array([dn]), 1.0) >= 0.0


@given(finite_vec, finite_vec, finite_vec, finite_vec)
@settings(max_examples=50)
def test_triplet_loss_translation_invariant(q, dp, dn, shift):
    a = triplet_loss(q, dp, np.array([dn]), 1.0)
    b = triplet_loss(q + shift, dp + shift, np.array([dn + shift]), 1.0)
    assert a == pytest.approx(b, abs=1e-9)


def test_dense_score_examples(encoder):
    """The dense score is the dot product of two encodings (their cosine)."""
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert float(np.dot(v, v)) == pytest.approx(1.0)
    assert float(np.dot(v, w)) == pytest.approx(0.0)
    a, b = encoder.encode("graph neural retrieval"), encoder.encode("retrieval of graphs")
    assert float(np.dot(a, b)) == pytest.approx(
        float(sum(x * y for x, y in zip(a, b))), abs=1e-12)
    assert float(np.dot(a, a)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.dot(a, encoder.encode(""))) == 0.0
    with pytest.raises(ValueError):
        np.dot(np.zeros(3), np.zeros(4))


def _pairs_and_texts(corpus, n=400):
    texts = [d.text() for d in corpus.docs]
    pairs = []
    for doc in corpus.docs[:n]:
        q = make_query(doc.title)
        if q and doc.references:
            pairs.append((q, corpus.ordinal(doc.references[0])))
    return pairs, texts


def test_train_encoder_zero_epochs_is_identity(encoder, small_synth):
    _, corpus, _ = small_synth
    pairs, texts = _pairs_and_texts(corpus, 50)
    before = encoder.table.copy()
    train_encoder(encoder, pairs, texts, epochs=0)
    assert np.array_equal(encoder.table, before)


def test_train_encoder_loss_decreases(small_synth):
    _, corpus, _ = small_synth
    pairs, texts = _pairs_and_texts(corpus)
    enc = HashedBowEncoder(dim=24, buckets=2048, seed=2)
    losses = train_encoder(enc, pairs, texts, epochs=3, batch_size=64, seed=9)
    assert losses[-1] < losses[0]


def test_train_encoder_deterministic(small_synth):
    _, corpus, _ = small_synth
    pairs, texts = _pairs_and_texts(corpus, 150)
    tables = []
    for _ in range(2):
        enc = HashedBowEncoder(dim=16, buckets=1024, seed=4)
        train_encoder(enc, pairs, texts, epochs=2, batch_size=32, seed=11)
        tables.append(enc.table.copy())
    assert np.array_equal(tables[0], tables[1])


def test_encoder_step_matches_unblocked_oracle(small_synth):
    """Touched-row gradients plus blocked AdamW equal the full-table step.

    The table lags in the rows no step has touched, so it is compared
    settled, in a copy, after every step.
    """
    _, corpus, _ = small_synth
    pairs, texts = _pairs_and_texts(corpus)
    # 5000 x 16 spans two AdamW blocks
    enc = HashedBowEncoder(dim=16, buckets=5000, seed=2)
    q_all = [enc.bucket_ids(q) for q, _ in pairs]
    p_all = [enc.bucket_ids(texts[o]) for _, o in pairs]
    empty = np.empty(0, dtype=np.int64)
    table, ref = enc.table.copy(), enc.table.copy()
    opt, ref_opt = (AdamW(table.shape, dtype=np.float32),
                    NaiveAdamW(table.shape, dtype=np.float32))
    rng = np.random.default_rng(5)
    for step in range(5):
        batch = rng.choice(len(pairs), size=24, replace=False)
        q_ids = [q_all[i] for i in batch]
        p_ids = [p_all[i] for i in batch]
        q_ids[0] = empty                           # an empty query text
        if step == 4:                              # nothing touched at all
            q_ids = p_ids = [empty] * 24
        loss = _encoder_step(table, q_ids, p_ids, 1.0, opt)
        ref_loss = naive_encoder_step(ref, q_ids, p_ids, 1.0, ref_opt)
        assert same_bits(np.float64(loss), np.float64(ref_loss))
        assert same_bits(_settled(opt, table), ref)
        assert same_bits(opt.m, ref_opt.m) and same_bits(opt.v, ref_opt.v)


@pytest.mark.parametrize("b", [2, _STEP_ROWS - 1, _STEP_ROWS, _STEP_ROWS + 1,
                               37, 128])
@pytest.mark.parametrize("regime", ["mixed", "none-active", "all-active"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_blocked_step_matches_whole_batch_oracle(b, regime, dtype):
    """Every batch size around the row block gives the whole-batch step.

    A float64 table keeps the last bits of the float64 gradient, which the
    float32 table's rounding can hide.
    """
    rng = np.random.default_rng(b)
    dim = 8
    enc = HashedBowEncoder(dim=dim, buckets=600, seed=9)
    q_ids = [rng.integers(0, 600, size=rng.integers(1, 6)) for _ in range(b)]
    p_ids = [rng.integers(0, 600, size=rng.integers(1, 40)) for _ in range(b)]
    margin = 1.0
    if regime == "mixed":
        q_ids[0] = np.empty(0, dtype=np.int64)          # an empty query text
        p_ids[-1] = p_ids[0].copy()                     # two equal positives
    elif regime == "none-active":
        # each query is its positive's text: every positive distance is 0,
        # and a distinct negative is farther than the tiny margin
        p_ids = [np.unique(ids) for ids in p_ids]
        q_ids = [ids.copy() for ids in p_ids]
        margin = 1e-9
    else:
        margin = 10.0                                    # unit vectors: dist <= 2
    table, ref = enc.table.astype(dtype), enc.table.astype(dtype)
    if regime == "all-active":
        vecs = naive_encode_batch(table, q_ids + p_ids)[0]
        dist = np.linalg.norm(vecs[:b, None] - vecs[None, b:], axis=2)
        assert np.all(np.diag(dist)[:, None] - dist + margin > 0.0)
    opt, ref_opt = (AdamW(table.shape, dtype=dtype),
                    NaiveAdamW(table.shape, dtype=dtype))
    for _ in range(2):
        loss = _encoder_step(table, q_ids, p_ids, margin, opt)
        ref_loss = naive_encoder_step(ref, q_ids, p_ids, margin, ref_opt)
        assert same_bits(np.float64(loss), np.float64(ref_loss))
        assert same_bits(_settled(opt, table), ref)
        assert same_bits(opt.m, ref_opt.m) and same_bits(opt.v, ref_opt.v)
        assert (loss == 0.0) == (regime == "none-active")


def test_trained_table_matches_its_recorded_digest():
    """A fixed small run's trained table, pinned bit for bit.

    The digest was recorded when every AdamW step still walked the whole
    table; an optimizer or step change must keep these bits. Most of the
    4096 buckets stay cold, and the cold row 0 holds a -0.0 and two
    subnormals. Each query has one to three positives.
    """
    rng = np.random.default_rng(21)
    words = [f"w{i}" for i in range(400)]
    texts = [" ".join(rng.choice(words, size=30)) for _ in range(200)]
    pairs = []
    for q in range(60):
        query = " ".join(rng.choice(words, size=3)) if q else ""
        pairs += [(query, int(o))
                  for o in rng.choice(200, size=1 + q % 3, replace=False)]
    enc = HashedBowEncoder(dim=8, buckets=4096, seed=5)
    assert 0 not in {enc.bucket(w) for w in words}
    enc.table[0, :3] = (-0.0, -1e-45, 1e-45)
    losses = train_encoder(enc, pairs, texts, epochs=3, lr=0.05,
                           batch_size=16, seed=8, weight_decay=0.3)
    assert len(losses) == 3
    assert np.signbit(enc.table[0, 0])
    assert hashlib.sha256(enc.table.tobytes()).hexdigest() == (
        "1ac5384a4e779f25c25840cfdf7a772415b2d5350aa6338693289677422f2b96")


@pytest.mark.parametrize("n_texts", [1, _GATHER_TEXTS - 1, _GATHER_TEXTS,
                                     _GATHER_TEXTS + 1, 3 * _GATHER_TEXTS + 5])
def test_chunked_gather_matches_whole_batch_oracle(n_texts):
    rng = np.random.default_rng(n_texts)
    table = rng.normal(size=(300, 6)).astype(np.float32)
    ids_list = [rng.integers(0, 300, size=rng.integers(0, 30))
                for _ in range(n_texts)]
    # empty texts on both sides of a chunk edge
    for i in (0, _GATHER_TEXTS - 1, _GATHER_TEXTS):
        if i < n_texts:
            ids_list[i] = np.empty(0, dtype=np.int64)
    got = _encode_batch(table, ids_list)
    want = naive_encode_batch(table, ids_list)
    for g, w in zip(got, want):
        assert same_bits(g, w)


@pytest.mark.parametrize("buckets", [1, _INIT_ROWS - 1, _INIT_ROWS + 1, 1 << 16])
def test_streamed_init_matches_one_draw(buckets):
    enc = HashedBowEncoder(dim=64, buckets=buckets, seed=7)
    rng = np.random.default_rng(7)
    one_draw = rng.normal(0.0, 1.0 / np.sqrt(64),
                          size=(buckets, 64)).astype(np.float32)
    assert same_bits(enc.table, one_draw)


def test_init_holds_no_float64_table():
    """The f32 table (16 MiB) plus one float64 chunk (2 MiB); a one-shot
    float64 draw took the peak to 48 MiB."""
    tracemalloc.start()
    try:
        HashedBowEncoder(dim=64, buckets=1 << 16, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_embed_corpus_matches_encode_text(encoder, small_synth):
    _, corpus, _ = small_synth
    docs = corpus.docs[:40]
    store = embed_corpus(encoder, docs)
    assert store.count == 40
    for i, doc in enumerate(docs):
        assert np.allclose(store.row(i), encoder.encode(doc.text()),
                           atol=1e-12)
    norms = np.linalg.norm(store.vectors[~store.empty_mask], axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)
    again = embed_corpus(encoder, docs)
    assert np.array_equal(store.vectors, again.vectors)


def test_embedding_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(7, 5))
    path = tmp_path / "m.bin"
    save_embedding_matrix(m, path)
    loaded = load_embedding_matrix(path)
    # one f32 quantization, then lossless
    path2 = tmp_path / "m2.bin"
    save_embedding_matrix(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert np.array_equal(loaded, load_embedding_matrix(path2))


def test_embedding_load_validation(tmp_path):
    m = np.eye(4, 3)
    path = tmp_path / "m.bin"
    save_embedding_matrix(m, path)
    with pytest.raises(DataFormatError, match="expected 9 rows, found 4"):
        load_embedding_matrix(path, expect_count=9)
    with pytest.raises(DataFormatError, match="dimension"):
        load_embedding_matrix(path, expect_dim=8)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="magic"):
        load_embedding_matrix(bad)
    # a header claiming 8 TiB of rows is refused before anything is allocated
    huge = tmp_path / "huge.bin"
    huge.write_bytes(b"EMBD" + struct.pack("<III", 1, 2**31, 2**10))
    with pytest.raises(DataFormatError, match="huge.bin: truncated"):
        load_embedding_matrix(huge, dtype=np.float32)


@pytest.mark.parametrize("kind", ["f32", "f64", "strided", "big-endian"])
def test_saved_bytes_are_the_f32_cast(tmp_path, kind):
    rng = np.random.default_rng(2)
    m = {"f32": rng.normal(size=(7, 5)).astype(np.float32),
         "f64": rng.normal(size=(7, 5)),
         "strided": rng.normal(size=(9, 10))[::2, ::3],
         "big-endian": rng.normal(size=(7, 5)).astype(">f8")}[kind]
    path = tmp_path / "m.bin"
    save_embedding_matrix(m, path)
    data = path.read_bytes()
    assert data[:4] == b"EMBD"
    assert data[16:] == m.astype("<f4").tobytes()


def test_float32_load_is_an_owned_copy(tmp_path):
    rng = np.random.default_rng(8)
    table = rng.normal(size=(33, 6)).astype(np.float32)
    path = tmp_path / "t.bin"
    save_embedding_matrix(table, path)
    loaded = load_embedding_matrix(path, dtype=np.float32)
    assert loaded.dtype == np.float32 and loaded.shape == (33, 6)
    assert loaded.flags.owndata and loaded.flags.writeable
    assert loaded.flags.c_contiguous
    assert same_bits(loaded, table)
    assert same_bits(load_embedding_matrix(path), table.astype(np.float64))
    enc = HashedBowEncoder.load(path)
    assert (enc.buckets, enc.dim) == (33, 6)
    assert same_bits(enc.table, table)
    enc.table[0] += 1.0                                  # trainable in place


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_prefix_of_an_embedding_file_is_rejected(tmp_path, dtype):
    path = tmp_path / "m.bin"
    save_embedding_matrix(np.arange(12.0).reshape(4, 3), path)
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(DataFormatError, match="cut.bin: (truncated|not an)"):
            load_embedding_matrix(cut, dtype=dtype)


def test_train_encoder_keeps_no_table_sized_gradient():
    """Traced peak of a full-size run stays below a table-sized extra array.

    AdamW's moments take 32 MiB for a 65536 x 64 f32 table, and the step's
    row-blocked temporaries a few MiB: about 36 MiB in all. Whole-batch
    (128, 128, 64) f64 temporaries took the peak to about 50 MiB, and a
    zero-filled table-sized gradient buffer besides to about 76 MiB.
    """
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(5000)]
    texts = [" ".join(rng.choice(words, size=60)) for _ in range(300)]
    pairs = [(" ".join(rng.choice(words, size=4)), i) for i in range(256)]
    enc = HashedBowEncoder(dim=64, buckets=1 << 16, seed=1)
    tracemalloc.start()
    try:
        train_encoder(enc, pairs, texts, epochs=1, batch_size=128, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_precomputed_store_renormalizes_and_warns(tmp_path, caplog):
    rows = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    path = tmp_path / "emb.bin"
    save_embedding_matrix(rows, path)
    with caplog.at_level("WARNING"):
        store = load_precomputed_embeddings(path)
    assert store.renormalized == 1
    assert "1 rows" in caplog.text
    assert np.allclose(store.row(0), [1.0, 0.0])
    assert store.empty_mask.tolist() == [False, False, True]


def test_store_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    store = DocEmbeddingStore(rng.normal(size=(6, 4)))
    path = tmp_path / "s.bin"
    store.save(path)
    loaded = load_precomputed_embeddings(path, expect_count=6, expect_dim=4)
    path2 = tmp_path / "s2.bin"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()
