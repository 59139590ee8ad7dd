import numpy as np
import pytest

from acadsearch.corpus.model import Author, Corpus, Document
from acadsearch.dense_encoder import DocEmbeddingStore, HashedBowEncoder, embed_corpus
from acadsearch.errors import ConfigError, DataFormatError
from acadsearch.kg_builder import (EntityCatalog, EntityKind, KGConfig,
                                   RelationType, Triple, build_catalog, build_kg)
from acadsearch.kg_embed import (_REL_INDEX, N_RELATIONS, KGEmbeddings,
                                 KGTrainConfig, _corrupt_batch,
                                 _corruption_ranges, _kg_step, encode_triples,
                                 init_embeddings,
                                 load_kg_embeddings, save_kg_embeddings,
                                 train_kg, transh_constraint_grads)
from acadsearch.optim import AdamW
from oracles import (NaiveAdamW, central_difference, entity_vector,
                     heldout_split, link_prediction_mean_rank, naive_kg_step,
                     relative_error, same_bits,
                     transe_pair_grads, transe_score, transh_pair_grads,
                     transh_project, transh_score, triple_score)


def test_transe_score_examples():
    h = np.array([1.0, 0.0])
    r = np.array([0.0, 1.0])
    assert transe_score(h, r, h + r) == 0.0
    assert transe_score(h, r, np.zeros(2)) == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(0)
    a, b, c = rng.normal(size=(3, 64))
    expected = float(np.sqrt(sum((x + y - z) ** 2 for x, y, z in zip(a, b, c))))
    assert transe_score(a, b, c) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        transe_score(np.zeros(3), np.zeros(4), np.zeros(3))


def test_transh_project_examples():
    w = np.array([1.0, 0.0, 0.0])
    v_perp = np.array([0.0, 2.0, 1.0])
    assert np.allclose(transh_project(v_perp, w), v_perp)
    v_par = np.array([3.0, 0.0, 0.0])
    assert np.allclose(transh_project(v_par, w), np.zeros(3))
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.normal(size=8)
        w /= np.linalg.norm(w)
        v = rng.normal(size=8)
        assert abs(np.dot(w, transh_project(v, w))) < 1e-10
    with pytest.raises(ValueError, match="unit"):
        transh_project(np.ones(3), np.ones(3))


def test_transh_score_examples():
    w = np.array([0.0, 0.0, 1.0])
    h = np.array([1.0, 0.0, 0.0])
    dr = np.array([0.0, 1.0, 0.0])
    t = h + dr
    assert transh_score(h, t, w, dr) == pytest.approx(0.0)
    assert transh_score(h, h, w, np.zeros(3)) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.normal(size=6)
        w /= np.linalg.norm(w)
        h, t, dr = rng.normal(size=(3, 6))
        composed = float(np.linalg.norm(
            transh_project(h, w) + dr - transh_project(t, w)))
        assert transh_score(h, t, w, dr) == pytest.approx(composed, abs=1e-12)


def _loss_transe(h, r, t, hn, tn):
    return transe_pair_grads(h, r, t, hn, tn, 1.0)[0]


def _loss_transh(h, t, hn, tn, w, dr):
    return transh_pair_grads(h, t, hn, tn, w, dr, 1.0)[0]


def test_transe_pair_gradients():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 25:
        h, r, t, hn, tn = rng.normal(size=(5, 6))
        loss, grads = transe_pair_grads(h, r, t, hn, tn, 1.0)
        hinge = 1.0 + np.linalg.norm(h + r - t) - np.linalg.norm(hn + r - tn)
        if abs(hinge) < 1e-3:
            continue
        checked += 1
        args = [h, r, t, hn, tn]
        for k, name in enumerate(("h", "r", "t", "hn", "tn")):
            num = central_difference(_loss_transe, args, k)
            assert relative_error(num, grads[name]) < 1e-4


def test_transh_pair_gradients_including_projection():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 25:
        h, t, hn, tn, dr = rng.normal(size=(5, 6))
        w = rng.normal(size=6)
        w /= np.linalg.norm(w)
        loss, grads = transh_pair_grads(h, t, hn, tn, w, dr, 1.0)
        if loss <= 1e-3:
            continue
        checked += 1
        args = [h, t, hn, tn, w, dr]
        for k, name in enumerate(("h", "t", "hn", "tn", "w", "dr")):
            num = central_difference(_loss_transh, args, k)
            assert relative_error(num, grads[name]) < 1e-4


def test_transh_constraint_gradients():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.normal(size=6)
        w /= np.linalg.norm(w)
        dr = rng.normal(size=6)
        val, gw, gdr = transh_constraint_grads(w, dr, 0.25, 1e-3)
        if val <= 1e-6:
            continue
        fn_w = lambda ww, dd: transh_constraint_grads(ww, dd, 0.25, 1e-3)[0]
        assert relative_error(central_difference(fn_w, [w, dr], 0), gw) < 1e-4
        assert relative_error(central_difference(fn_w, [w, dr], 1), gdr) < 1e-4


@pytest.fixture
def tiny_kg():
    docs = [Document(f"d{i}", f"title {i}", "abstract text", [f"u{i % 3}"],
                     "v0", 2000 + i, [f"d{j}" for j in range(max(0, i - 2), i)])
            for i in range(6)]
    authors = [Author(f"u{i}", f"a{i % 2}") for i in range(3)]
    corpus = Corpus(docs, authors)
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    triples = build_kg(corpus.view(range(6)), authors, catalog, config)
    rng = np.random.default_rng(0)
    store = DocEmbeddingStore(rng.normal(size=(6, 8)))
    return corpus, catalog, triples, store


def _corrupt(batch, known, catalog, rows, seed):
    """``rows`` draws of the training sampler, cycling through ``batch``,
    against the known triples ``known``; heads, tails, corruptions, valid."""
    def arrays(triples):
        return (np.asarray([t.head for t in triples], dtype=np.int64),
                np.asarray([_REL_INDEX[t.relation] for t in triples],
                           dtype=np.int64),
                np.asarray([t.tail for t in triples], dtype=np.int64))
    codes = np.sort(encode_triples(*arrays(known), catalog.total))
    h, r, t = (a[np.arange(rows) % len(batch)] for a in arrays(batch))
    nh, nt, valid = _corrupt_batch(np.random.default_rng(seed), h, r, t,
                                   _corruption_ranges(catalog), catalog.total,
                                   codes)
    return h, r, t, nh, nt, valid, codes


def test_sample_negative_type_and_cwa(tiny_kg):
    _, catalog, triples, _ = tiny_kg
    from acadsearch.kg_builder import RELATION_SIGNATURE
    h, r, t, nh, nt, valid, codes = _corrupt(triples, triples, catalog, 4000, 6)
    # wrote/cited triples always have a valid corruption in this graph
    easy = np.isin(r, [_REL_INDEX[RelationType.WROTE],
                       _REL_INDEX[RelationType.CITED]])
    assert valid[easy].all()
    assert not np.isin(encode_triples(nh, r, nt, catalog.total)[valid], codes).any()
    relations = {i: rel for rel, i in _REL_INDEX.items()}
    for row in np.flatnonzero(valid):
        hk, tk = RELATION_SIGNATURE[relations[r[row]]]
        assert catalog.entity(int(nh[row]))[0] == hk
        assert catalog.entity(int(nt[row]))[0] == tk


def test_sample_negative_saturated_relation_fails(tiny_kg):
    # every user published in the only venue, so no corruption is valid
    _, catalog, triples, _ = tiny_kg
    in_venue = [t for t in triples if t.relation == RelationType.IN_VENUE]
    assert in_venue
    *_, valid, _ = _corrupt(in_venue, triples, catalog, 50, 16)
    assert not valid.any()


def test_sample_negative_exhaustion():
    catalog = EntityCatalog({EntityKind.USER: ["u1"], EntityKind.VENUE: ["v1"]})
    triple = Triple(catalog.ordinal(EntityKind.USER, "u1"),
                    RelationType.IN_VENUE,
                    catalog.ordinal(EntityKind.VENUE, "v1"))
    *_, valid, _ = _corrupt([triple], [triple], catalog, 5, 7)
    assert not valid.any()


def test_sample_negative_head_tail_balance(tiny_kg):
    _, catalog, triples, _ = tiny_kg
    wrote = [t for t in triples if t.relation == RelationType.WROTE]
    h, _, _, nh, _, valid, _ = _corrupt(wrote, triples, catalog, 10000, 8)
    assert valid.sum() >= 9900
    assert abs((nh != h)[valid].mean() - 0.5) < 0.02


def test_zero_epoch_training_is_initialization(tiny_kg):
    _, catalog, triples, store = tiny_kg
    config = KGTrainConfig(model="transe", epochs=0, seed=5)
    emb = train_kg(triples, store, catalog, config)
    lo, hi = emb.frozen_range
    assert np.array_equal(emb.entities[lo:hi], store.vectors)
    trainable = np.vstack([emb.entities[:lo], emb.entities[hi:]])
    assert np.allclose(np.linalg.norm(trainable, axis=1), 1.0, atol=1e-9)
    again = train_kg(triples, store, catalog, config)
    assert np.array_equal(emb.entities, again.entities)


def test_frozen_rows_bitwise_after_training(tiny_kg):
    _, catalog, triples, store = tiny_kg
    for model in ("transe", "transh"):
        config = KGTrainConfig(model=model, epochs=5, batch_size=8, seed=3)
        emb = train_kg(triples, store, catalog, config)
        lo, hi = emb.frozen_range
        assert np.array_equal(emb.entities[lo:hi], store.vectors)
        # trainable rows actually moved
        assert not np.array_equal(
            emb.entities[:lo],
            train_kg(triples, store, catalog,
                     KGTrainConfig(model=model, epochs=0, seed=3)).entities[:lo])


def test_training_loss_decreases(small_synth):
    _, corpus, authors = small_synth
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    view = corpus.view([i for i, d in enumerate(corpus.docs) if d.year < 2016])
    triples = build_kg(view, authors, catalog, config)
    enc = HashedBowEncoder(dim=16, buckets=1024, seed=0)
    store = embed_corpus(enc, corpus.docs)
    tc = KGTrainConfig(model="transe", epochs=6, batch_size=1024, seed=1)
    emb = train_kg(triples, store, catalog, tc)
    assert emb.epoch_losses[-1] < emb.epoch_losses[0]


def test_transh_normals_unit_every_epoch(tiny_kg):
    _, catalog, triples, store = tiny_kg
    config = KGTrainConfig(model="transh", epochs=6, batch_size=8, seed=2)
    emb = train_kg(triples, store, catalog, config)
    assert len(emb.normal_deviations) == 6
    assert max(emb.normal_deviations) < 1e-6


def test_trainable_rows_respect_norm_cap(tiny_kg):
    _, catalog, triples, store = tiny_kg
    config = KGTrainConfig(model="transe", epochs=4, batch_size=8, seed=9)
    emb = train_kg(triples, store, catalog, config)
    lo, hi = emb.frozen_range
    for block in (emb.entities[:lo], emb.entities[hi:]):
        if block.shape[0]:
            assert np.all(np.linalg.norm(block, axis=1) <= 1.0 + 1e-6)


def test_train_kg_validation_errors(tiny_kg):
    _, catalog, triples, store = tiny_kg
    bad_store = DocEmbeddingStore(np.ones((3, 8)))
    with pytest.raises(ConfigError, match="document"):
        train_kg(triples, bad_store, catalog, KGTrainConfig(epochs=0))


def test_entity_vector_flags(tiny_kg):
    _, catalog, triples, store = tiny_kg
    emb = train_kg(triples, store, catalog, KGTrainConfig(model="transe", epochs=0))
    vec, frozen = entity_vector(emb, EntityKind.DOCUMENT, "d0")
    assert frozen
    assert np.array_equal(vec, store.vectors[0])
    vec, frozen = entity_vector(emb, EntityKind.USER, "u0")
    assert not frozen
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(KeyError):
        entity_vector(emb, EntityKind.USER, "ghost")


def test_kg_embedding_roundtrip(tmp_path, tiny_kg):
    _, catalog, triples, store = tiny_kg
    for model in ("transe", "transh"):
        emb = train_kg(triples, store, catalog,
                       KGTrainConfig(model=model, epochs=2, batch_size=8, seed=4))
        bin_path = tmp_path / f"{model}.bin"
        man_path = tmp_path / f"{model}.txt"
        save_kg_embeddings(emb, bin_path, man_path)
        loaded = load_kg_embeddings(bin_path, man_path, catalog)
        assert loaded.model == model
        assert loaded.frozen_range == emb.frozen_range
        # one f32 quantization, then stable
        bin2 = tmp_path / f"{model}2.bin"
        save_kg_embeddings(loaded, bin2, tmp_path / f"{model}2.txt")
        assert bin_path.read_bytes() == bin2.read_bytes()
        # relation vectors round-trip exactly through the text manifest
        assert np.array_equal(loaded.rel_translations, emb.rel_translations)
        if model == "transh":
            assert np.array_equal(loaded.rel_normals, emb.rel_normals)
        score_before = triple_score(emb, triples[0])
        assert triple_score(loaded, triples[0]) == pytest.approx(score_before,
                                                                  rel=1e-6)


def test_kg_manifest_catalog_mismatch(tmp_path, tiny_kg):
    corpus, catalog, triples, store = tiny_kg
    emb = train_kg(triples, store, catalog, KGTrainConfig(model="transe", epochs=0))
    bin_path, man_path = tmp_path / "e.bin", tmp_path / "e.txt"
    save_kg_embeddings(emb, bin_path, man_path)
    other = EntityCatalog({EntityKind.USER: ["u0"], EntityKind.DOCUMENT: ["d0"]})
    with pytest.raises(DataFormatError):
        load_kg_embeddings(bin_path, man_path, other)


@pytest.mark.parametrize("model", ["transe", "transh"])
def test_every_prefix_of_a_kg_manifest_is_rejected(tmp_path, tiny_kg, model):
    _, catalog, triples, store = tiny_kg
    emb = train_kg(triples, store, catalog, KGTrainConfig(model=model, epochs=0))
    bin_path, man_path = tmp_path / "e.bin", tmp_path / "e.txt"
    save_kg_embeddings(emb, bin_path, man_path)
    data = man_path.read_bytes()
    load_kg_embeddings(bin_path, man_path, catalog)
    cut = tmp_path / "cut.txt"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(DataFormatError, match="cut.txt: "):
            load_kg_embeddings(bin_path, cut, catalog)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda text: text.replace("dim\t", "normal\twrote\t1.0\ndim\t"),
                 id="normal-before-dim"),
    pytest.param(lambda text: text.replace("\nrelation\tcited\t",
                                           "\nrelation\twrote\t"),
                 id="repeated-relation"),
    pytest.param(lambda text: text.replace("\nnormal\tcited\t",
                                           "\nnormal\tcited\t0.5\nx\t"),
                 id="one-value-normal"),
    pytest.param(lambda text: text.replace("entity\t3\tvenue\t",
                                           "entity\t6\tvenue\t")
                 .replace("entity\t6\tdocument\t", "entity\t3\tdocument\t"),
                 id="documents-before-venues"),
])
def test_malformed_kg_manifest_is_rejected(tmp_path, tiny_kg, edit):
    _, catalog, triples, store = tiny_kg
    emb = train_kg(triples, store, catalog, KGTrainConfig(model="transh", epochs=0))
    bin_path, man_path = tmp_path / "e.bin", tmp_path / "e.txt"
    save_kg_embeddings(emb, bin_path, man_path)
    text = man_path.read_text()
    man_path.write_text(edit(text))
    assert man_path.read_text() != text
    with pytest.raises(DataFormatError, match="e.txt: "):
        load_kg_embeddings(bin_path, man_path, catalog)
    man_path.write_bytes(text.encode().replace(b"dim", b"d\xffim"))
    with pytest.raises(DataFormatError, match="e.txt: invalid UTF-8 on line 3 "):
        load_kg_embeddings(bin_path, man_path, catalog)


def test_link_prediction_improves(small_synth):
    _, corpus, authors = small_synth
    config = KGConfig(True, True)
    catalog = build_catalog(corpus, authors, config)
    view = corpus.view([i for i, d in enumerate(corpus.docs) if d.year < 2016])
    triples = build_kg(view, authors, catalog, config)
    enc = HashedBowEncoder(dim=16, buckets=1024, seed=0)
    store = embed_corpus(enc, corpus.docs)
    train, heldout = heldout_split(triples, RelationType.WROTE, 60, seed=3)
    heads = np.array([t.head for t in triples])
    rels = np.array([list(RelationType).index(t.relation) for t in triples])
    tails = np.array([t.tail for t in triples])
    known = np.sort(encode_triples(heads, rels, tails, catalog.total))
    tc = KGTrainConfig(model="transe", epochs=10, batch_size=1024, seed=1)
    rank_init = link_prediction_mean_rank(
        init_embeddings(catalog, store, tc), heldout, known)
    rank_trained = link_prediction_mean_rank(
        train_kg(train, store, catalog, tc), heldout, known)
    assert rank_trained < rank_init


def test_heldout_split_deterministic(tiny_kg):
    _, _, triples, _ = tiny_kg
    a = heldout_split(triples, RelationType.WROTE, 2, seed=5)
    b = heldout_split(triples, RelationType.WROTE, 2, seed=5)
    assert a == b
    with pytest.raises(ConfigError):
        heldout_split(triples, RelationType.WROTE, 10 ** 6, seed=5)


# --- the blocked step against the whole-batch oracle -------------------------

def _step_setup(model, seed=0):
    """Embeddings over 300 users, 20 venues, 10 affiliations and, last, 400
    frozen documents, plus a blocked and an oracle optimizer set (entity,
    relation, normal)."""
    catalog = EntityCatalog({
        EntityKind.USER: [f"u{i:03d}" for i in range(300)],
        EntityKind.DOCUMENT: [f"d{i:03d}" for i in range(400)],
        EntityKind.VENUE: [f"v{i:02d}" for i in range(20)],
        EntityKind.AFFILIATION: [f"a{i:02d}" for i in range(10)]})
    rng = np.random.default_rng(seed)
    store = DocEmbeddingStore(rng.normal(size=(400, 8)))
    config = KGTrainConfig(model=model, seed=seed)
    emb = init_embeddings(catalog, store, config)
    n_train = emb.frozen_range[0]

    def optimizers(cls):
        return (cls((n_train, 8), lr=0.01), cls((N_RELATIONS, 8), lr=0.01),
                cls((N_RELATIONS, 8), lr=0.01, weight_decay=0.0)
                if model == "transh" else None)
    return emb, config, optimizers(AdamW), optimizers(NaiveAdamW)


def _copy_emb(emb):
    return KGEmbeddings(emb.model, emb.entities.copy(), emb.rel_translations.copy(),
                        None if emb.rel_normals is None else emb.rel_normals.copy(),
                        emb.catalog)


def _assert_same_state(emb, ref, opts, ref_opts):
    assert same_bits(emb.entities, ref.entities)
    assert same_bits(emb.rel_translations, ref.rel_translations)
    if emb.rel_normals is not None:
        assert same_bits(emb.rel_normals, ref.rel_normals)
    for opt, ref_opt in zip(opts, ref_opts):
        if opt is not None:
            assert opt.t == ref_opt.t
            assert same_bits(opt.m, ref_opt.m) and same_bits(opt.v, ref_opt.v)


@pytest.mark.parametrize("model", ["transe", "transh"])
def test_kg_step_matches_unblocked_oracle(model):
    """Several steps over 1300 rows (two full blocks and a partial one),
    with rows on the frozen document tail and invalid negatives; the oracle
    takes ``None`` for the empty block after the documents."""
    emb, config, opts, ref_opts = _step_setup(model)
    ref = _copy_emb(emb)
    total = emb.catalog.total
    frozen = emb.entities[slice(*emb.frozen_range)].copy()
    rng = np.random.default_rng(1)
    n = 1300
    for _ in range(4):
        bh = rng.integers(0, 300, n)
        br = rng.integers(0, N_RELATIONS, n)
        bt = rng.integers(0, total, n)
        nh = np.where(rng.random(n) < 0.5, rng.integers(0, 300, n), bh)
        nt = rng.integers(0, total, n)
        valid = rng.random(n) < 0.9
        loss = _kg_step(emb, config, bh, br, bt, nh, nt, valid, *opts)
        ref_loss = naive_kg_step(ref, config, bh, br, bt, nh, nt, valid,
                                 ref_opts[0], None, *ref_opts[1:])
        assert loss > 0.0
        assert same_bits(np.float64(loss), np.float64(ref_loss))
        _assert_same_state(emb, ref, opts, ref_opts)
    assert opts[0].t == 4
    assert same_bits(emb.entities[slice(*emb.frozen_range)], frozen)


@pytest.mark.parametrize("model", ["transe", "transh"])
def test_kg_step_all_inactive_batch_changes_nothing(model):
    """Every negative far outside the margin: loss 0.0 and no update."""
    emb, config, opts, _ = _step_setup(model)
    before = _copy_emb(emb)
    n = 700
    users = np.arange(n) % 300
    emb.entities[0] = 100.0
    emb.entities[1] = -100.0
    before.entities[:2] = emb.entities[:2]
    br = np.arange(n) % N_RELATIONS
    nh, nt = np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    loss = _kg_step(emb, config, users, br, users, nh, nt, np.ones(n, dtype=bool),
                    *opts)
    assert same_bits(np.float64(loss), np.float64(0.0))
    assert all(opt is None or opt.t == 0 for opt in opts)
    _assert_same_state(emb, before, (), ())
