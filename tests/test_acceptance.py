"""Acceptance suite: one test per criterion, printed pass lines included.

The heavy criteria share a single full-scale pipeline run (default config,
seed 7) built once per session; the link-prediction criterion trains its own
model on the same corpus with held-out triples.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from acadsearch.corpus import (SynthConfig, generate_synthetic, load_corpus,
                               load_qrels, make_query)
from acadsearch.dense_encoder import load_precomputed_embeddings
from acadsearch.fusion_eval import (Lambdas, fuse, lambda_grid, map_at_k,
                                    mrr_at_k, ndcg_at_k)
from acadsearch.graph_baselines import CitationGraph, pagerank
from acadsearch.kg_builder import (KGConfig, RelationType, build_catalog,
                                   load_triples)
from acadsearch.kg_embed import (KGTrainConfig, encode_triples, init_embeddings,
                                 load_kg_embeddings, train_kg)
from acadsearch.lexical_index import (BM25Params, build_index, retrieve_topk,
                                      tokenize)
from acadsearch.config import merge_config
from acadsearch.pipeline import Pipeline, _load_candidates
from oracles import (central_difference, heldout_split,
                     link_prediction_mean_rank, naive_bm25_score, naive_map_at_k,
                     naive_mrr_at_k, naive_ndcg_at_k, reference_pagerank,
                     relative_error, transe_pair_grads, transh_pair_grads,
                     transh_project, triplet_loss, triplet_loss_grads)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """Default-config end-to-end run (seed 7), shared by the heavy criteria."""
    workdir = tmp_path_factory.mktemp("acceptance")
    cfg = merge_config({"paths": {"workdir": str(workdir)}})
    started = time.time()
    Pipeline(cfg).end_to_end()
    duration = time.time() - started
    return cfg, workdir, duration


# -- criterion 1: metric oracle equivalence -----------------------------------

def test_c01_metric_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 150))
        ranking = [f"d{i}" for i in rng.permutation(300)[:n]]
        relevant = frozenset(
            f"d{i}" for i in rng.choice(300, size=int(rng.integers(1, 40)),
                                        replace=False))
        for mine, ref, k in ((map_at_k, naive_map_at_k, 100),
                             (mrr_at_k, naive_mrr_at_k, 10),
                             (ndcg_at_k, naive_ndcg_at_k, 10)):
            worst = max(worst, abs(mine(ranking, relevant, k)
                                   - ref(ranking, relevant, k)))
    elapsed = time.time() - started
    report("C1 metric oracle equivalence",
           worst < 1e-9 and elapsed < 5.0,
           f"max abs diff {worst:.2e}, {elapsed:.2f}s")


# -- criterion 2: BM25 exactness -----------------------------------------------

def test_c02_bm25_exactness_on_5k_corpus():
    started = time.time()
    cfg = SynthConfig(n_docs=5000, n_authors=600, n_venues=20,
                      n_affiliations=60, n_topics=10, vocab_size=2500)
    corpus, _ = generate_synthetic(cfg, seed=2)
    index = build_index(corpus)
    params = BM25Params()
    df = {}
    tf_maps = [dict() for _ in range(index.doc_count)]
    for term, (ords, tfs) in index.postings.items():
        df[term] = len(ords)
        for o, tf in zip(ords, tfs):
            tf_maps[o][term] = int(tf)
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in rng.choice(5000, size=200, replace=False):
        tokens = tokenize(make_query(corpus.docs[i].title))
        got = retrieve_topk(index, tokens, 100, params)
        scored = []
        for o in range(index.doc_count):
            s = naive_bm25_score(tf_maps[o], int(index.doc_lengths[o]),
                                 index.avg_doc_len, index.doc_count, df,
                                 tokens, params.k1, params.b)
            if s > 0:
                scored.append((o, s))
        scored.sort(key=lambda t: (-t[1], t[0]))
        expected = scored[:100]
        assert [o for o, _ in got] == [o for o, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            worst = max(worst, abs(a - b))
    elapsed = time.time() - started
    report("C2 BM25 exactness vs exhaustive oracle",
           worst < 1e-12 and elapsed < 30.0,
           f"200 queries, max score diff {worst:.2e}, {elapsed:.1f}s")


# -- criterion 3: gradient checks ------------------------------------------------

def test_c03_gradient_checks():
    started = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0

    checked = 0
    while checked < 100:
        q, dp = rng.normal(size=(2, 8))
        negs = rng.normal(size=(3, 8))
        hinges = (np.linalg.norm(q - dp)
                  - np.linalg.norm(q[None] - negs, axis=1) + 1.0)
        if np.any(np.abs(hinges) < 1e-4):
            continue
        checked += 1
        _, gq, gp, gn = triplet_loss_grads(q, dp, negs, 1.0)
        fn = lambda a, b, c: triplet_loss(a, b, c, 1.0)
        worst = max(worst,
                    relative_error(central_difference(fn, [q, dp, negs], 0), gq),
                    relative_error(central_difference(fn, [q, dp, negs], 1), gp),
                    relative_error(central_difference(fn, [q, dp, negs], 2), gn))

    checked = 0
    while checked < 100:
        h, r, t, hn, tn = rng.normal(size=(5, 8))
        loss, grads = transe_pair_grads(h, r, t, hn, tn, 1.0)
        hinge = 1.0 + np.linalg.norm(h + r - t) - np.linalg.norm(hn + r - tn)
        if abs(hinge) < 1e-4:
            continue
        checked += 1
        fn = lambda *a: transe_pair_grads(*a, margin=1.0)[0]
        args = [h, r, t, hn, tn]
        for k, name in enumerate(("h", "r", "t", "hn", "tn")):
            worst = max(worst, relative_error(
                central_difference(fn, args, k), grads[name]))

    checked = 0
    while checked < 100:
        h, t, hn, tn, dr = rng.normal(size=(5, 8))
        w = rng.normal(size=8)
        w /= np.linalg.norm(w)
        loss, grads = transh_pair_grads(h, t, hn, tn, w, dr, 1.0)
        if loss < 1e-4:
            continue
        checked += 1
        fn = lambda *a: transh_pair_grads(*a, margin=1.0)[0]
        args = [h, t, hn, tn, w, dr]
        for k, name in enumerate(("h", "t", "hn", "tn", "w", "dr")):
            worst = max(worst, relative_error(
                central_difference(fn, args, k), grads[name]))

    elapsed = time.time() - started
    report("C3 gradient checks (triplet, translation, hyperplane)",
           worst < 1e-4 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criteria 4-5: frozen rows and hyperplane constraints -------------------------

def test_c04_frozen_document_rows(full_run):
    cfg, workdir, _ = full_run
    corpus, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                            workdir / "corpus" / "authors.jsonl")
    authors = sorted(corpus.authors.values(), key=lambda a: a.author_id)
    catalog = build_catalog(corpus, authors, KGConfig(**cfg["kg"]))
    store = load_precomputed_embeddings(workdir / "embed" / "doc_embeddings.bin",
                                        expect_count=len(corpus))
    ok = True
    for model in ("transh", "transe"):
        kg_dir = workdir / "kg_embed" / model
        emb = load_kg_embeddings(kg_dir / "entities.bin",
                                 kg_dir / "entities.manifest.txt", catalog)
        lo, hi = emb.frozen_range
        # both sides passed through the same f32 file format exactly once
        ok = ok and np.array_equal(
            emb.entities[lo:hi].astype(np.float32),
            store.vectors.astype(np.float32))
    report("C4 frozen document rows bit-identical", ok)


def test_c05_transh_constraints(full_run):
    cfg, workdir, _ = full_run
    corpus, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                            workdir / "corpus" / "authors.jsonl")
    authors = sorted(corpus.authors.values(), key=lambda a: a.author_id)
    catalog = build_catalog(corpus, authors, KGConfig(**cfg["kg"]))
    triples = load_triples(workdir / "kg" / "triples.tsv", catalog)
    store = load_precomputed_embeddings(workdir / "embed" / "doc_embeddings.bin",
                                        expect_count=len(corpus))
    # fresh shortened training run to observe every epoch boundary
    tc = KGTrainConfig(model="transh", epochs=6, batch_size=8192, seed=3)
    emb = train_kg(triples, store, catalog, tc)
    per_epoch_ok = (len(emb.normal_deviations) == 6
                    and max(emb.normal_deviations) < 1e-6)
    # loaded artifact from the full run also satisfies the constraint
    kg_dir = workdir / "kg_embed" / "transh"
    loaded = load_kg_embeddings(kg_dir / "entities.bin",
                                kg_dir / "entities.manifest.txt", catalog)
    norms = np.linalg.norm(loaded.rel_normals, axis=1)
    artifact_ok = np.max(np.abs(norms - 1.0)) < 1e-6
    rng = np.random.default_rng(0)
    ortho_ok = True
    for w in emb.rel_normals:
        for _ in range(5):
            v = rng.normal(size=emb.dim)
            ortho_ok = ortho_ok and abs(np.dot(w, transh_project(v, w))) < 1e-6
    report("C5 hyperplane constraints (unit normals, orthogonal projections)",
           per_epoch_ok and artifact_ok and ortho_ok,
           f"max epoch deviation {max(emb.normal_deviations):.2e}")


# -- criterion 6: link-prediction sanity ------------------------------------------

def test_c06_link_prediction_mean_rank(full_run):
    cfg, workdir, _ = full_run
    started = time.time()
    corpus, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                            workdir / "corpus" / "authors.jsonl")
    authors = sorted(corpus.authors.values(), key=lambda a: a.author_id)
    catalog = build_catalog(corpus, authors, KGConfig(**cfg["kg"]))
    triples = load_triples(workdir / "kg" / "triples.tsv", catalog)
    store = load_precomputed_embeddings(workdir / "embed" / "doc_embeddings.bin",
                                        expect_count=len(corpus))
    train, heldout = heldout_split(triples, RelationType.WROTE, 500, seed=6)
    heads = np.asarray([t.head for t in triples])
    rels = np.asarray([list(RelationType).index(t.relation) for t in triples])
    tails = np.asarray([t.tail for t in triples])
    known = np.sort(encode_triples(heads, rels, tails, catalog.total))
    tc = KGTrainConfig(model="transe", epochs=50,
                       batch_size=cfg["kg_train"]["batch_size"], seed=6)
    rank_init = link_prediction_mean_rank(
        init_embeddings(catalog, store, tc), heldout, known)
    emb = train_kg(train, store, catalog, tc)
    rank_trained = link_prediction_mean_rank(emb, heldout, known)
    elapsed = time.time() - started
    report("C6 link-prediction filtered mean rank",
           rank_trained <= 0.5 * rank_init and elapsed < 300.0,
           f"init {rank_init:.0f} -> trained {rank_trained:.0f}, {elapsed:.0f}s")


# -- criterion 7: fusion projection and verified grid maximum ----------------------

def test_c07_fusion_projection_and_grid_maximum(full_run):
    cfg, workdir, _ = full_run
    corpus, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                            workdir / "corpus" / "authors.jsonl")
    pipeline = Pipeline(cfg)

    def two_stage_lists(split):
        records = _load_candidates(
            workdir / "score" / f"{split}_candidates.jsonl", corpus)
        return pipeline._candidate_lists(None, records, corpus, "none")

    lists = two_stage_lists("test")
    assert len(lists) >= 100
    projections_ok = True
    for cl in lists:
        bm = [d for d, _ in fuse(Lambdas(1, 0, 0), cl)]
        expected_bm = [d for _, d in sorted(
            zip(-cl.scores[:, 0], cl.doc_ids), key=lambda p: (p[0], p[1]))]
        dn = [d for d, _ in fuse(Lambdas(0, 1, 0), cl)]
        expected_dn = [d for _, d in sorted(
            zip(-cl.scores[:, 1], cl.doc_ids), key=lambda p: (p[0], p[1]))]
        projections_ok = projections_ok and bm == expected_bm and dn == expected_dn

    # re-evaluate the tuned two_stage grid with the naive metric oracle
    val_qrels = load_qrels(workdir / "splits" / "val_qrels.txt")
    val_lists = two_stage_lists("val")
    step = cfg["fusion"]["grid_step"]
    best, best_key = None, None
    for lam in lambda_grid(step):
        if lam.user != 0.0:
            continue
        vals = [naive_map_at_k([d for d, _ in fuse(lam, cl)],
                               val_qrels.relevant(cl.query_id), 100)
                for cl in val_lists if val_qrels.relevant(cl.query_id)]
        key = (float(np.mean(vals)), lam.dense, lam.bm25)
        if best_key is None or key > best_key:
            best_key, best = key, lam
    tuned = json.loads((workdir / "tune" / "lambdas.json").read_text())["two_stage"]
    grid_ok = (best.bm25, best.dense, best.user) == \
        (tuned["bm25"], tuned["dense"], tuned["user"])
    report("C7 fusion projections exact; tuned lambda is the verified grid max",
           projections_ok and grid_ok,
           f"{len(lists)} test queries; tuned {tuned}")


# -- criteria 8-9: directional reproduction -----------------------------------------

def test_c08_fused_ordering_and_significance(full_run):
    cfg, workdir, duration = full_run
    metrics = json.loads((workdir / "eval" / "metrics.json").read_text())
    systems = metrics["systems"]
    n_queries = min(metrics["n_queries"].values())
    p = metrics["significance"]["fused_transh_vs_two_stage"]
    ok = (systems["two_stage"]["map@100"] > systems["bm25"]["map@100"]
          and systems["fused_transh"]["map@100"] > systems["two_stage"]["map@100"]
          and p < 0.05
          and n_queries >= 100
          and duration < 900.0)
    report("C8 two-stage > bm25, fused(kg) > two-stage with p < 0.05",
           ok,
           f"bm25 {systems['bm25']['map@100']:.4f}, "
           f"two_stage {systems['two_stage']['map@100']:.4f}, "
           f"fused {systems['fused_transh']['map@100']:.4f}, p={p:.4f}, "
           f"{n_queries} queries, end-to-end {duration:.0f}s")


def test_default_split_yields_enough_test_queries(full_run):
    """80th-percentile cutoff leaves well over 100 usable test queries."""
    _, workdir, _ = full_run
    split = json.loads((workdir / "splits" / "split.json").read_text())
    assert split["test_queries"] >= 100


def test_c09_ablation_ordering(full_run):
    _, workdir, _ = full_run
    results = json.loads((workdir / "ablate" / "ablation.json").read_text())
    user_only = results["user-only"]["metrics"]["ndcg@10"]
    venue = results["+venue"]["metrics"]["ndcg@10"]
    affiliation = results["+affiliation"]["metrics"]["ndcg@10"]
    ok = user_only <= venue <= affiliation and affiliation > user_only
    report("C9 ablation ndcg@10 ordering user-only <= +venue <= +affiliation",
           ok, f"{user_only:.4f} <= {venue:.4f} <= {affiliation:.4f}")


# -- criterion 10: pagerank ------------------------------------------------------------

def test_c10_pagerank():
    edges = [(a, b) for a in range(4) for b in range(4) if a != b]
    complete = pagerank(CitationGraph(list(range(4)), edges))
    uniform_ok = bool(np.all(np.abs(complete - 0.25) < 1e-8))
    chain = pagerank(CitationGraph([0, 1, 2], [(0, 1), (1, 2)]),
                     tol=1e-12, max_iter=2000)
    expected = reference_pagerank(3, [(0, 1), (1, 2)])
    chain_ok = bool(np.all(np.abs(chain - expected) < 1e-8))
    sums_ok = (abs(complete.sum() - 1.0) < 1e-8
               and abs(chain.sum() - 1.0) < 1e-8)
    report("C10 pagerank uniformity, chain oracle, conservation",
           uniform_ok and chain_ok and sums_ok)


# -- criterion 11: determinism -----------------------------------------------------------

def test_c11_end_to_end_determinism(tmp_path_factory):
    outputs = []
    for i in range(2):
        workdir = tmp_path_factory.mktemp(f"det{i}")
        cfg = merge_config({
            "paths": {"workdir": str(workdir)},
            "synth": {"n_docs": 1200, "n_authors": 200, "n_venues": 10,
                      "n_affiliations": 30, "n_topics": 5, "n_subtopics": 4,
                      "vocab_size": 900},
            "split": {"max_train_queries": 250, "max_val_queries": 80,
                      "max_test_queries": 80},
            "encoder": {"dim": 24, "buckets": 4096, "epochs": 2},
            "kg_train": {"epochs": 4, "batch_size": 1024},
            "eval": {"permutations": 1000},
        })
        Pipeline(cfg).end_to_end()
        outputs.append(workdir)
    a, b = outputs
    identical = True
    compared = []
    for rel in sorted(p.relative_to(a).as_posix()
                      for p in (a / "eval").glob("run_*.txt")):
        compared.append(rel)
        identical = identical and (a / rel).read_bytes() == (b / rel).read_bytes()
    for rel in ("eval/metrics.json", "eval/report.txt", "ablate/ablation.txt"):
        compared.append(rel)
        identical = identical and (a / rel).read_bytes() == (b / rel).read_bytes()
    report("C11 end-to-end determinism (byte-identical runs and reports)",
           identical, f"{len(compared)} artifacts compared")
