from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acadsearch import fusion_eval
from acadsearch.corpus.model import QrelSet
from acadsearch.errors import ConfigError, DataFormatError
from acadsearch.fusion_eval import (CandidateList, Lambdas, ablation_report,
                                    evaluate_run, fuse, lambda_grid, map_at_k,
                                    metrics_table, minmax_normalize, mrr_at_k,
                                    ndcg_at_k, normalize_channels, read_run,
                                    significance_test, tune_lambdas, write_run)
from oracles import (naive_grid_map, naive_map_at_k, naive_mrr_at_k,
                     naive_ndcg_at_k, naive_significance_test)


def test_lambdas_validation():
    Lambdas(0.3, 0.3, 0.4)
    with pytest.raises(ConfigError):
        Lambdas(0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        Lambdas(-0.2, 0.6, 0.6)


def test_minmax_examples():
    assert minmax_normalize([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]
    assert minmax_normalize([5, 5, 5]).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ConfigError):
        minmax_normalize([])
    with pytest.raises(ConfigError):
        minmax_normalize([1.0, float("nan")])


def test_minmax_preserves_order():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=100)
    out = minmax_normalize(scores)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.array_equal(np.argsort(scores, kind="stable"),
                          np.argsort(out, kind="stable"))


def _candidates():
    return CandidateList("q1", ["d1", "d2", "d3", "d4", "d5"], np.array([
        [5.0, 0.1, 0.0],
        [4.0, 0.9, 1.0],
        [3.0, 0.5, 0.5],
        [2.0, 0.2, 0.8],
        [1.0, 0.8, 0.2],
    ]))


def test_fuse_projections_reproduce_channels():
    cl = _candidates()
    bm25_rank = [d for d, _ in fuse(Lambdas(1, 0, 0), cl)]
    assert bm25_rank == ["d1", "d2", "d3", "d4", "d5"]
    dense_rank = [d for d, _ in fuse(Lambdas(0, 1, 0), cl)]
    assert dense_rank == ["d2", "d5", "d3", "d4", "d1"]
    user_rank = [d for d, _ in fuse(Lambdas(0, 0, 1), cl)]
    assert user_rank == ["d2", "d4", "d3", "d5", "d1"]


def test_fuse_weighted_sum_hand_computed():
    cl = _candidates()
    lam = Lambdas(0.4, 0.4, 0.2)
    norm = normalize_channels(cl)
    expected = {d: 0.4 * norm[i, 0] + 0.4 * norm[i, 1] + 0.2 * norm[i, 2]
                for i, d in enumerate(cl.doc_ids)}
    for doc, score in fuse(lam, cl):
        assert score == pytest.approx(expected[doc], abs=1e-12)


def test_fuse_ties_break_by_doc_id():
    cl = CandidateList("q", ["db", "da"], np.array([[1.0, 0.0, 0.0],
                                                    [1.0, 0.0, 0.0]]))
    ranked = [d for d, _ in fuse(Lambdas(1, 0, 0), cl)]
    assert ranked == ["da", "db"]


def test_duplicate_candidates_rejected():
    with pytest.raises(DataFormatError):
        CandidateList("q", ["d1", "d1"], np.zeros((2, 3)))


def test_lambda_grid_counts():
    assert len(lambda_grid(0.5)) == 6
    assert len(lambda_grid(0.05)) == 231
    for lam in lambda_grid(0.25):
        assert lam.bm25 + lam.dense + lam.user == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        lambda_grid(0.3)


def test_metric_examples():
    assert map_at_k(["r"], {"r"}, 100) == 1.0
    assert mrr_at_k(["r"], {"r"}, 10) == 1.0
    assert ndcg_at_k(["r"], {"r"}, 10) == 1.0
    ranking = [f"x{i}" for i in range(10)] + ["r"]
    assert mrr_at_k(ranking, {"r"}, 10) == 0.0
    assert ndcg_at_k(["x", "r"], {"r"}, 10) == pytest.approx(
        1.0 / np.log2(3.0), abs=1e-12)


def test_metrics_match_naive_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 120))
        ranking = [f"d{i}" for i in rng.permutation(200)[:n]]
        relevant = {f"d{i}" for i in rng.choice(200, size=int(rng.integers(1, 30)),
                                                replace=False)}
        assert map_at_k(ranking, relevant, 100) == pytest.approx(
            naive_map_at_k(ranking, relevant, 100), abs=1e-9)
        assert mrr_at_k(ranking, relevant, 10) == pytest.approx(
            naive_mrr_at_k(ranking, relevant, 10), abs=1e-9)
        assert ndcg_at_k(ranking, relevant, 10) == pytest.approx(
            naive_ndcg_at_k(ranking, relevant, 10), abs=1e-9)


def test_ndcg_is_one_iff_top_slots_relevant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        relevant = {f"d{i}" for i in range(int(rng.integers(1, 15)))}
        ranking = [f"d{i}" for i in rng.permutation(30)]
        top = min(len(relevant), 10)
        perfect = all(doc in relevant for doc in ranking[:top])
        assert (ndcg_at_k(ranking, relevant, 10) == pytest.approx(1.0)) == perfect


def test_metric_empty_relevant_rejected():
    with pytest.raises(ValueError):
        map_at_k(["d"], set(), 100)
    with pytest.raises(ValueError):
        ndcg_at_k(["d"], set(), 10)


def test_evaluate_run_skips_empty_qrels():
    qrels = QrelSet({"q1": {"d1"}})
    report = evaluate_run("sys", {"q1": ["d1"], "q2": ["d9"]}, qrels)
    assert report.skipped_empty == 1
    assert report.means["map@100"] == 1.0


def test_tune_lambdas_constant_user_channel_changes_nothing():
    rng = np.random.default_rng(3)
    lists = []
    qrels = QrelSet()
    for qi in range(12):
        doc_ids = [f"q{qi}d{j}" for j in range(20)]
        scores = np.column_stack([rng.normal(size=20), rng.normal(size=20),
                                  np.full(20, 0.7)])
        lists.append(CandidateList(f"q{qi}", doc_ids, scores))
        for j in rng.choice(20, size=4, replace=False):
            qrels.add(f"q{qi}", doc_ids[j])
    lam, _ = tune_lambdas(lists, qrels, step=0.25)
    lam_zeroed, _ = tune_lambdas(lists, qrels, step=0.25, fix_user_zero=True)
    prepared = fusion_eval._prepare_arrays(lists, qrels)
    assert naive_grid_map(prepared, lam.as_array()) == pytest.approx(
        naive_grid_map(prepared, lam_zeroed.as_array()), abs=1e-12)


@st.composite
def validation_queries(draw):
    """Candidate lists and qrels: continuous or few-level (tied) channel
    scores, an optionally constant user channel, few to all candidates
    relevant, and lists longer than the AP cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([None, 2, 4]))
    constant_user = draw(st.booleans())
    lists, qrels = [], QrelSet()
    for qi in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 140))
        scores = rng.random((n, 3))
        if levels is not None:
            scores = np.floor(scores * levels)
        if constant_user:
            scores[:, 2] = 0.5
        doc_ids = [f"q{qi}d{j:03d}" for j in rng.permutation(n)]
        lists.append(CandidateList(f"q{qi}", doc_ids, scores))
        n_rel = draw(st.integers(1, n))
        for j in rng.choice(n, size=n_rel, replace=False):
            qrels.add(f"q{qi}", doc_ids[j])
        for extra in range(draw(st.integers(0, 2))):
            qrels.add(f"q{qi}", f"q{qi}-unretrieved{extra}")
    return lists, qrels


@settings(max_examples=60, deadline=None)
@given(validation_queries(), st.sampled_from([0.05, 0.1, 0.25]),
       st.sampled_from([100, 10]), st.sampled_from([512, 150, 1]))
def test_grid_maps_match_per_point_oracle(queries, step, k, block_rows):
    """Every lattice point's MAP equals the one-point-at-a-time loop exactly,
    across ties, constant user channels, queries with 8 or more hits in the
    top k (where numpy's 1-D sum stops adding in sequence) and any blocking."""
    lists, qrels = queries
    prepared = fusion_eval._prepare_arrays(lists, qrels)
    weights = [lam.as_array() for lam in lambda_grid(step)]
    with mock.patch.object(fusion_eval, "_GRID_ROWS", block_rows):
        batched = fusion_eval._grid_maps(prepared, weights, k).tolist()
    assert batched == [naive_grid_map(prepared, w, k) for w in weights]


def test_grid_maps_match_oracle_beyond_pairwise_blocks():
    """Over 128 queries the mean over queries sums pairwise in blocks."""
    rng = np.random.default_rng(11)
    prepared = []
    for _ in range(300):
        n = int(rng.integers(2, 101))
        rel_mask = rng.random(n) < 0.5
        rel_mask[0] = True
        prepared.append((rng.random((n, 3)), rel_mask, int(rel_mask.sum())))
    weights = [lam.as_array() for lam in lambda_grid(0.05)]
    assert (fusion_eval._grid_maps(prepared, weights).tolist()
            == [naive_grid_map(prepared, w) for w in weights])


def test_tune_lambdas_matches_exhaustive_reevaluation():
    rng = np.random.default_rng(4)
    lists = []
    qrels = QrelSet()
    for qi in range(10):
        doc_ids = [f"q{qi}d{j}" for j in range(15)]
        scores = rng.normal(size=(15, 3))
        lists.append(CandidateList(f"q{qi}", doc_ids, scores))
        for j in rng.choice(15, size=3, replace=False):
            qrels.add(f"q{qi}", doc_ids[j])
    lam, grid_text = tune_lambdas(lists, qrels, step=0.2)
    # independent re-evaluation: fuse + naive MAP per grid point
    best = None
    best_key = None
    for trial in lambda_grid(0.2):
        values = []
        for cl in lists:
            ranking = [d for d, _ in fuse(trial, cl)]
            values.append(naive_map_at_k(ranking, qrels.relevant(cl.query_id), 100))
        key = (np.mean(values), trial.dense, trial.bm25)
        if best_key is None or key > best_key:
            best_key, best = key, trial
    assert lam == best
    assert "selected" in grid_text


def test_tune_lambdas_validation():
    with pytest.raises(ConfigError):
        tune_lambdas([], QrelSet(), 0.5)
    cl = CandidateList("q", ["d"], np.zeros((1, 3)))
    with pytest.raises(ConfigError):
        tune_lambdas([cl], QrelSet(), 0.5)


def test_scale_invariance_of_normalization():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(30, 3))
    cl = CandidateList("q", [f"d{i:02d}" for i in range(30)], raw)
    scaled = raw.copy()
    scaled[:, 0] *= 3.7
    cl2 = CandidateList("q", [f"d{i:02d}" for i in range(30)], scaled)
    n1 = normalize_channels(cl)
    n2 = normalize_channels(cl2)
    assert np.allclose(n1, n2, atol=1e-12)
    lam = Lambdas(0.4, 0.3, 0.3)
    assert [d for d, _ in fuse(lam, cl)] == [d for d, _ in fuse(lam, cl2)]


def test_significance_examples():
    assert significance_test([0.5] * 20, [0.5] * 20, 1000, seed=3) == 1.0
    a = list(np.ones(50) * 2.0)
    b = list(np.ones(50))
    assert significance_test(a, b, 10000, seed=3) < 0.001
    p1 = significance_test([1, 2, 3, 4], [2, 1, 4, 3], 5000, seed=9)
    p2 = significance_test([1, 2, 3, 4], [2, 1, 4, 3], 5000, seed=9)
    assert p1 == p2
    with pytest.raises(ValueError):
        significance_test([1.0], [1.0, 2.0])
    for permutations in (-3, 0):
        with pytest.raises(ValueError, match="permutations must be >= 1"):
            significance_test([1.0], [2.0], permutations)


metric_values = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(metric_values, metric_values), min_size=1,
                max_size=90),
       st.integers(1, 2500), st.integers(0, 2 ** 16))
@example([(1.0, 0.0)] * 81, 1000, 7)
@example([(0.5, 0.25), (0.25, 0.5), (1.0, 1.0)], 7, 0)
def test_significance_matches_per_permutation_oracle(pairs, permutations, seed):
    """Chunked sign draws give the per-permutation p-value exactly, for odd
    lengths and permutation counts below, above and between chunk sizes."""
    a, b = zip(*pairs)
    assert (significance_test(a, b, permutations, seed)
            == naive_significance_test(a, b, permutations, seed))


def test_run_file_roundtrip(tmp_path):
    fused = {"q1": [("d2", 0.9), ("d1", 0.4)], "q2": [("d3", 1.0)]}
    path = tmp_path / "run.txt"
    write_run("sys", fused, path)
    line = path.read_text().splitlines()[0].split()
    assert line == ["q1", "Q0", "d2", "1", "0.9", "sys"]
    loaded = read_run(path)
    assert loaded.rankings == {"q1": [("d2", 0.9, 1), ("d1", 0.4, 2)],
                               "q2": [("d3", 1.0, 1)]}
    assert loaded.ranking_ids() == {"q1": ["d2", "d1"], "q2": ["d3"]}
    assert loaded.name == "sys"


def test_run_file_validation(tmp_path):
    path = tmp_path / "malformed.txt"
    path.write_text("q1 Q0 d1 1 0.5 tag\nq1 Q0 d2 2\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_run(path)


@pytest.mark.parametrize("text, problem", [
    pytest.param("q1 Q0 d1 1 1.0 x\nq1 Q0 d2 3 0.5 x\n",
                 "ranks are not contiguous", id="rank-gap"),
    pytest.param("q1 Q0 d1 1 0.2 x\nq1 Q0 d2 2 0.5 x\n",
                 "scores increase", id="increasing-scores"),
])
def test_read_run_rejects_bad_rankings_naming_the_file(tmp_path, text, problem):
    path = tmp_path / "run.txt"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=f"{path}: q1: {problem}"):
        read_run(path)


def test_run_score_formatting_six_significant_digits(tmp_path):
    path = tmp_path / "run.txt"
    write_run("t", {"q": [("d1", 0.123456789), ("d2", 0.0000123456789)]}, path)
    lines = path.read_text().splitlines()
    assert lines[0].split()[4] == "0.123457"
    assert lines[1].split()[4] == "1.23457e-05"


def test_run_file_bytes_match_per_line_writes(tmp_path):
    """One joined write gives the bytes of one f-string write per line."""
    scores = [123456789.0, 1.0, 0.5, 1 / 3, 0.0001, 1.5e-05, 1e-07, 0.0, -0.0,
              -2.5e-300]
    fused = {"q10": [(f"d{i}", s) for i, s in enumerate(scores)],
             "q2": [("x", 0.25)], "q1": [], "Q0": [("d9", 7.0), ("d8", 7.0)]}
    path = tmp_path / "run.txt"
    write_run("fused_transh", fused, path)
    expected = "".join(f"{qid} Q0 {doc_id} {rank} {score:.6g} fused_transh\n"
                       for qid in sorted(fused)
                       for rank, (doc_id, score) in enumerate(fused[qid], 1))
    assert path.read_bytes() == expected.encode("utf-8")
    assert " 1e-07 " in expected and " 0 " in expected and " -0 " in expected
    assert " 1.23457e+08 " in expected


@pytest.mark.parametrize("weights", [(float("nan"), 0.0, 1.0),
                                     (float("inf"), 0.0, 0.0)])
def test_lambdas_reject_non_finite_weights(weights):
    with pytest.raises(ConfigError):
        Lambdas(*weights)


@pytest.mark.parametrize("weights", [(True, False, False), (False, 1.0, False),
                                     (0.0, 0.0, True), (np.True_, 0.0, 0.0)])
def test_lambdas_reject_boolean_weights(weights):
    """True + False + False == 1, so booleans would otherwise pass."""
    with pytest.raises(ConfigError, match="boolean"):
        Lambdas(*weights)


def test_lambdas_accept_integer_weights():
    assert Lambdas(1, 0, 0).as_array().tolist() == [1.0, 0.0, 0.0]
    assert Lambdas(0, np.int64(1), 0.0).as_array().tolist() == [0.0, 1.0, 0.0]


def test_reports_format():
    report = evaluate_run("sys_a", {"q1": ["d1", "d2"]}, QrelSet({"q1": {"d1"}}))
    table = metrics_table([report])
    assert "sys_a" in table and "map@100" in table
    ab = ablation_report([("user-only", report.means), ("+venue", report.means),
                          ("+affiliation", report.means), ("no-kg", report.means)])
    lines = ab.strip().splitlines()
    assert lines[1].startswith("user-only")
    assert lines[2].startswith("+venue")
    assert lines[3].startswith("+affiliation")
    assert lines[4].startswith("no-kg")
