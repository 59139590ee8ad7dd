"""Score fusion and evaluation.

The final score of a candidate is the convex combination

    S = l1 * bm25 + l2 * dense + l3 * user      (l1 + l2 + l3 = 1, li >= 0)

over per-query min-max normalized channels. Weights are tuned by exhaustive
search over the simplex lattice with a configurable step, maximizing
validation MAP@100. Metrics are MAP@100, MRR@10, and NDCG@10 with binary
gains; significance uses a two-sided paired randomization test.

Both searches are array-shaped and reproduce the one-item-at-a-time forms
bit for bit. Tuning scores every lattice point of a query in one pass: one
matrix-vector product per point over a block of queries, then each relevant
candidate's rank by comparison and a row-wise sum that adds the precisions
in numpy's 1-D order. The randomization test draws its signs in row chunks
from an unchanged generator stream, so every p-value is the same as with one
draw per permutation.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus.io import read_fields
from .corpus.model import QrelSet
from .errors import ConfigError, DataFormatError

log = logging.getLogger(__name__)

CHANNELS = ("bm25", "dense", "user")

# Caps on the transient arrays of the batched paths: candidate rows scored
# per block of the grid search, and sign draws per randomization chunk.
_GRID_ROWS = 512
_SIGN_ELEMENTS = 65536


@dataclass(frozen=True)
class Lambdas:
    bm25: float
    dense: float
    user: float

    def __post_init__(self):
        # bool is an int subclass, so True/False would pass the checks below
        if any(isinstance(w, (bool, np.bool_))
               for w in (self.bm25, self.dense, self.user)):
            raise ConfigError(f"fusion weights must be numbers, not booleans: {self}")
        total = self.bm25 + self.dense + self.user
        if min(self.bm25, self.dense, self.user) < 0:
            raise ConfigError(f"fusion weights must be nonnegative: {self}")
        if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ConfigError(f"fusion weights must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.bm25, self.dense, self.user])


@dataclass
class CandidateList:
    """First-stage candidates for one query with raw per-channel scores.

    ``scores`` has shape (n_candidates, 3) ordered per CHANNELS.
    """
    query_id: str
    doc_ids: list[str]
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.doc_ids) != self.scores.shape[0] or (
                len(self.doc_ids) and self.scores.shape[1] != len(CHANNELS)):
            raise ConfigError(f"{self.query_id}: candidate/score shape mismatch")
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise DataFormatError(f"{self.query_id}: duplicate candidate doc_ids")


def minmax_normalize(scores) -> np.ndarray:
    """(s - min) / (max - min) per element; a constant list maps to all zeros."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ConfigError("cannot normalize an empty score list")
    if not np.all(np.isfinite(scores)):
        raise ConfigError("scores must be finite")
    lo = scores.min()
    hi = scores.max()
    if hi == lo:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


def normalize_channels(candidates: CandidateList) -> np.ndarray:
    if candidates.scores.shape[0] == 0:
        return candidates.scores.copy()
    return np.column_stack([minmax_normalize(candidates.scores[:, c])
                            for c in range(len(CHANNELS))])


def fuse(lambdas: Lambdas, candidates: CandidateList) -> list[tuple[str, float]]:
    """Final ranking: weighted normalized scores, descending, ties by doc_id."""
    if not candidates.doc_ids:
        return []
    fused = normalize_channels(candidates) @ lambdas.as_array()
    by_id = np.array(sorted(range(len(fused)), key=candidates.doc_ids.__getitem__))
    order = by_id[np.argsort(-fused[by_id], kind="stable")]
    values = fused.tolist()
    return [(candidates.doc_ids[i], values[i]) for i in order.tolist()]


# --- rank-quality metrics -----------------------------------------------------

def map_at_k(ranking: list[str], relevant: frozenset[str] | set[str],
             k: int = 100) -> float:
    """Average precision at k, normalized by min(|relevant|, k)."""
    if not relevant:
        raise ValueError("empty relevant set; exclude the query instead")
    hits = 0
    total = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            hits += 1
            total += hits / i
    return total / min(len(relevant), k)


def mrr_at_k(ranking: list[str], relevant, k: int = 10) -> float:
    for i, doc in enumerate(ranking[:k], start=1):
        if doc in relevant:
            return 1.0 / i
    return 0.0


def ndcg_at_k(ranking: list[str], relevant, k: int = 10) -> float:
    """Binary gains, discount 1/log2(rank + 1), ideal packs relevant on top."""
    if not relevant:
        raise ValueError("empty relevant set; exclude the query instead")
    dcg = sum(1.0 / math.log2(i + 1)
              for i, doc in enumerate(ranking[:k], start=1) if doc in relevant)
    ideal = sum(1.0 / math.log2(i + 1)
                for i in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


METRIC_FNS = {"map@100": lambda r, rel: map_at_k(r, rel, 100),
              "mrr@10": lambda r, rel: mrr_at_k(r, rel, 10),
              "ndcg@10": lambda r, rel: ndcg_at_k(r, rel, 10)}


@dataclass
class MetricReport:
    """Aggregate and per-query metrics for one system."""
    name: str
    means: dict[str, float]
    per_query: dict[str, dict[str, float]]   # metric -> {query_id: value}
    skipped_empty: int


def evaluate_run(name: str, rankings: dict[str, list[str]], qrels: QrelSet
                 ) -> MetricReport:
    """Metrics over all queries with nonempty qrels; others counted, not scored."""
    per_query: dict[str, dict[str, float]] = {m: {} for m in METRIC_FNS}
    skipped = 0
    for qid in sorted(rankings):
        relevant = qrels.relevant(qid)
        if not relevant:
            skipped += 1
            continue
        for metric, fn in METRIC_FNS.items():
            per_query[metric][qid] = fn(rankings[qid], relevant)
    means = {m: (float(np.mean(list(vals.values()))) if vals else 0.0)
             for m, vals in per_query.items()}
    return MetricReport(name, means, per_query, skipped)


# --- lambda tuning -------------------------------------------------------------

def lambda_grid(step: float) -> list[Lambdas]:
    """All lattice points on the simplex with the given step."""
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ConfigError(f"step {step} does not divide 1")
    grid = []
    for i in range(n + 1):
        for j in range(n - i + 1):
            k = n - i - j
            grid.append(Lambdas(i / n, j / n, k / n))
    return grid


def _prepare_arrays(candidate_lists: list[CandidateList], qrels: QrelSet):
    """Per-query arrays sorted by doc_id so a stable sort on -S breaks ties right."""
    prepared = []
    for cl in candidate_lists:
        relevant = qrels.relevant(cl.query_id)
        if not relevant or not cl.doc_ids:
            continue
        order = sorted(range(len(cl.doc_ids)), key=lambda i: cl.doc_ids[i])
        doc_ids = [cl.doc_ids[i] for i in order]
        norm = normalize_channels(cl)[order]
        rel_mask = np.array([d in relevant for d in doc_ids])
        prepared.append((norm, rel_mask, len(relevant)))
    return prepared


def _average_precisions(fused: np.ndarray, rel_mask: np.ndarray, n_rel: int,
                        k: int) -> np.ndarray:
    """AP@k of one query under each row of ``fused`` (points x candidates).

    Candidates are in doc_id order, so under a stable sort on -fused a
    candidate ranks below those scoring higher and those scoring the same
    that come before it. Each row's precisions are summed by a row-wise sum
    of a contiguous block, which runs numpy's 1-D summation on every row.
    """
    rel = np.flatnonzero(rel_mask)
    target = fused[:, rel, None]
    ahead = fused[:, None, :] > target
    ties = fused[:, None, :] == target
    ties &= np.arange(fused.shape[1]) < rel[:, None]
    ahead |= ties
    ranks = np.sort(ahead.view(np.uint8).sum(axis=2, dtype=np.int64) + 1, axis=1)
    precisions = np.arange(1, len(rel) + 1) / ranks
    in_top = (ranks <= k).sum(axis=1)
    sums = np.empty(len(fused))
    # a Python set: np.unique here raised the query path's peak RSS by 0.7 MiB
    for hits in set(in_top.tolist()):
        rows = in_top == hits
        sums[rows] = np.ascontiguousarray(precisions[rows, :hits]).sum(axis=1)
    return sums / min(n_rel, k)


def _grid_maps(prepared, weights: list[np.ndarray], k: int = 100) -> np.ndarray:
    """MAP@k over prepared arrays at each weight vector; same ordering as fuse().

    The matrix-vector product ``block @ w`` computes each row's fused score
    from that row alone, exactly as ``norm @ w`` does for the query alone,
    so one product per point over a block of queries changes no value (a
    one-row query may round differently, which cannot change its ranking).
    ``norm @ W.T`` would not do: the matrix-matrix kernel rounds differently.
    """
    aps = np.empty((len(weights), len(prepared)))
    start = 0
    while start < len(prepared):
        stop = start + 1
        rows = len(prepared[start][0])
        while stop < len(prepared) and rows + len(prepared[stop][0]) <= _GRID_ROWS:
            rows += len(prepared[stop][0])
            stop += 1
        block = np.concatenate([norm for norm, _, _ in prepared[start:stop]])
        fused = np.empty((len(weights), rows))
        for point, w in enumerate(weights):
            np.matmul(block, w, out=fused[point])
        offset = 0
        for q in range(start, stop):
            norm, rel_mask, n_rel = prepared[q]
            aps[:, q] = _average_precisions(fused[:, offset:offset + len(norm)],
                                            rel_mask, n_rel, k)
            offset += len(norm)
        start = stop
    return aps.mean(axis=1)


def tune_lambdas(candidate_lists: list[CandidateList], qrels: QrelSet,
                 step: float = 0.05, fix_user_zero: bool = False
                 ) -> tuple[Lambdas, str]:
    """Exhaustive simplex grid search maximizing validation MAP@100.

    Ties prefer larger dense weight, then larger bm25 weight. Returns the
    winner and the full grid as a text table. ``fix_user_zero`` restricts the
    search to the no-personalization face of the simplex.
    """
    if not candidate_lists:
        raise ConfigError("empty validation set")
    prepared = _prepare_arrays(candidate_lists, qrels)
    if not prepared:
        raise ConfigError("no validation query has relevant candidates")
    grid = lambda_grid(step)
    if fix_user_zero:
        grid = [g for g in grid if g.user == 0.0]
    scores = _grid_maps(prepared, [lam.as_array() for lam in grid]).tolist()
    rows = []
    best = None
    best_key = None
    for lam, score in zip(grid, scores):
        rows.append((lam, score))
        key = (score, lam.dense, lam.bm25)
        if best_key is None or key > best_key:
            best_key = key
            best = lam
    lines = [f"{'bm25':>6} {'dense':>6} {'user':>6}   {'map@100':>10}"]
    for lam, score in rows:
        marker = "  <-- selected" if lam == best else ""
        lines.append(f"{lam.bm25:6.2f} {lam.dense:6.2f} {lam.user:6.2f}   "
                     f"{score:10.6f}{marker}")
    return best, "\n".join(lines) + "\n"


# --- significance ---------------------------------------------------------------

def significance_test(metrics_a, metrics_b, permutations: int = 10000,
                      seed: int = 0) -> float:
    """Two-sided paired randomization test on the mean difference."""
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    a = np.asarray(metrics_a, dtype=np.float64)
    b = np.asarray(metrics_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired arrays differ in length: {a.shape} vs {b.shape}")
    diffs = a - b
    observed = abs(diffs.mean())
    rng = np.random.default_rng(seed)
    # A (rows, n) draw takes the same values from the stream as `rows`
    # draws of n signs, and each row mean sums like a 1-D mean.
    chunk = max(1, _SIGN_ELEMENTS // max(len(diffs), 1))
    hits = 0
    for start in range(0, permutations, chunk):
        signs = rng.integers(0, 2, size=(min(chunk, permutations - start),
                                         len(diffs))) * 2 - 1
        hits += int(np.count_nonzero(
            np.abs((signs * diffs).mean(axis=1)) >= observed - 1e-12))
    return (hits + 1) / (permutations + 1)


# --- run files -------------------------------------------------------------------

@dataclass
class RunFile:
    """Ranked output per query: (doc_id, score, rank) with ranks 1..n."""
    name: str
    rankings: dict[str, list[tuple[str, float, int]]]

    def validate(self, path: Path) -> None:
        """Ranks 1..n and non-increasing scores per query, or a
        DataFormatError naming ``path``, the file the run was read from."""
        for qid, entries in self.rankings.items():
            ranks = [r for _, _, r in entries]
            if ranks != list(range(1, len(entries) + 1)):
                raise DataFormatError(f"{path}: {qid}: ranks are not "
                                      f"contiguous from 1")
            scores = [s for _, s, _ in entries]
            if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
                raise DataFormatError(f"{path}: {qid}: scores increase with rank")

    def ranking_ids(self) -> dict[str, list[str]]:
        return {qid: [d for d, _, _ in entries]
                for qid, entries in self.rankings.items()}


def write_run(tag: str, fused: dict[str, list[tuple[str, float]]],
              path: str | Path) -> None:
    """TREC 6-column format: query_id Q0 doc_id rank score run_tag, with
    each query's ``fuse`` list ranked from 1."""
    text = "".join([f"{qid} Q0 {doc_id} {rank} {score:.6g} {tag}\n"
                    for qid in sorted(fused)
                    for rank, (doc_id, score) in enumerate(fused[qid], 1)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_run(path: str | Path) -> RunFile:
    path = Path(path)
    rankings: dict[str, list[tuple[str, float, int]]] = {}
    name = "run"
    for lineno, (qid, _, doc_id, rank, score, tag) in read_fields(path, 6):
        try:
            entry = (doc_id, float(score), int(rank))
        except ValueError:
            raise DataFormatError(f"{path}: bad rank or score on line "
                                  f"{lineno}") from None
        rankings.setdefault(qid, []).append(entry)
        name = tag
    for qid in rankings:
        rankings[qid].sort(key=lambda e: e[2])
    run = RunFile(name, rankings)
    run.validate(path)
    return run


# --- reports ----------------------------------------------------------------------

def metrics_table(reports: list[MetricReport]) -> str:
    metrics = list(METRIC_FNS)
    width = max((len(r.name) for r in reports), default=6) + 2
    lines = [f"{'system':<{width}}" + "".join(f"{m:>10}" for m in metrics)
             + f"{'queries':>9}{'no-rel':>8}"]
    for r in reports:
        n_queries = len(next(iter(r.per_query.values()), {}))
        lines.append(f"{r.name:<{width}}"
                     + "".join(f"{r.means[m]:>10.4f}" for m in metrics)
                     + f"{n_queries:>9}{r.skipped_empty:>8}")
    return "\n".join(lines) + "\n"


def ablation_report(rows: list[tuple[str, dict[str, float]]]) -> str:
    """Fixed-order ablation table over KG node-type configurations."""
    metrics = list(METRIC_FNS)
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"{'node types':<{width}}" + "".join(f"{m:>10}" for m in metrics)]
    for name, means in rows:
        lines.append(f"{name:<{width}}" + "".join(f"{means[m]:>10.4f}" for m in metrics))
    return "\n".join(lines) + "\n"
