"""The benchmark's workloads: configs, set-up and timed steps, output checks.

A workload is a list of set-up steps, which produce its inputs, and a list
of timed steps, its body. Each step is one call of a public
``Pipeline.stage_*`` entry point, made with a config file plus ``--set``
style overrides, exactly as the ``acadsearch`` command line makes it.

Two scales exist. ``bench`` is the default config with the two epoch
overrides (``encoder.epochs=2``, ``kg_train.epochs=10``) and a smaller
corpus and query sample: every training step keeps the default shapes (a
65536 x 64 encoder table at batch 128, KG batches of 4096), there are just
fewer of them. ``smoke`` is the 600-document config of the pipeline CLI
tests, for checking the harness itself in seconds.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SCALES: dict[str, dict] = {
    "bench": {
        "overrides": {
            "synth": {"n_docs": 1200, "n_authors": 120, "n_venues": 12,
                      "n_affiliations": 30, "n_topics": 8, "n_subtopics": 8,
                      "vocab_size": 1600},
            "split": {"max_train_queries": 300, "max_val_queries": 50,
                      "max_test_queries": 80},
        },
        "sets": ["encoder.epochs=2", "kg_train.epochs=10"],
    },
    # mirrors TINY in tests/test_pipeline_cli.py
    "smoke": {
        "overrides": {
            "synth": {"n_docs": 600, "n_authors": 120, "n_venues": 8,
                      "n_affiliations": 20, "n_topics": 4, "n_subtopics": 4,
                      "vocab_size": 600, "year_min": 2005, "year_max": 2019},
            "split": {"max_train_queries": 150, "max_val_queries": 60,
                      "max_test_queries": 60},
            "encoder": {"dim": 16, "buckets": 2048, "epochs": 2},
            "kg_train": {"epochs": 3, "batch_size": 512},
            "fusion": {"grid_step": 0.25, "include_transe": False},
            "eval": {"permutations": 500},
        },
        "sets": [],
    },
}


CONFIG_FILE = "bench_config.json"


@dataclass(frozen=True)
class Step:
    """One stage call: the stage name, its keyword arguments, extra sets."""
    stage: str
    kwargs: dict = field(default_factory=dict)
    sets: tuple[str, ...] = ()

    @property
    def method(self) -> str:
        return "stage_" + self.stage.replace("-", "_")

    @property
    def label(self) -> str:
        """The stage plus its arguments, e.g. ``train-kg transe``."""
        args = list(self.kwargs.values()) + [s.split("=", 1)[1] for s in self.sets]
        return " ".join([self.stage] + args)


BUILD_STEPS = [
    Step("index"), Step("splits"), Step("train-dense"), Step("embed"),
    Step("build-kg"), Step("train-kg", {"model": "transh"}),
    Step("train-kg", {"model": "transe"}),
]

# the kg pass comes last so the body ends in the default config's state
USER_CHANNELS = ("mean", "attention", "selfcite", "pagerank", "pop", "kg")


def _channel_pass(channel: str) -> list[Step]:
    sets = (f"fusion.user_channel={channel}",)
    return [Step("tune", sets=sets), Step("eval", sets=sets)]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: list[Step]
    body: list[Step]


WORKLOADS = {
    "build": Workload("build", [Step("synth")], BUILD_STEPS),
    "query": Workload(
        "query", [Step("synth")] + BUILD_STEPS,
        [Step("score")] + [s for ch in USER_CHANNELS for s in _channel_pass(ch)]),
    "ablate": Workload(
        "ablate", [Step("synth")] + BUILD_STEPS[:-1] + [Step("score")],
        [Step("ablate")]),
}


def write_config(workdir: Path, scale: str, seed: int) -> None:
    """The config file every stage call of a process reads."""
    overrides = json.loads(json.dumps(SCALES[scale]["overrides"]))
    overrides["paths"] = {"workdir": str(workdir)}
    overrides["seed"] = seed
    (workdir / CONFIG_FILE).write_text(json.dumps(overrides, indent=2,
                                                  sort_keys=True))


def make_pipeline(workdir: Path, scale: str, step: Step):
    """A Pipeline configured the way the command line would configure it."""
    from acadsearch.pipeline import Pipeline, load_config
    cfg = load_config(workdir / CONFIG_FILE,
                      SCALES[scale]["sets"] + list(step.sets))
    return Pipeline(cfg, threads=1)


def run_step(workdir: Path, scale: str, step: Step) -> None:
    pipeline = make_pipeline(workdir, scale, step)
    getattr(pipeline, step.method)(**step.kwargs)


# -- output checks ------------------------------------------------------------

class CheckFailed(Exception):
    """An artifact is missing, does not parse, or holds an invalid value."""


def sha256_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _unit_interval(label: str, value) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value) \
            or not 0.0 <= value <= 1.0:
        raise CheckFailed(f"{label} = {value!r} is not a finite value in [0, 1]")
    return float(value)


def check_metrics_json(data: dict, label: str) -> None:
    systems = data.get("systems")
    if not systems:
        raise CheckFailed(f"{label}: no systems")
    for system, means in systems.items():
        if not means:
            raise CheckFailed(f"{label}: {system} has no metrics")
        for metric, value in means.items():
            _unit_interval(f"{label} {system} {metric}", value)
    for pair, p in data.get("significance", {}).items():
        _unit_interval(f"{label} p({pair})", p)
    for system, n in data.get("n_queries", {}).items():
        if n < 1:
            raise CheckFailed(f"{label}: {system} scored no queries")


def _scored_queries(workdir: Path, split: str) -> list[str]:
    path = workdir / "score" / f"{split}_candidates.jsonl"
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["query_id"] for line in fh if line.strip()]


def check_build(workdir: Path, scale: str) -> str:
    import numpy as np
    from acadsearch.corpus import load_corpus
    from acadsearch.dense_encoder import HashedBowEncoder
    from acadsearch.kg_builder import KGConfig, build_catalog
    from acadsearch.kg_embed import load_kg_embeddings
    files = [workdir / "dense" / "encoder.bin"]
    if not np.isfinite(HashedBowEncoder.load(files[0]).table).all():
        raise CheckFailed("dense/encoder.bin holds non-finite weights")
    cfg = make_pipeline(workdir, scale, Step("build-kg")).cfg
    corpus, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                            workdir / "corpus" / "authors.jsonl")
    authors = sorted(corpus.authors.values(), key=lambda a: a.author_id)
    catalog = build_catalog(corpus, authors, KGConfig(**cfg["kg"]))
    for model in ("transe", "transh"):
        kg_dir = workdir / "kg_embed" / model
        emb = load_kg_embeddings(kg_dir / "entities.bin",
                                 kg_dir / "entities.manifest.txt", catalog)
        if not np.isfinite(emb.entities).all():
            raise CheckFailed(f"kg_embed/{model} holds non-finite rows")
        files.append(kg_dir / "entities.bin")
    return sha256_files(files)


def check_query(workdir: Path, snapshots: list[bytes]) -> str:
    """``snapshots`` holds eval/metrics.json as each eval pass left it."""
    from acadsearch.fusion_eval import read_run
    for i, raw in enumerate(snapshots):
        check_metrics_json(json.loads(raw), f"eval pass {i + 1} metrics.json")
    metrics_path = workdir / "eval" / "metrics.json"
    scored = set(_scored_queries(workdir, "test"))
    runs = sorted((workdir / "eval").glob("run_*.txt"))
    expected = {f"run_{s}.txt" for s in ("bm25", "two_stage", "fused_transh")} | {
        f"run_fused_{c}.txt" for c in USER_CHANNELS if c != "kg"}
    missing = expected - {p.name for p in runs}
    if missing:
        raise CheckFailed(f"eval run files missing: {sorted(missing)}")
    for path in runs:
        ranked = read_run(path).ranking_ids()
        unranked = [q for q in scored if not ranked.get(q)]
        if unranked:
            raise CheckFailed(f"{path.name}: {len(unranked)} scored queries "
                              f"are not ranked, e.g. {unranked[0]}")
    return sha256_files([metrics_path] + runs)


ABLATION_ROWS = ("user-only", "+venue", "+affiliation", "no-kg")


def check_ablate(workdir: Path) -> str:
    path = workdir / "ablate" / "ablation.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    for row in ABLATION_ROWS:
        means = data.get(row, {}).get("metrics")
        if not means:
            raise CheckFailed(f"ablation.json: no metrics for {row}")
        for metric, value in means.items():
            _unit_interval(f"ablation {row} {metric}", value)
    return sha256_files([path])


def claim_margins(workload: str, workdir: Path) -> dict[str, float]:
    """Test quality of fused_transh and the paper's claims as margins, so a
    change can see how close it comes to flipping one."""
    if workload == "query":
        data = json.loads((workdir / "eval" / "metrics.json").read_text())
        systems, sig = data["systems"], data["significance"]
        return {
            "claim.fused_vs_two_stage.map_gap":
                systems["fused_transh"]["map@100"] - systems["two_stage"]["map@100"],
            "claim.fused_vs_two_stage.p": sig["fused_transh_vs_two_stage"],
            "claim.two_stage_vs_bm25.p": sig["two_stage_vs_bm25"],
            "eval.fused_transh.map100": systems["fused_transh"]["map@100"],
            "eval.fused_transh.ndcg10": systems["fused_transh"]["ndcg@10"],
        }
    if workload == "ablate":
        data = json.loads((workdir / "ablate" / "ablation.json").read_text())
        ndcg = {row: data[row]["metrics"]["ndcg@10"] for row in ABLATION_ROWS}
        return {
            "claim.ablate.venue_ndcg10_gap": ndcg["+venue"] - ndcg["user-only"],
            "claim.ablate.affiliation_ndcg10_gap":
                ndcg["+affiliation"] - ndcg["+venue"],
        }
    return {}


def query_pairs(workdir: Path) -> int:
    """(query, user channel) pairs one query body tunes and evaluates."""
    n = len(_scored_queries(workdir, "val")) + len(_scored_queries(workdir, "test"))
    return n * len(USER_CHANNELS)
