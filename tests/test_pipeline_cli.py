import contextlib
import functools
import json
import multiprocessing
import os
import resource
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from acadsearch import config as config_mod
from acadsearch import pipeline as pipeline_mod
from acadsearch import stagerun as stagerun_mod
from acadsearch.cli import main
from acadsearch.config import DEFAULT_CONFIG, load_config, merge_config
from acadsearch.errors import (ConfigError, DataFormatError,
                               MissingArtifactError, StaleArtifactError)
from acadsearch.kg_builder import EntityKind
from acadsearch.pipeline import Pipeline
from acadsearch.stagerun import STAGES, stage_config_hash

TINY = {
    "synth": {"n_docs": 600, "n_authors": 120, "n_venues": 8,
              "n_affiliations": 20, "n_topics": 4, "n_subtopics": 4,
              "vocab_size": 600, "year_min": 2005, "year_max": 2019},
    "split": {"max_train_queries": 150, "max_val_queries": 60,
              "max_test_queries": 60},
    "encoder": {"dim": 16, "buckets": 2048, "epochs": 2},
    "kg_train": {"epochs": 3, "batch_size": 512},
    "fusion": {"grid_step": 0.25, "include_transe": False},
    "eval": {"permutations": 500},
}


def tiny_cfg(workdir, **extra):
    overrides = json.loads(json.dumps(TINY))
    overrides.setdefault("paths", {})["workdir"] = str(workdir)
    for key, value in extra.items():
        overrides.setdefault(key, {}).update(value)
    return merge_config(overrides)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tiny")
    cfg = tiny_cfg(workdir)
    pipeline = Pipeline(cfg)
    pipeline.end_to_end()
    return cfg, workdir


def test_config_merge_and_overrides(tmp_path):
    cfg = load_config(None, ["kg_train.model=transe", "seed=11"])
    assert cfg["kg_train"]["model"] == "transe"
    assert cfg["seed"] == 11
    with pytest.raises(ConfigError):
        load_config(None, ["nonexistent.option=1"])
    with pytest.raises(ConfigError):
        merge_config({"bogus_section": {}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bm25": {"k1": 1.2}}))
    assert load_config(path)["bm25"]["k1"] == 1.2


@pytest.mark.parametrize("content, sets, named", [
    pytest.param(b'{"seed": 7\xff}', [], "cfg.json", id="not-utf8"),
    pytest.param(b"[1, 2]", [], "cfg.json", id="not-an-object"),
    pytest.param(b"{}", ["encoder=5"], "'encoder'", id="set-section-to-scalar"),
    pytest.param(b'{"encoder": 5}', [], "'encoder'", id="file-section-to-scalar"),
])
def test_cli_bad_config_exit_1(tmp_path, capsys, content, sets, named):
    """A config that cannot be read or replaces a section with a value exits
    1 naming the file or the key."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    argv = ["--config", str(cfg_path), "--workdir", str(tmp_path / "w"), "--quiet"]
    for item in sets:
        argv += ["--set", item]
    capsys.readouterr()
    assert main(argv + ["train-dense"]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def _leaves(section: dict, prefix: str = ""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


# values of another JSON type than a default of each type, or a null default
_WRONG_TYPED = {str: [5, True, None, ["x"]], int: ["x", 1.5, True, None, [1]],
                float: ["x", True, None, {"a": 1}], bool: ["x", 1, None],
                list: ["x", [1], None], type(None): [True, ["x"], {"a": 1}]}


def test_cli_wrong_typed_config_value_exit_1(tmp_path, capsys):
    """A value of another JSON type than its key's default exits 1 naming
    the key, through --set and through a config file, before any stage
    writes; an int is a float, and null fits only a null default."""
    workdir = tmp_path / "w"
    cfg_path = tmp_path / "cfg.json"
    leaves = list(_leaves(DEFAULT_CONFIG))
    assert len(leaves) > 50
    for name, default in leaves:
        for value in _WRONG_TYPED[type(default)]:
            nested = value
            for part in reversed(name.split(".")):
                nested = {part: nested}
            cfg_path.write_text(json.dumps(nested))
            for argv in (["--set", f"{name}={json.dumps(value)}"],
                         ["--config", str(cfg_path)]):
                capsys.readouterr()
                assert main(argv + ["--workdir", str(workdir), "--quiet",
                                    "synth"]) == 1, (name, value)
                err = capsys.readouterr().err
                assert f"config key {name!r}" in err, (name, value, err)
                assert "Traceback" not in err
    assert not workdir.exists()
    cfg = load_config(None, ["encoder.lr=1", "split.cutoff_year=2015",
                             "paths.corpus=c.jsonl", "synth.title_len=[2, 3]"])
    assert (cfg["encoder"]["lr"], cfg["split"]["cutoff_year"]) == (1, 2015)
    assert (cfg["paths"]["corpus"], cfg["synth"]["title_len"]) == ("c.jsonl",
                                                                   [2, 3])
    cfg_path.write_text(json.dumps({"split": {"cutoff_year": 2015}}))
    cfg = load_config(cfg_path, ["split.cutoff_year=null"])
    assert cfg["split"]["cutoff_year"] is None


@pytest.mark.parametrize("key", ["max_train_queries", "max_val_queries",
                                 "max_test_queries"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_split_query_cap_below_one_exit_1(tmp_path, capsys, key, value):
    """A split query cap below 1 exits 1 naming the key before `splits`
    writes anything."""
    workdir = tmp_path / "w"
    capsys.readouterr()
    assert main(["--workdir", str(workdir), "--quiet",
                 "--set", f"split.{key}={value}", "splits"]) == 1
    err = capsys.readouterr().err
    assert f"split.{key}" in err and "Traceback" not in err
    assert not workdir.exists()


def test_cli_encoder_dim_below_one_exit_1(tiny_run, tmp_path, capsys):
    """encoder.dim 0 exits 1 naming the key before `train-dense` writes."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    before = _snapshot(workdir / "dense")
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet",
                 "--set", "encoder.dim=0", "train-dense"]) == 1
    err = capsys.readouterr().err
    assert "encoder.dim" in err and "Traceback" not in err
    assert _snapshot(workdir / "dense") == before


@pytest.mark.parametrize("value", ["-3", "0"])
def test_cli_eval_permutations_below_one_exit_1(tiny_run, tmp_path, capsys,
                                                value):
    """eval.permutations below 1, which would report p = -0.5 or 1, exits 1
    naming the key before `eval` writes."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    before = _snapshot(workdir / "eval")
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet",
                 "--set", f"eval.permutations={value}", "eval"]) == 1
    err = capsys.readouterr().err
    assert "eval.permutations" in err and "Traceback" not in err
    assert _snapshot(workdir / "eval") == before


_PROB_KEYS = [f"synth.{key}" for key in DEFAULT_CONFIG["synth"]
              if key.endswith("_prob")]

# every key with a range rule -> its nearest illegal values, with every other
# key at its default
_ILLEGAL = {
    **dict.fromkeys(["seed", "synth.refs_max", "encoder.epochs",
                     "encoder.train_year_gap", "kg_train.epochs"], [-1]),
    **dict.fromkeys(["encoder.weight_decay", "kg_train.constraint_weight",
                     "kg_train.constraint_eps", "kg_train.weight_decay"],
                    [-1, float("inf")]),
    "synth.refs_mean": [-1, float("nan"), float("inf")],
    **dict.fromkeys(["synth.n_authors", "synth.n_venues", "synth.n_affiliations",
                     "synth.n_topics", "synth.n_subtopics",
                     "split.max_train_queries", "split.max_val_queries",
                     "split.max_test_queries", "bm25.depth", "encoder.dim",
                     "encoder.buckets", "encoder.max_positives_per_query",
                     "kg_train.batch_size", "eval.permutations"], [0]),
    **dict.fromkeys(["synth.n_docs", "encoder.batch_size"], [1]),
    **dict.fromkeys(["bm25.k1", "encoder.lr", "encoder.margin", "kg_train.lr",
                     "kg_train.margin"], [0, -1e-9, float("inf")]),
    **dict.fromkeys(["bm25.b", *_PROB_KEYS], [-0.1, 1.5]),
    "synth.shared_vocab_frac": [-0.1, 1, float("nan")],
    **dict.fromkeys(["synth.title_len", "synth.abstract_len"], [[5, 2], [-1, 2]]),
    "synth.year_max": [1999],   # year_min is 2000
    # 25 topics x 8 subtopics, a fifth of the words shared: 499 is the least
    # vocabulary with a synonym pair per subtopic
    "synth.vocab_size": [0, 498],
    "kg_train.model": ["rotate"],
    "fusion.user_channel": ["bogus"],
    "fusion.aggregation": ["median"],
    "fusion.user_metric": ["manhattan"],
    "fusion.grid_step": [0, -0.5, 0.3, 1.5, float("nan")],
}

# (key named, values that are legal alone but not together)
_ILLEGAL_TOGETHER = [
    ("synth.vocab_size", {"synth.n_topics": 30, "synth.n_subtopics": 10,
                          "synth.vocab_size": 100}),
    ("synth.year_max", {"synth.year_min": 2010, "synth.year_max": 2009}),
]

# legal values at the edge of each rule; epochs 0 gives an untrained baseline
_LEGAL_EDGES = [
    ("seed", 0), ("encoder.epochs", 0), ("kg_train.epochs", 0),
    ("encoder.weight_decay", 0), ("kg_train.weight_decay", 0),
    ("encoder.train_year_gap", 0), ("kg_train.constraint_eps", 0),
    ("synth.refs_mean", 0), ("synth.refs_max", 0), ("bm25.b", 0), ("bm25.b", 1),
    ("synth.stopword_prob", 0), ("synth.authorless_prob", 1),
    ("synth.shared_vocab_frac", 0), ("synth.title_len", [0, 0]),
    ("synth.abstract_len", [3, 3]), ("synth.n_docs", 2),
    ("synth.vocab_size", 499), ("synth.year_max", 2000),
    ("encoder.batch_size", 2), ("kg_train.batch_size", 1), ("bm25.depth", 1),
    ("eval.permutations", 1), ("encoder.lr", 1e-12), ("kg_train.model", "transe"),
    ("fusion.user_channel", "none"), ("fusion.grid_step", 1),
]


def test_cli_out_of_range_config_value_exit_1(tmp_path, capsys):
    """A value outside its key's rule in config.CONFIG_RULES exits 1
    naming the key, through --set and through a config file, before any
    stage writes; so does one that breaks a rule between two keys."""
    workdir = tmp_path / "w"
    cfg_path = tmp_path / "cfg.json"
    cases = [(name, {name: value}) for name, values in _ILLEGAL.items()
             for value in values] + _ILLEGAL_TOGETHER
    for name, values in cases:
        sets, nested = [], {}
        for key, value in values.items():
            sets += ["--set", f"{key}={json.dumps(value)}"]
            section, _, leaf = key.rpartition(".")
            (nested.setdefault(section, {}) if section else nested)[leaf] = value
        cfg_path.write_text(json.dumps(nested))
        for argv in (sets, ["--config", str(cfg_path)]):
            capsys.readouterr()
            assert main(argv + ["--workdir", str(workdir), "--quiet",
                                "synth"]) == 1, (name, values)
            err = capsys.readouterr().err
            assert f"config key {name!r}" in err, (name, values, err)
            assert "Traceback" not in err
    capsys.readouterr()
    assert main(["--seed", "-1", "--workdir", str(workdir), "--quiet",
                 "synth"]) == 1
    assert "config key 'seed'" in capsys.readouterr().err
    assert not workdir.exists()


def test_config_rules_cover_leaves_and_pass_defaults_and_edges():
    leaves = {name for name, _ in _leaves(DEFAULT_CONFIG)}
    assert set(config_mod.CONFIG_RULES) <= leaves
    assert set(_ILLEGAL) == set(config_mod.CONFIG_RULES)
    Pipeline(merge_config(None))
    for name, value in _LEGAL_EDGES:
        Pipeline(load_config(None, [f"{name}={json.dumps(value)}"]))


def test_stage_config_hash_stability():
    cfg = merge_config(None)
    h1 = stage_config_hash(cfg, "synth")
    assert h1 == stage_config_hash(merge_config(None), "synth")
    cfg2 = merge_config({"synth": {"n_docs": 5}})
    assert stage_config_hash(cfg2, "synth") != h1


def test_end_to_end_artifacts_exist(tiny_run):
    _, workdir = tiny_run
    for rel in ("corpus/corpus.jsonl", "index/index.bin", "splits/split.json",
                "dense/encoder.bin", "embed/doc_embeddings.bin",
                "kg/triples.tsv", "kg_embed/transh/entities.bin",
                "score/test_candidates.jsonl", "tune/lambdas.json",
                "eval/metrics.json", "eval/run_bm25.txt", "ablate/ablation.txt"):
        assert (workdir / rel).exists(), rel


def test_manifests_record_config_hash(tiny_run):
    cfg, workdir = tiny_run
    manifest = json.loads((workdir / "index" / "manifest.json").read_text())
    assert manifest["stage"] == "index"
    assert manifest["config_hash"] == stage_config_hash(cfg, "index")
    assert "corpus/corpus.jsonl" in manifest["inputs"]


def test_eval_without_score_errors(tmp_path):
    cfg = tiny_cfg(tmp_path / "w")
    pipeline = Pipeline(cfg)
    with pytest.raises(MissingArtifactError, match="synth"):
        pipeline.stage_index()
    with pytest.raises(MissingArtifactError, match="run `score` first"):
        pipeline.stage_eval()


def test_failed_stage_writes_no_manifest(tmp_path):
    pipeline = Pipeline(tiny_cfg(tmp_path / "w"))
    with pytest.raises(MissingArtifactError):
        pipeline.stage_index()
    assert not (tmp_path / "w" / "index" / "manifest.json").exists()


def test_stale_artifact_detection(tiny_run, tmp_path):
    cfg, workdir = tiny_run
    changed = json.loads(json.dumps(cfg))
    changed["synth"]["n_docs"] = 601
    pipeline = Pipeline(changed)
    with pytest.raises(StaleArtifactError, match="--force"):
        pipeline.stage_index()
    forced = Pipeline(changed, force=True)
    forced.stage_index()  # --force runs anyway
    # restore the original index for the remaining tests
    Pipeline(cfg).stage_index()


def test_cli_edited_queries_make_score_stale(tiny_run, tmp_path, capsys):
    """Every split file a query stage reads, and no other, is hashed into
    its manifest."""
    import shutil
    _, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    cfg_path = tmp_path / "cfg.json"
    overrides = json.loads(json.dumps(TINY))
    overrides["paths"] = {"workdir": str(workdir)}
    cfg_path.write_text(json.dumps(overrides))
    queries = workdir / "splits" / "val_queries.jsonl"
    lines = queries.read_text().splitlines(keepends=True)
    queries.write_text("".join(lines[1:]))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "tune"]) == 2
    err = capsys.readouterr().err
    assert "val_queries.jsonl" in err and "re-run `score`" in err
    for stage in ("score", "tune", "eval", "ablate"):
        manifest = json.loads((workdir / stage / "manifest.json").read_text())
        split_inputs = {p for p in manifest["inputs"] if p.startswith("splits/")}
        expected = {"score": {"splits/val_queries.jsonl",
                              "splits/test_queries.jsonl"},
                    "tune": {"splits/val_qrels.txt"},
                    "eval": {"splits/test_qrels.txt"},
                    "ablate": {"splits/split.json", "splits/val_qrels.txt",
                               "splits/test_qrels.txt"}}
        assert split_inputs == expected[stage], stage


def _copy_of_tiny_run(tiny_run, tmp_path):
    """A private copy of the tiny workdir and a config file pointing at it."""
    import shutil
    _, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    cfg_path = tmp_path / "cfg.json"
    overrides = json.loads(json.dumps(TINY))
    overrides["paths"] = {"workdir": str(workdir)}
    cfg_path.write_text(json.dumps(overrides))
    return workdir, cfg_path


def _retrain_kg_with_new_lr(workdir, cfg_path):
    assert main(["--config", str(cfg_path), "--quiet",
                 "--set", "kg_train.lr=0.01", "train-kg"]) == 0


def _truncate_train_queries(workdir, cfg_path):
    path = workdir / "splits" / "train_queries.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:len(lines) // 2]))


def _move_first_author(workdir, cfg_path):
    path = workdir / "corpus" / "authors.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    other = next(r["affiliation_id"] for r in records
                 if r["affiliation_id"] != records[0]["affiliation_id"])
    records[0]["affiliation_id"] = other
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _leave_as_is(workdir, cfg_path):
    pass


def _train_transe_as_configured_model(workdir, cfg_path):
    assert main(["--config", str(cfg_path), "--quiet",
                 "--set", "kg_train.model=transe", "train-kg"]) == 0


_UPSTREAM_EDITS = pytest.mark.parametrize("edit, sets, stage, rerun", [
    pytest.param(_retrain_kg_with_new_lr, ["kg_train.lr=0.01"], "eval", "tune",
                 id="kg-retrained"),
    pytest.param(_truncate_train_queries, [], "embed", "train-dense",
                 id="train-queries-truncated"),
    pytest.param(_move_first_author, [], "train-kg", "build-kg",
                 id="authors-edited"),
    pytest.param(_leave_as_is, ["kg.include_venue=false"], "tune",
                 "train-kg --model transh", id="kg-config-changed"),
    pytest.param(_train_transe_as_configured_model, ["kg_train.model=transe"],
                 "eval", "tune", id="kg-model-changed"),
    pytest.param(_leave_as_is, ["encoder.epochs=3"], "tune", "train-dense",
                 id="encoder-config-changed"),
    pytest.param(_leave_as_is, ["split.max_train_queries=10"], "embed", "splits",
                 id="split-config-changed"),
])


@_UPSTREAM_EDITS
def test_cli_edited_upstream_makes_stage_stale(tiny_run, tmp_path, capsys, edit,
                                               sets, stage, rerun):
    """A stage refuses to run when a file an upstream stage read has changed
    since, and names the stage to re-run."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    edit(workdir, cfg_path)
    capsys.readouterr()
    argv = ["--config", str(cfg_path), "--quiet"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv + [stage]) == 2
    assert f"re-run `{rerun}`" in capsys.readouterr().err


@pytest.mark.parametrize("sets, rerun, stages", [
    pytest.param("encoder.epochs=3", "train-dense",
                 ("embed", "train-kg", "score", "tune", "eval", "ablate"),
                 id="encoder"),
    pytest.param("split.max_train_queries=10", "splits",
                 ("train-dense", "embed", "build-kg", "train-kg", "score",
                  "tune", "eval", "ablate"), id="split"),
])
def test_cli_upstream_config_change_stops_every_stage_downstream(
        tiny_run, tmp_path, capsys, sets, rerun, stages):
    """A config change that makes one stage stale stops every stage that
    reads its artifacts, however many stages lie between, naming it."""
    _, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    for stage in stages:
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "--quiet",
                     "--set", sets, stage]) == 2, stage
        assert f"re-run `{rerun}`" in capsys.readouterr().err, stage


def test_cli_force_runs_on_a_stale_upstream_two_levels_up(tiny_run, tmp_path):
    """--force checks only that the files read exist, so `tune` runs on
    candidates whose encoder the config no longer describes."""
    _, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    argv = ["--config", str(cfg_path), "--quiet", "--set", "encoder.epochs=3"]
    assert main(argv + ["tune"]) == 2
    assert main(argv + ["--force", "tune"]) == 0


def test_a_stage_call_reads_each_upstream_manifest_once(tiny_run, tmp_path):
    """`eval` opens the manifest of every directory upstream of it, each
    once, though many of its inputs and theirs share a directory."""
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    changed = json.loads(json.dumps(cfg))
    changed["paths"]["workdir"] = str(workdir)
    with _counting_opens() as opened:
        Pipeline(changed).stage_eval()
    manifests = [Path(p).parent.relative_to(workdir).as_posix() for p in opened
                 if p.startswith(str(workdir)) and p.endswith("manifest.json")
                 and not p.startswith(str(workdir / "eval"))]
    assert sorted(manifests) == ["corpus", "dense", "embed", "index", "kg",
                                 "kg_embed/transh", "score", "splits", "tune"]


_RECORDING: list[tuple[str, set[str]]] = []


def _record_reads(event, args):
    """Audit hook: workdir-relative files opened for reading while a test
    records, except the hashing of manifest inputs. A directory is opened
    only to remove it, as a stage call removes the one it replaced."""
    if not _RECORDING or event != "open" or not isinstance(args[0], str):
        return
    root, opened = _RECORDING[-1]
    path, _, flags = args
    if (not path.startswith(root) or flags & (os.O_WRONLY | os.O_RDWR)
            or os.path.isdir(path)):
        return
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name == "_hash_file":
            return
        frame = frame.f_back
    opened.add(path[len(root):])


_COUNTING: list[list[str]] = []


def _count_opens(event, args):
    """Audit hook: every path opened, hashing included, while a test counts."""
    if _COUNTING and event == "open" and isinstance(args[0], str):
        _COUNTING[-1].append(args[0])


class _Cut(Exception):
    """What _cut_after_first_write raises."""


_CUTTING: list[dict] = []


def _cut_after_first_write(event, args):
    """Audit hook: while a test arms it, the second file opened for writing
    under the armed root raises _Cut, so the stage call that opens it has
    written one file; a forked child counts its own writes."""
    if not _CUTTING or event != "open" or not isinstance(args[0], str):
        return
    armed = _CUTTING[-1]
    path, _, flags = args
    if path.startswith(armed["root"]) and flags & (os.O_WRONLY | os.O_RDWR):
        armed["writes"] += 1
        if armed["writes"] == 2:
            raise _Cut(path)


@functools.cache
def _install_audit_hooks() -> None:
    sys.addaudithook(_record_reads)   # all stay for the process; idle unless on
    sys.addaudithook(_count_opens)
    sys.addaudithook(_cut_after_first_write)


@contextlib.contextmanager
def _counting_opens():
    _install_audit_hooks()
    opened: list[str] = []
    _COUNTING.append(opened)
    try:
        yield opened
    finally:
        _COUNTING.clear()


def _forget_inputs():
    """Drop the digests and parsed inputs this process remembers, so the
    next stage call opens every file it reads."""
    stagerun_mod._digest_cache.clear()
    stagerun_mod._memo.clear()


class _SectionReads(dict):
    """A config that records each top-level section read outside the
    manifest and freshness code."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.sections: set[str] = set()

    def __getitem__(self, key):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name in ("_stage", "_check_fresh",
                                        "stage_config_hash"):
                break
            frame = frame.f_back
        else:
            self.sections.add(key)
        return super().__getitem__(key)


_AUDITED_CALLS = [(name, {}) for name in STAGES if name != "ingest"] + [
    (name, {"user_channel": channel})
    for channel in ("mean", "attention", "selfcite", "pagerank", "pop")
    for name in ("tune", "eval")]


def _run_audited_calls(cfg, workdir, cold: bool, force: bool):
    """Each audited stage call on ``workdir``, from a cold process state or
    a warm one: [(call, workdir files it opened, its manifest inputs,
    config sections it read, attributes the Pipeline holds after it)]."""
    _install_audit_hooks()
    out = []
    for name, fusion in _AUDITED_CALLS:
        changed = json.loads(json.dumps(cfg))
        changed["paths"]["workdir"] = str(workdir)
        changed["fusion"].update(fusion)
        pipeline = Pipeline(changed, force=force)
        pipeline.cfg = _SectionReads(changed)
        if cold:
            _forget_inputs()
        opened: set[str] = set()
        _RECORDING.append((str(workdir) + os.sep, opened))
        try:
            getattr(pipeline, "stage_" + name.replace("-", "_"))()
        finally:
            _RECORDING.clear()
        subdir = STAGES[name][0] + ("/transh" if name == "train-kg" else "")
        manifest = json.loads((workdir / subdir / "manifest.json").read_text())
        out.append(((name, fusion), opened, manifest["inputs"],
                    pipeline.cfg.sections, set(vars(pipeline))))
    return out


def test_manifest_inputs_are_the_files_each_stage_opens(tiny_run, tmp_path):
    """Every workdir file a stage opens, other than a stage manifest, is
    listed in that stage's manifest inputs, and nothing else is. Each call
    starts cold, so a remembered corpus cannot hide a read."""
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    for (name, fusion), opened, inputs, _, _ in _run_audited_calls(
            cfg, workdir, cold=True, force=True):
        reads = {p for p in opened if not p.endswith("/manifest.json")}
        assert reads == set(inputs), (name, fusion)
        assert reads or name == "synth", name


def test_stage_config_hashes_cover_the_sections_each_stage_reads(tiny_run,
                                                                 tmp_path):
    """The config sections a stage hashes are exactly those its calls read:
    a change to one makes the stage's artifacts stale, and a change to any
    other leaves them fresh."""
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    read: dict[str, set[str]] = {}
    for (name, _), _, _, sections, _ in _run_audited_calls(
            cfg, workdir, cold=False, force=True):
        read.setdefault(name, set()).update(sections)
    assert read == {name: set(STAGES[name][1]) for name in read}


def test_warm_stage_calls_record_the_cold_manifest_inputs(tiny_run, tmp_path):
    """The same stage calls, run again in a process that remembers digests
    and parsed inputs, and checking freshness, list the same inputs with
    the same digests in every manifest."""
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    cold = _run_audited_calls(cfg, workdir, cold=True, force=True)
    _settle()
    warm = _run_audited_calls(cfg, workdir, cold=False, force=False)
    assert stagerun_mod._memo and stagerun_mod._digest_cache
    for (call, _, cold_inputs, _, _), (_, _, warm_inputs, _, _) in zip(cold,
                                                                        warm):
        assert warm_inputs == cold_inputs, call


def test_a_pipeline_keeps_no_state_of_a_stage_call(tiny_run, tmp_path):
    """Every stage call keeps its reads, checks and digests in its own
    StageRun: after each call the Pipeline holds only its config, ``force``
    and the workdir."""
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    for call, _, _, _, kept in _run_audited_calls(cfg, workdir, cold=False,
                                                  force=False):
        assert kept == {"cfg", "force", "workdir"}, call


def _settle():
    """Wait until every file written so far is older than the racy margin,
    so its digest is kept."""
    time.sleep(stagerun_mod._RACY_NS / 1e9 + 0.1)


def _settled_file(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    _settle()
    return path


def test_digest_changes_when_mtime_is_restored(tmp_path):
    """A same-size rewrite whose mtime is set back with os.utime still
    changes ctime, so the file is hashed again."""
    path = _settled_file(tmp_path / "f.bin", b"a" * 4096)
    before = os.stat(path)
    old = stagerun_mod._hash_file(path)
    assert str(path) in stagerun_mod._digest_cache
    path.write_bytes(b"b" * 4096)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                   before.st_mtime_ns)
    assert stagerun_mod._hash_file(path) == stagerun_mod._hash_bytes(b"b" * 4096)
    assert old != stagerun_mod._hash_file(path)


def test_digest_changes_when_file_is_replaced(tmp_path):
    """A file swapped in by os.replace, with the old size and mtime, is a
    new inode and is hashed again."""
    path = _settled_file(tmp_path / "f.bin", b"a" * 4096)
    before = os.stat(path)
    old = stagerun_mod._hash_file(path)
    swap = tmp_path / "g.bin"
    swap.write_bytes(b"c" * 4096)
    os.utime(swap, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(swap, path)
    assert os.stat(path).st_ino != before.st_ino
    assert stagerun_mod._hash_file(path) == stagerun_mod._hash_bytes(b"c" * 4096)
    assert old != stagerun_mod._hash_file(path)


def test_racily_fresh_file_is_read_on_every_call(tmp_path, monkeypatch):
    """A file whose ctime lies within the racy margin is never kept: each
    call reads it again."""
    monkeypatch.setattr(stagerun_mod, "_RACY_NS", 3600 * 10 ** 9)
    path = tmp_path / "f.bin"
    path.write_bytes(b"fresh")
    with _counting_opens() as opened:
        digests = {stagerun_mod._hash_file(path) for _ in range(3)}
    assert digests == {stagerun_mod._hash_bytes(b"fresh")}
    assert opened.count(str(path)) == 3
    assert str(path) not in stagerun_mod._digest_cache


def test_settled_inputs_are_read_once_per_process(tiny_run, tmp_path):
    """Across two Pipeline instances, `tune` then `eval`, a settled corpus
    is hashed once and parsed once, and the encoder `score` read is hashed
    once."""
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    changed = json.loads(json.dumps(cfg))
    changed["paths"]["workdir"] = str(workdir)
    _settle()
    _forget_inputs()
    with _counting_opens() as opened:
        Pipeline(changed).stage_tune()
        Pipeline(changed).stage_eval()
    assert opened.count(str(workdir / "corpus" / "corpus.jsonl")) == 2
    assert opened.count(str(workdir / "dense" / "encoder.bin")) == 1


@_UPSTREAM_EDITS
def test_cli_edit_after_a_warm_call_makes_stage_stale(tiny_run, tmp_path, capsys,
                                                      edit, sets, stage, rerun):
    """A stage that already ran in this process, with every input settled
    and remembered, still refuses to run once an upstream file changes."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    _settle()
    argv = ["--config", str(cfg_path), "--quiet"]
    assert main(argv + [stage]) == 0
    edit(workdir, cfg_path)
    capsys.readouterr()
    for item in sets:
        argv += ["--set", item]
    assert main(argv + [stage]) == 2
    assert f"re-run `{rerun}`" in capsys.readouterr().err


def test_corpus_rewritten_between_calls_is_parsed_again(tmp_path):
    """A corpus rewritten between two stage calls of one process is parsed
    again, since the remembered one is keyed on its content."""
    from acadsearch.lexical_index import load_index
    for n_docs in (300, 200):
        cfg = tiny_cfg(tmp_path / "w", synth={"n_docs": n_docs})
        Pipeline(cfg).stage_synth()
        Pipeline(cfg).stage_index()
        assert load_index(tmp_path / "w" / "index" / "index.bin").doc_count == n_docs


def test_memoized_inputs_are_not_changed_by_their_users(tiny_run, tmp_path):
    """`tune` then `eval` in one process, over several user channels, leave
    the remembered corpus and candidate records equal to a fresh parse."""
    from acadsearch.corpus import load_corpus, save_authors, save_corpus
    cfg, src_workdir = tiny_run
    workdir = tmp_path / "w"
    shutil.copytree(src_workdir, workdir)
    _forget_inputs()
    for channel in ("kg", "attention", "pagerank"):
        changed = json.loads(json.dumps(cfg))
        changed["paths"]["workdir"] = str(workdir)
        changed["fusion"]["user_channel"] = channel
        Pipeline(changed).stage_tune()
        Pipeline(changed).stage_eval()
    fresh, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                           workdir / "corpus" / "authors.jsonl")
    for corpus, tag in ((fresh, "fresh"), (stagerun_mod._memo["corpus"][1], "memo")):
        save_corpus(corpus, tmp_path / f"{tag}_corpus.jsonl")
        save_authors(list(corpus.authors.values()), tmp_path / f"{tag}_authors.jsonl")
    for name in ("corpus.jsonl", "authors.jsonl"):
        assert ((tmp_path / f"fresh_{name}").read_bytes()
                == (tmp_path / f"memo_{name}").read_bytes()), name
    for split in ("val", "test"):
        rel = f"score/{split}_candidates.jsonl"
        remembered = stagerun_mod._memo[rel][1]
        expected = pipeline_mod._load_candidates(workdir / rel, fresh)
        assert len(remembered) == len(expected)
        for mine, theirs in zip(remembered, expected):
            assert mine.keys() == theirs.keys()
            for key, value in theirs.items():
                if isinstance(value, np.ndarray):
                    assert not mine[key].flags.writeable
                    assert np.array_equal(mine[key], value), key
                else:
                    assert mine[key] == value, key


@pytest.mark.parametrize("artifact", ["dense/manifest.json", "dense/encoder.bin",
                                      "index/index.bin", "not-an-object"])
def test_cli_corrupt_artifact_exit_3(tiny_run, tmp_path, capsys, artifact):
    """A stage reading a cut-short or malformed artifact exits 3 naming it."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    if artifact == "not-an-object":
        path = workdir / "dense" / "manifest.json"
        path.write_text("[]\n")
    else:
        path = workdir / artifact
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--force", "--quiet", "score"]) == 3
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


def _drop_key(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("fix", [
    pytest.param(_drop_key("query_id"), id="no-query-id"),
    pytest.param(_drop_key("text"), id="no-text"),
    pytest.param(_drop_key("year"), id="no-year"),
    pytest.param(lambda record: {**record, "year": "spring"}, id="non-integer-year"),
])
def test_cli_corrupt_query_record_exit_3(tiny_run, tmp_path, capsys, fix):
    """A query record without a required field or an integer year exits 3
    naming the file and the line."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    path = workdir / "splits" / "val_queries.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = json.dumps(fix(json.loads(lines[2])))
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "score"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err and "line 3" in err
    assert "Traceback" not in err


def _set_transh(weights):
    return lambda lambdas: json.dumps({**lambdas, "fused_transh": weights})


@pytest.mark.parametrize("edit", [
    pytest.param(lambda lambdas: '{"two_stage": {"bm25": 0.5,', id="unparseable"),
    pytest.param(lambda lambdas: "[]", id="not-an-object"),
    pytest.param(lambda lambdas: json.dumps(
        {k: v for k, v in lambdas.items() if k != "fused_transh"}),
        id="missing-system"),
    pytest.param(_set_transh({"bm25": 0.5, "dense": 0.5, "user": 0.5}),
                 id="bad-sum"),
    pytest.param(_set_transh({"bm25": -0.5, "dense": 1.5, "user": 0.0}),
                 id="negative"),
    pytest.param(_set_transh({"bm25": float("nan"), "dense": 0.0, "user": 1.0}),
                 id="nan"),
    pytest.param(_set_transh({"bm25": 0.5, "dense": 0.5}), id="missing-weight"),
    pytest.param(_set_transh({"bm25": 0.5, "dense": 0.5, "user": "high"}),
                 id="string-weight"),
    pytest.param(_set_transh([1.0, 0.0, 0.0]), id="not-a-mapping"),
    pytest.param(_set_transh({"bm25": True, "dense": False, "user": False}),
                 id="boolean-weights"),
])
def test_cli_corrupt_lambdas_exit_3(tiny_run, tmp_path, capsys, edit):
    """``eval`` on an unreadable or invalid fusion weights file exits 3."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    path = workdir / "tune" / "lambdas.json"
    path.write_text(edit(json.loads(path.read_text())))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "eval"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert "Traceback" not in err


def _edit_record(fix):
    def edit(text):
        lines = text.splitlines()
        lines[2] = fix(json.loads(lines[2]))
        return "\n".join(lines) + "\n"
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(lambda text: text[:len(text) // 2], id="truncated"),
    pytest.param(_edit_record(lambda r: json.dumps(_drop_key("dense")(r))),
                 id="no-dense"),
    pytest.param(_edit_record(lambda r: "[]"), id="not-an-object"),
    pytest.param(_edit_record(lambda r: json.dumps({**r, "bm25": r["bm25"][:-1]})),
                 id="short-bm25"),
    pytest.param(_edit_record(lambda r: json.dumps(
        {**r, "doc_ids": ["ghost"] + r["doc_ids"][1:]})), id="unknown-doc"),
    pytest.param(_edit_record(lambda r: json.dumps(
        {**r, "dense": [float("nan")] + r["dense"][1:]})), id="nan-score"),
])
def test_cli_corrupt_candidates_exit_3(tiny_run, tmp_path, capsys, edit):
    """``tune`` on a cut-short or malformed candidate file exits 3 naming it."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    path = workdir / "score" / "val_candidates.jsonl"
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "tune"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: bad candidate record on line " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ['{"test_queries": 3}', '{"cutoff_year": "soon"}',
                                  '{"cutoff_year": null}', '{"cutoff_year": ',
                                  '[2015]'])
def test_cli_corrupt_split_record_exit_3(tiny_run, tmp_path, capsys, text):
    """A split record without an integer cutoff year exits 3 naming it."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    path = workdir / "splits" / "split.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "build-kg"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert "Traceback" not in err


def test_stage_isolation_downstream_delete(tiny_run):
    cfg, workdir = tiny_run
    metrics_before = (workdir / "eval" / "metrics.json").read_bytes()
    for p in (workdir / "eval").iterdir():
        p.unlink()
    pipeline = Pipeline(cfg)
    pipeline.stage_eval()
    assert (workdir / "eval" / "metrics.json").read_bytes() == metrics_before


def test_end_to_end_deterministic(tmp_path_factory):
    runs = []
    for i in range(2):
        workdir = tmp_path_factory.mktemp(f"det{i}")
        cfg = tiny_cfg(workdir)
        Pipeline(cfg).end_to_end()
        runs.append(workdir)
    a, b = runs
    for rel in ("eval/run_bm25.txt", "eval/run_two_stage.txt",
                "eval/run_fused_transh.txt", "eval/metrics.json",
                "eval/report.txt", "ablate/ablation.txt", "tune/lambdas.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_ingest_path(tmp_path, tiny_run):
    _, src_workdir = tiny_run
    workdir = tmp_path / "ing"
    cfg = tiny_cfg(workdir, paths={
        "corpus": str(src_workdir / "corpus" / "corpus.jsonl"),
        "authors": str(src_workdir / "corpus" / "authors.jsonl"),
    })
    pipeline = Pipeline(cfg)
    pipeline.stage_ingest()
    assert (workdir / "corpus" / "corpus.jsonl").exists()
    manifest = json.loads((workdir / "corpus" / "manifest.json").read_text())
    assert manifest["stage"] == "ingest"


def test_ingest_requires_corpus_path(tmp_path):
    cfg = tiny_cfg(tmp_path / "w")
    with pytest.raises(ConfigError):
        Pipeline(cfg).stage_ingest()


def test_cli_exit_codes(tmp_path):
    workdir = tmp_path / "w"
    cfg_path = tmp_path / "cfg.json"
    overrides = json.loads(json.dumps(TINY))
    overrides["paths"] = {"workdir": str(workdir)}
    cfg_path.write_text(json.dumps(overrides))
    # usage error -> 1
    assert main(["--bogus-flag"]) == 1
    assert main([]) == 1
    # missing artifact -> 2
    assert main(["--config", str(cfg_path), "--quiet", "eval"]) == 2
    # config error -> 1
    assert main(["--config", str(tmp_path / "missing.json"), "--quiet",
                 "synth"]) == 1
    # success -> 0
    assert main(["--config", str(cfg_path), "--quiet", "synth"]) == 0
    assert main(["--config", str(cfg_path), "--quiet", "index"]) == 0


def test_cli_splits_is_a_stage_of_its_own(tmp_path, capsys):
    """Stages that read the splits do not build them; `splits` does."""
    workdir = tmp_path / "w"
    cfg_path = tmp_path / "cfg.json"
    overrides = json.loads(json.dumps(TINY))
    overrides["paths"] = {"workdir": str(workdir)}
    cfg_path.write_text(json.dumps(overrides))
    argv = ["--config", str(cfg_path), "--quiet"]
    assert main(argv + ["synth"]) == 0
    assert main(argv + ["index"]) == 0
    capsys.readouterr()
    for stage in ("train-dense", "build-kg"):
        assert main(argv + [stage]) == 2
        assert "run `splits` first" in capsys.readouterr().err
    assert main(argv + ["splits"]) == 0
    assert (workdir / "splits" / "split.json").exists()


def test_cli_split_without_a_query_exit_3(tmp_path, capsys):
    """Under synth.title_len=[0, 0], a legal config, no document yields a
    query: `synth` succeeds and `splits` exits 3 naming the validation split,
    with no traceback and no splits directory."""
    workdir = tmp_path / "w"
    argv = ["--workdir", str(workdir), "--quiet",
            "--set", f"synth={json.dumps(TINY['synth'])}",
            "--set", "synth.title_len=[0, 0]"]
    assert main(argv + ["synth"]) == 0
    assert main(argv + ["index"]) == 0
    capsys.readouterr()
    assert main(argv + ["splits"]) == 3
    err = capsys.readouterr().err
    assert "the validation split has no query left" in err
    assert "Traceback" not in err
    assert not (workdir / "splits").exists()


def test_threads_option_is_gone(tmp_path, capsys):
    assert main(["--threads", "2", "synth"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: acadsearch") and "error:" in err
    assert "Traceback" not in err
    with pytest.raises(ConfigError, match="threads"):
        Pipeline(tiny_cfg(tmp_path / "w"), threads=2)


def test_cli_data_error_exit_3(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"paths": {"workdir": str(tmp_path / "w"), "corpus": str(bad)}}))
    assert main(["--config", str(cfg_path), "--quiet", "ingest"]) == 3


@pytest.mark.parametrize("channel", ["mean", "attention", "selfcite",
                                     "pagerank", "pop"])
def test_baseline_user_channels_through_pipeline(tiny_run, tmp_path, channel):
    """Every baseline can serve as the fused third channel end to end."""
    import shutil
    cfg, src_workdir = tiny_run
    workdir = tmp_path / channel
    shutil.copytree(src_workdir, workdir)
    changed = json.loads(json.dumps(cfg))
    changed["paths"]["workdir"] = str(workdir)
    changed["fusion"]["user_channel"] = channel
    pipeline = Pipeline(changed)
    pipeline.stage_tune()
    pipeline.stage_eval()
    metrics = json.loads((workdir / "eval" / "metrics.json").read_text())
    assert f"fused_{channel}" in metrics["systems"]
    assert (workdir / "eval" / f"run_fused_{channel}.txt").exists()
    # a file the last call did not write stays, as in-place writes left it
    assert ((workdir / "eval" / "run_fused_transh.txt").read_bytes()
            == (src_workdir / "eval" / "run_fused_transh.txt").read_bytes())
    for value in metrics["systems"][f"fused_{channel}"].values():
        assert 0.0 <= value <= 1.0


def test_cli_train_kg_model_flag(tiny_run):
    cfg, workdir = tiny_run
    cfg_path = workdir / "tiny_config.json"
    overrides = json.loads(json.dumps(TINY))
    overrides["paths"] = {"workdir": str(workdir)}
    cfg_path.write_text(json.dumps(overrides))
    assert main(["--config", str(cfg_path), "--quiet", "train-kg",
                 "--model", "transe"]) == 0
    assert (workdir / "kg_embed" / "transe" / "entities.bin").exists()


def test_cli_set_override(tmp_path):
    workdir = tmp_path / "w"
    assert main(["--workdir", str(workdir), "--quiet",
                 "--set", "synth.n_docs=300", "--set", "synth.n_authors=60",
                 "--set", "synth.n_topics=3", "--set", "synth.n_subtopics=3",
                 "--set", "synth.vocab_size=400", "synth"]) == 0
    n_lines = sum(1 for _ in open(workdir / "corpus" / "corpus.jsonl"))
    assert n_lines == 300


@pytest.mark.parametrize("stage", ["tune", "eval", "ablate"])
@pytest.mark.parametrize("key, value", [("user_channel", "bogus"),
                                        ("aggregation", "median"),
                                        ("user_metric", "manhattan")])
def test_cli_bad_fusion_value_exit_1(tmp_path, capsys, stage, key, value):
    """A fusion value no user channel accepts exits 1 naming the key, before
    the stage writes anything."""
    workdir = tmp_path / "w"
    capsys.readouterr()
    assert main(["--workdir", str(workdir), "--quiet",
                 "--set", f"fusion.{key}={value}", stage]) == 1
    err = capsys.readouterr().err
    assert f"fusion.{key}" in err and repr(value) in err
    assert "Traceback" not in err
    assert not workdir.exists()


@pytest.mark.parametrize("stage", ["tune", "ablate"])
@pytest.mark.parametrize("value", ["0", "x", "-0.5", "0.3", "true"])
def test_cli_bad_grid_step_exit_1(tmp_path, capsys, stage, value):
    """A fusion.grid_step that is not a number dividing 1 exits 1 naming
    the key, before the stage writes anything."""
    workdir = tmp_path / "w"
    capsys.readouterr()
    assert main(["--workdir", str(workdir), "--quiet",
                 "--set", f"fusion.grid_step={value}", stage]) == 1
    err = capsys.readouterr().err
    assert "fusion.grid_step" in err
    assert "Traceback" not in err
    assert not workdir.exists()


def test_cli_transe_system_comes_from_config(tiny_run, tmp_path, capsys):
    """With fusion.include_transe, `tune` asks for the TransE model instead
    of tuning without it; once trained, it is tuned and evaluated."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    shutil.rmtree(workdir / "kg_embed" / "transe", ignore_errors=True)
    argv = ["--config", str(cfg_path), "--quiet",
            "--set", "fusion.include_transe=true"]
    capsys.readouterr()
    assert main(argv + ["tune"]) == 2
    err = capsys.readouterr().err
    assert "kg_embed/transe" in err
    assert "run `train-kg --model transe` first" in err
    assert main(argv + ["train-kg", "--model", "transe"]) == 0
    assert main(argv + ["tune"]) == 0
    assert main(argv + ["eval"]) == 0
    metrics = json.loads((workdir / "eval" / "metrics.json").read_text())
    assert "fused_transe" in metrics["systems"]
    assert "fused_transe_vs_two_stage" in metrics["significance"]


def test_cli_removed_corruption_key_is_unknown(tmp_path, capsys):
    for key, value in (("kg_train.corruption", "uniform"),
                       ("kg_train.negatives", "1"),
                       ("split.test_union_qrels", "false")):
        assert main(["--workdir", str(tmp_path / "w"), "--quiet",
                     "--set", f"{key}={value}", "train-kg"]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_cli_train_kg_freshness_follows_the_model_it_trained(tiny_run,
                                                             tmp_path):
    """kg_train.model names train-kg's output directory and is left out of
    its config hash, so a model trained through --model serves a config
    that names it, and one trained through the config serves the
    default config, without training again."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    base = ["--config", str(cfg_path), "--quiet",
            "--set", "fusion.include_transe=true"]
    transe = base + ["--set", "kg_train.model=transe"]
    model_dir = workdir / "kg_embed" / "transe"
    assert main(base + ["train-kg", "--model", "transe"]) == 0
    trained = (model_dir / "entities.bin").read_bytes()
    assert main(transe + ["tune"]) == 0
    assert main(transe + ["train-kg"]) == 0
    assert (model_dir / "entities.bin").read_bytes() == trained
    before = _snapshot(workdir / "kg_embed")
    assert main(base + ["tune"]) == 0
    assert main(base + ["eval"]) == 0
    assert _snapshot(workdir / "kg_embed") == before


def test_ablate_on_a_stale_kg_model_trains_nothing(tiny_run, tmp_path,
                                                   monkeypatch):
    """ablate reads the configured KG model before it trains any variant,
    so a stale model stops it at once."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    triples = workdir / "kg" / "triples.tsv"
    lines = triples.read_text().splitlines(keepends=True)
    triples.write_text("".join(lines[:-1]))

    def no_training(*args, **kwargs):
        raise AssertionError("ablate trained a KG variant")

    monkeypatch.setattr(pipeline_mod, "train_kg", no_training)
    with pytest.raises(StaleArtifactError,
                       match="re-run `train-kg --model transh`"):
        Pipeline(tiny_cfg(workdir)).stage_ablate()


def test_ablate_makes_directories_only_for_trained_variants(tiny_run):
    _, workdir = tiny_run
    assert sorted(p.name for p in (workdir / "ablate").iterdir()
                  if p.is_dir()) == ["plus_venue", "user-only"]


def test_ablation_variant_is_what_build_kg_and_train_kg_write(tiny_run,
                                                              tmp_path):
    """Every file in ablate/user-only/, the variant trained in the first
    child the ablate process forks, equals, byte for byte, what `build-kg`
    and `train-kg` write under the variant's two kg overrides."""
    _assert_variant_matches_stages(tiny_run, tmp_path, "user-only", "false")


def test_forked_ablation_variant_is_what_build_kg_and_train_kg_write(
        tiny_run, tmp_path):
    """The same holds for ablate/plus_venue/, the variant trained in the
    second child the ablate process forks."""
    _assert_variant_matches_stages(tiny_run, tmp_path, "plus_venue", "true")


def _assert_variant_matches_stages(tiny_run, tmp_path, variant: str,
                                   include_venue: str) -> None:
    """Run `build-kg` and `train-kg` under ``variant``'s kg overrides and
    compare their output with ablate/<variant>/."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    argv = ["--config", str(cfg_path), "--quiet",
            "--set", f"kg.include_venue={include_venue}",
            "--set", "kg.include_affiliation=false"]
    assert main(argv + ["build-kg"]) == 0
    assert main(argv + ["train-kg"]) == 0
    _assert_variant_is_stage_output(workdir, variant)


def test_ablate_trains_three_variants_when_none_is_the_configured_kg(
        tiny_run, tmp_path):
    """Under kg.include_venue=false, no variant is the configured KG: all
    three train, each in a forked child, and ablate/plus_affiliation/ holds
    what `build-kg` and `train-kg` wrote under the full KG."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    assert main(["--config", str(cfg_path), "--quiet",
                 "--set", "kg.include_venue=false", "ablate"]) == 0
    _assert_variant_is_stage_output(workdir, "plus_affiliation")


def _assert_variant_is_stage_output(workdir: Path, variant: str) -> None:
    """ablate/<variant>/ holds, byte for byte, the files of kg/ and
    kg_embed/transh/."""
    variant_dir = workdir / "ablate" / variant
    written = {"triples.tsv": "kg", "stats.txt": "kg",
               "entities.bin": "kg_embed/transh",
               "entities.manifest.txt": "kg_embed/transh",
               "train_log.txt": "kg_embed/transh"}
    assert sorted(p.name for p in variant_dir.iterdir()) == sorted(written)
    for name, stage_dir in written.items():
        assert ((variant_dir / name).read_bytes()
                == (workdir / stage_dir / name).read_bytes()), name


def _is_plus_venue(catalog) -> bool:
    """Whether ``catalog`` is the +venue variant's: venues, no affiliations."""
    venues = catalog.kind_range(EntityKind.VENUE)
    affiliations = catalog.kind_range(EntityKind.AFFILIATION)
    return venues[0] < venues[1] and affiliations[0] == affiliations[1]


def test_cli_ablate_error_in_its_child_exit_3(tiny_run, tmp_path, capfd,
                                              monkeypatch):
    """A data error raised while the forked child trains the +venue variant
    exits 3 with the child's message and no traceback from either process,
    rewrites no ablate manifest and leaves no process running."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    train_kg = pipeline_mod.train_kg

    def failing_on_plus_venue(triples, store, catalog, config):
        if _is_plus_venue(catalog):
            raise DataFormatError("bad +venue graph")
        return train_kg(triples, store, catalog, config)

    monkeypatch.setattr(pipeline_mod, "train_kg", failing_on_plus_venue)
    manifest = workdir / "ablate" / "manifest.json"
    before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)
    capfd.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "ablate"]) == 3
    err = capfd.readouterr().err
    assert "acadsearch: error: bad +venue graph" in err
    assert "Traceback" not in err
    assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before
    assert multiprocessing.active_children() == []


def test_interrupted_ablate_stops_its_child(tiny_run, tmp_path, monkeypatch):
    """An interrupt in the training of a child, the user-only variant's,
    reaches the ablate process when it joins that child, propagates at once
    and stops the other child, which still trains."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    train_kg = pipeline_mod.train_kg

    def interrupted(triples, store, catalog, config):
        if _is_plus_venue(catalog):   # the child, still busy when stopped
            time.sleep(60)
            return train_kg(triples, store, catalog, config)
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline_mod, "train_kg", interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        Pipeline(tiny_cfg(workdir)).stage_ablate()
    assert multiprocessing.active_children() == []
    assert time.monotonic() - started < 30


def test_interrupt_while_ablate_waits_for_a_child_stops_every_child(
        tiny_run, tmp_path, monkeypatch):
    """SIGINT delivered to the ablate process itself, while it waits in
    stagerun._join for children that still train, raises KeyboardInterrupt
    within seconds and leaves no child running."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    join = stagerun_mod._join

    def busy(*args, **kwargs):   # every child sleeps where it would train
        time.sleep(60)

    def interrupt_the_wait(*args):
        threading.Timer(0.5, signal.pthread_kill,
                        (threading.main_thread().ident, signal.SIGINT)).start()
        return join(*args)

    monkeypatch.setattr(pipeline_mod, "train_kg", busy)
    monkeypatch.setattr(stagerun_mod, "_join", interrupt_the_wait)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        Pipeline(tiny_cfg(workdir)).stage_ablate()
    assert time.monotonic() - started < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kg, trained", [
    pytest.param({}, ["plus_venue", "user-only"], id="tiny"),
    pytest.param({"include_venue": False},
                 ["plus_affiliation", "plus_venue", "user-only"], id="no-venue"),
])
def test_ablate_process_trains_no_variant(tiny_run, tmp_path, monkeypatch, kg,
                                          trained):
    """Every variant that needs training trains in a forked child, none in
    the ablate process itself."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    ablate_pid = os.getpid()
    train_kg = pipeline_mod.train_kg

    def only_in_children(*args):
        if os.getpid() == ablate_pid:
            raise AssertionError("the ablate process trained a KG variant")
        return train_kg(*args)

    monkeypatch.setattr(pipeline_mod, "train_kg", only_in_children)
    shutil.rmtree(workdir / "ablate")
    Pipeline(tiny_cfg(workdir, kg=kg)).stage_ablate()
    assert sorted(p.name for p in (workdir / "ablate").iterdir()
                  if p.is_dir()) == trained


def test_ablate_manifest_cpu_counts_its_children(tiny_run, tmp_path,
                                                 monkeypatch):
    """``cpu_s`` is the stage's CPU with its joined children's: here each of
    the two variant children burns 0.5 s before it trains."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    train_kg = pipeline_mod.train_kg

    def burn_then_train(*args):
        end = time.process_time() + 0.5
        while time.process_time() < end:
            pass
        return train_kg(*args)

    monkeypatch.setattr(pipeline_mod, "train_kg", burn_then_train)
    shutil.rmtree(workdir / "ablate")

    def cpu(who):
        usage = resource.getrusage(who)
        return usage.ru_utime + usage.ru_stime

    own, children = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_CHILDREN)
    Pipeline(tiny_cfg(workdir)).stage_ablate()
    own = cpu(resource.RUSAGE_SELF) - own
    children = cpu(resource.RUSAGE_CHILDREN) - children
    manifest = json.loads((workdir / "ablate" / "manifest.json").read_text())
    assert children >= 1.0
    assert manifest["cpu_s"] - own >= 0.9
    assert manifest["cpu_s"] <= own + children + 0.002


def test_cli_missing_authors_file_exit_2(tiny_run, tmp_path, capsys):
    """The corpus is both files: without authors.jsonl, a stage that reads
    the corpus exits 2 naming the file and the stage that writes it, and a
    stage whose upstream read it exits 2 naming the file."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    (workdir / "corpus" / "authors.jsonl").unlink()
    _forget_inputs()
    for stage in ("index", "build-kg", "tune", "ablate"):
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "--quiet", stage]) == 2, stage
        err = capsys.readouterr().err
        assert "corpus/authors.jsonl" in err and "Traceback" not in err, stage
        if stage in ("index", "build-kg"):
            assert "run `synth` or `ingest` first" in err, stage


def _snapshot(directory: Path) -> dict[str, tuple[bytes, int]]:
    """Bytes and mtime of every file and subdirectory under ``directory``."""
    return {p.relative_to(directory).as_posix():
            (p.read_bytes() if p.is_file() else b"", p.stat().st_mtime_ns)
            for p in sorted(directory.rglob("*"))}


def test_cli_failing_tune_and_eval_leave_their_directory_untouched(
        tiny_run, tmp_path, capsys):
    """`tune` and `eval` read every input, every KG model included, before
    they write a file, so one that exits 2 leaves its directory as it was."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    argv = ["--config", str(cfg_path), "--quiet",
            "--set", "fusion.include_transe=true"]
    assert main(argv + ["train-kg", "--model", "transe"]) == 0
    assert main(argv + ["tune"]) == 0
    assert main(argv + ["eval"]) == 0
    (workdir / "kg_embed" / "transe" / "manifest.json").unlink()
    for stage in ("tune", "eval"):
        before = _snapshot(workdir / stage)
        capsys.readouterr()
        assert main(argv + [stage]) == 2
        assert ("run `train-kg --model transe` first"
                in capsys.readouterr().err)
        assert _snapshot(workdir / stage) == before, stage


def test_cli_stage_missing_an_input_leaves_its_directory_untouched(
        tiny_run, tmp_path, capsys):
    """Each stage from `index` to `ablate`, run without any one of the files
    its manifest lists, exits 2 naming the file and leaves its directory as
    it was: every stage checks its inputs before it writes."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    argv = ["--config", str(cfg_path), "--quiet"]
    aside = tmp_path / "aside"
    for stage in ("index", "splits", "train-dense", "embed", "build-kg",
                  "train-kg", "score", "tune", "eval", "ablate"):
        own = workdir / STAGES[stage][0]
        manifest = own / ("transh" if stage == "train-kg" else "") / "manifest.json"
        for rel in json.loads(manifest.read_text())["inputs"]:
            before = _snapshot(own)
            os.replace(workdir / rel, aside)
            try:
                capsys.readouterr()
                assert main(argv + [stage]) == 2, (stage, rel)
            finally:
                os.replace(aside, workdir / rel)
            assert rel in capsys.readouterr().err, (stage, rel)
            assert _snapshot(own) == before, (stage, rel)


def test_cli_failed_stage_leaves_no_directory_it_created(tiny_run, tmp_path,
                                                          capsys):
    """Each stage from `splits` to `ablate`, run on a workdir that holds only
    `corpus/`, exits 2 and removes the outermost directory it created, which
    for `train-kg` is `kg_embed/` itself."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    shutil.rmtree(workdir)
    shutil.copytree(tiny_run[1] / "corpus", workdir / "corpus")
    for stage in ("splits", "train-dense", "embed", "build-kg", "train-kg",
                  "score", "tune", "eval", "ablate"):
        capsys.readouterr()
        assert main(["--config", str(cfg_path), "--quiet", stage]) == 2, stage
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in workdir.iterdir()] == ["corpus"], stage


def _listing(workdir: Path) -> list[str]:
    """The entries of ``workdir`` and of its kg_embed/."""
    return sorted(p.relative_to(workdir).as_posix()
                  for d in (workdir, workdir / "kg_embed") for p in d.iterdir())


def test_stage_cut_after_its_first_write_leaves_its_directory_as_it_was(
        tiny_run, tmp_path):
    """Each stage, stopped right after its body wrote one file, leaves its
    directory with the bytes and mtimes it had and no other directory
    behind: a stage call swaps its outputs in whole or not at all."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    _install_audit_hooks()
    for stage in (name for name in STAGES if name != "ingest"):
        own = workdir / STAGES[stage][0] / ("transh" if stage == "train-kg" else "")
        before = _snapshot(own), _listing(workdir)
        _CUTTING.append({"root": str(workdir) + os.sep, "writes": 0})
        try:
            with pytest.raises(_Cut):
                getattr(Pipeline(tiny_cfg(workdir)),
                        "stage_" + stage.replace("-", "_"))()
        finally:
            _CUTTING.clear()
        assert (_snapshot(own), _listing(workdir)) == before, stage


def test_interrupted_score_leaves_its_candidates_whole(tiny_run, tmp_path,
                                                      monkeypatch):
    """A forced `score` interrupted after 5 BM25 retrievals leaves score/
    as it was, so `tune` reads the whole candidate lists of the last
    `score` that finished and tunes the weights it tuned before."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    before = _snapshot(workdir / "score")
    retrieve_topk = pipeline_mod.retrieve_topk
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) > 5:
            raise KeyboardInterrupt
        return retrieve_topk(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "retrieve_topk", interrupted)
    with pytest.raises(KeyboardInterrupt):
        Pipeline(tiny_cfg(workdir), force=True).stage_score()
    assert _snapshot(workdir / "score") == before
    assert _listing(workdir) == _listing(tiny_run[1])
    monkeypatch.undo()
    Pipeline(tiny_cfg(workdir)).stage_tune()
    assert ((workdir / "tune" / "lambdas.json").read_bytes()
            == (tiny_run[1] / "tune" / "lambdas.json").read_bytes())


def test_next_stage_call_removes_what_a_killed_call_left(tiny_run, tmp_path):
    """The `.partial` and `.old` siblings that a killed call of a stage left
    are removed by the stage's next call."""
    workdir, _ = _copy_of_tiny_run(tiny_run, tmp_path)
    for rel in ("score.partial", "score.old", "kg_embed/transh.partial",
                "kg_embed/transh.old"):
        (workdir / rel / "sub").mkdir(parents=True)
        (workdir / rel / "sub" / "left.txt").write_text("left")
    Pipeline(tiny_cfg(workdir)).stage_score()
    Pipeline(tiny_cfg(workdir)).stage_train_kg()
    assert _listing(workdir) == _listing(tiny_run[1])
    for rel in ("score/val_candidates.jsonl", "kg_embed/transh/entities.bin"):
        assert (workdir / rel).read_bytes() == (tiny_run[1] / rel).read_bytes()


def test_swapped_in_files_are_hashed_again(tiny_run, tmp_path):
    """Digests remembered for a settled stage directory are not returned for
    the files that a later call of the stage swapped in under the same
    paths."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    _settle()
    old = {p: stagerun_mod._hash_file(p) for p in (workdir / "score").iterdir()}
    assert set(map(str, old)) <= set(stagerun_mod._digest_cache)
    assert main(["--config", str(cfg_path), "--quiet", "--force",
                 "--set", "bm25.depth=20", "score"]) == 0
    for path, digest in old.items():
        new = stagerun_mod._hash_file(path)
        assert new == stagerun_mod._hash_bytes(path.read_bytes()), path.name
        assert new != digest, path.name


@pytest.mark.parametrize("edit, code", [
    pytest.param(lambda m: {**m, "stage": ["synth"]}, 2, id="stage-a-list"),
    pytest.param(lambda m: {**m, "inputs": {**m["inputs"], "corpus": "0" * 64}},
                 3, id="input-a-directory"),
    pytest.param(lambda m: {**m, "inputs": {"../w/corpus/corpus.jsonl": "0"}},
                 3, id="input-outside-the-workdir"),
    pytest.param(lambda m: {**m, "inputs": {"/etc/passwd": "0"}}, 3,
                 id="input-absolute"),
    pytest.param(lambda m: {**m, "inputs": dict.fromkeys(m["inputs"], 7)}, 3,
                 id="digest-a-number"),
    pytest.param(lambda m: {**m, "inputs": list(m["inputs"])}, 3,
                 id="inputs-a-list"),
])
def test_cli_corrupt_stage_manifest_exit_2_or_3(tiny_run, tmp_path, capsys,
                                                edit, code):
    """A stage manifest of another shape exits 2 as built by another
    version, or 3 naming the manifest, never with a traceback."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    path = workdir / "dense" / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "embed"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (f"{path}: " if code == 3 else "built by another version") in err


def test_cut_or_flipped_stage_manifest_exits_0_2_or_3(tiny_run, tmp_path,
                                                      capsys):
    """`embed` on dense/manifest.json cut at every byte, or with 1 to 3
    bytes flipped at seeded places, exits 0, 2 or 3, names the manifest
    when it exits 3, and never prints a traceback."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    path = workdir / "dense" / "manifest.json"
    data = path.read_bytes()
    rng = np.random.default_rng(11)
    cases = [data[:n] for n in range(len(data))]
    for _ in range(150):
        flipped = bytearray(data)
        for at in rng.integers(0, len(data), size=rng.integers(1, 4)):
            flipped[at] ^= int(rng.integers(1, 256))
        cases.append(bytes(flipped))
    codes = set()
    for case in cases:
        path.write_bytes(case)
        capsys.readouterr()
        code = main(["--config", str(cfg_path), "--quiet", "embed"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, (case, err)
        assert code != 3 or f"{path}: " in err, (case, err)
        codes.add(code)
    assert codes == {0, 2, 3}


def test_cli_ablate_child_killed_exit_1(tiny_run, tmp_path, capfd, monkeypatch):
    """A child that ends without a result, here the +venue variant's, killed
    by SIGKILL, makes ablate exit 1 naming the variant and the signal, with
    no traceback, no process left running and ablate/ as it was."""
    workdir, cfg_path = _copy_of_tiny_run(tiny_run, tmp_path)
    train_kg = pipeline_mod.train_kg

    def killed_on_plus_venue(triples, store, catalog, config):
        if _is_plus_venue(catalog):
            os.kill(os.getpid(), signal.SIGKILL)
        return train_kg(triples, store, catalog, config)

    monkeypatch.setattr(pipeline_mod, "train_kg", killed_on_plus_venue)
    before = _snapshot(workdir / "ablate")
    capfd.readouterr()
    assert main(["--config", str(cfg_path), "--quiet", "ablate"]) == 1
    err = capfd.readouterr().err
    assert "'+venue'" in err and "ended without a result (signal 9)" in err
    assert "Traceback" not in err
    assert _snapshot(workdir / "ablate") == before
    assert multiprocessing.active_children() == []


def test_cli_copied_ingest_workdir_stays_fresh(tiny_run, tmp_path):
    """No manifest depends on where the workdir lies: an ingested workdir
    copied elsewhere serves the next stage as the original does."""
    _, src_workdir = tiny_run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"paths": {
        "corpus": str(src_workdir / "corpus" / "corpus.jsonl"),
        "authors": str(src_workdir / "corpus" / "authors.jsonl")}}))
    argv = ["--config", str(cfg_path), "--quiet", "--workdir"]
    assert main(argv + [str(tmp_path / "w1"), "ingest"]) == 0
    assert main(argv + [str(tmp_path / "w1"), "index"]) == 0
    shutil.copytree(tmp_path / "w1", tmp_path / "w2")
    assert main(argv + [str(tmp_path / "w2"), "index"]) == 0


def _crafted_records(corpus, contexts, kg_emb, cutoff):
    """A corpus copy in which one pre-cutoff document's author is not in the
    KG catalog and another has no authors, and records over it that reach
    each special case of the user channels."""
    import dataclasses
    from acadsearch.corpus.model import Corpus
    from acadsearch.kg_builder import EntityKind
    before = [d.doc_id for d in corpus.docs if d.year < cutoff]
    after = [d.doc_id for d in corpus.docs if d.year >= cutoff]
    new_authors = {before[0]: ["ghost"], before[1]: []}
    crafted = Corpus([dataclasses.replace(d, author_ids=new_authors[d.doc_id])
                      if d.doc_id in new_authors else d for d in corpus.docs],
                     list(corpus.authors.values()))
    assert (EntityKind.USER, "ghost") not in kg_emb.catalog
    unpublished = next(u for u in sorted(corpus.authors) if u not in contexts)
    assert (EntityKind.USER, unpublished) in kg_emb.catalog
    published = sorted(contexts)[0]
    records = []
    for user in (published, unpublished, "nobody", None):
        for doc_ids in (before[:2] + after[:1] + before[2:9], before[:2],
                        after[1:2]):
            records.append({"query_id": f"crafted-{len(records)}",
                            "user_id": user, "text": crafted.get(before[5]).title,
                            "doc_ids": doc_ids,
                            "ordinals": [crafted.ordinal(d) for d in doc_ids]})
    return crafted, records


@pytest.mark.parametrize("channel", ["kg", "mean", "attention", "selfcite",
                                     "pagerank", "pop", "none"])
def test_user_column_matches_frozen_oracle(tiny_run, channel):
    """Every channel scores the tiny run's val and test candidates, and
    crafted records (unknown user, user without pre-cutoff papers, candidate
    without a catalogued author, candidate outside the pre-cutoff graph),
    bit for bit as the per-candidate pipeline code did."""
    from acadsearch.corpus import load_corpus
    from acadsearch.dense_encoder import (HashedBowEncoder,
                                          load_precomputed_embeddings)
    from acadsearch.graph_baselines import (CitationGraph, pagerank,
                                            pagerank_by_ordinal,
                                            popularity_by_ordinal)
    from acadsearch.kg_builder import KGConfig, build_catalog
    from acadsearch.kg_embed import load_kg_embeddings
    from acadsearch.pipeline import _load_candidates
    from acadsearch.user_models import (AggregationMode, ChannelInputs,
                                        build_user_contexts, user_column)
    from oracles import frozen_user_column, same_bits
    cfg, workdir = tiny_run
    corpus, _ = load_corpus(workdir / "corpus" / "corpus.jsonl",
                            workdir / "corpus" / "authors.jsonl")
    cutoff = json.loads((workdir / "splits" / "split.json").read_text())["cutoff_year"]
    contexts = build_user_contexts(corpus, cutoff)
    store = load_precomputed_embeddings(workdir / "embed" / "doc_embeddings.bin",
                                        expect_count=len(corpus))
    encoder = HashedBowEncoder.load(workdir / "dense" / "encoder.bin")
    catalog = build_catalog(corpus, list(corpus.authors.values()),
                            KGConfig(**cfg["kg"]))
    kg_emb = load_kg_embeddings(workdir / "kg_embed" / "transh" / "entities.bin",
                                workdir / "kg_embed" / "transh"
                                / "entities.manifest.txt", catalog)
    graph = CitationGraph.from_corpus(corpus, cutoff)
    resources = {"kg_emb": kg_emb, "contexts": contexts, "store": store,
                 "encoder": encoder, "graph": graph, "pagerank": {
                     int(o): float(s) for o, s in zip(graph.ordinals,
                                                      pagerank(graph))}}
    real = [r for split in ("val", "test") for r in _load_candidates(
        workdir / "score" / f"{split}_candidates.jsonl", corpus)]
    crafted, records = _crafted_records(corpus, contexts, kg_emb, cutoff)
    by_ordinal = {"pagerank": pagerank_by_ordinal,
                  "pop": popularity_by_ordinal}.get(channel)
    settings = ([("max", "cosine"), ("mean", "neg_l2")] if channel == "kg"
                else [("max", "cosine")])
    for aggregation, metric in settings:
        for docs, batch in ((corpus, real), (crafted, records)):
            inputs = ChannelInputs(
                docs, AggregationMode(aggregation), metric, kg=kg_emb,
                contexts=contexts, store=store, encoder=encoder,
                by_ordinal=by_ordinal(graph, len(corpus)) if by_ordinal else None)
            for record in batch:
                column = user_column(channel, inputs, record)
                expected = frozen_user_column(channel, record, docs, resources,
                                              aggregation, metric)
                assert same_bits(column, np.asarray(expected, dtype=np.float64)), (
                    record["query_id"], aggregation, metric)
    assert len(real) > 60
