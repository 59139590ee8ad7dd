"""The benchmark harness, run end to end at toy scale (600 documents).

    python -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as m  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "smoke", "--seconds", "0",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_harness():
    spec = declared()
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in spec["end_to_end"]] == list(m.END_TO_END)
    assert [(e["name"], e["unit"], e["better"])
            for e in spec["per_layer"]] == list(m.PER_LAYER)


@pytest.mark.parametrize("workload", ["build", "query", "ablate"])
def test_workload_runs_checks_and_traces(tmp_path, workload):
    proc = bench("--workload", workload, "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [e["name"] for e in declared()["per_layer"]]

    report = json.loads((tmp_path / f"{workload}-seed7-trace1.json")
                        .read_text(encoding="utf-8"))
    assert set(report["end_to_end"]) == {name for name, *_ in m.END_TO_END}
    assert all(v > 0 for v in report["end_to_end"].values())
    # the stage spans account for the traced body's wall time
    assert 0.95 < report["stage_span_share"] <= 1.0
    for phase in ("setup", "body"):
        assert (tmp_path / f"{workload}-seed7-{phase}-spans.jsonl.gz").exists()
    assert not (tmp_path / f"work-{workload}-seed7").exists()
    if workload == "query":
        assert set(report["query"]) == {"queries_per_s", "map100", "ndcg10"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "build", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
