"""The acadsearch benchmark.

    python3 perfbench/run.py --workload build|query|ablate [--seed 7]
        [--seconds 10] [--trace 0|1] [--scale bench|smoke] [--out DIR]

Run it from anywhere inside a checkout: it imports the package from the
checkout's ``src/`` and builds nothing. Workloads (see workloads.py):

* ``build``: index, splits, train-dense, embed, build-kg, train-kg transh
  and transe, after a ``synth`` set-up;
* ``query``: score, then tune and eval once per user channel, after the
  ``build`` stages as set-up;
* ``ablate``: the ablation stage, after the ``build`` stages without transe
  plus ``score`` as set-up.

Load shape: one caller, a closed loop, ``--threads 1`` and one BLAS thread.
A run

1. times a fixed memory-bound numpy loop in its own process
   (``host.calib_s``), so that drift of the host shows beside the figures;
2. runs the set-up several times, each in a fresh process and directory;
   ``setup_s`` is the median;
3. repeats the timed body, each time in a fresh process on a copy of the
   set-up's output, until ``--seconds`` have passed and at least a minimum
   number of times; ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are medians;
4. with ``--trace 1``, runs set-up and body once more, each in a fresh
   process with every layer traced, writes the spans and reports the
   per-layer metrics.

Every repetition's outputs are checked and fingerprinted; a run is correct
when no stage invocation failed and all fingerprints of the run agree. The
last line of standard output is one JSON object with ``correct``,
``attempted`` (stage invocations), ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. A full report goes to ``<out>/<workload>-seed<seed>-trace<t>.json``
(``<out>`` defaults to ``.bench`` at the checkout root).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics as m  # noqa: E402
import workloads as wl  # noqa: E402

# set-up repetitions and the minimum number of body repetitions per scale
REPS = {"bench": (3, 3), "smoke": (2, 2)}
DEADLINE_S = 170.0   # a run must end within 180 s
QUERY_UNITS = {"queries_per_s": "1/s", "map100": "ratio", "ndcg10": "ratio"}
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def host_calibration() -> float:
    """Seconds for a fixed memory-bound loop over two 32 MB arrays."""
    import numpy as np
    a = np.ones(4_000_000)
    b = np.empty_like(a)
    start = time.perf_counter()
    for _ in range(16):
        np.multiply(a, 0.5, out=b)
        np.add(b, 1.0, out=a)
    return time.perf_counter() - start


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in (root / "src").rglob("*.py"))


class Runner:
    def __init__(self, args, out: Path):
        self.args = args
        self.out = out
        self.work = out / f"work-{args.workload}-seed{args.seed}"
        self.run_id = uuid.uuid4().hex
        self.started = time.monotonic()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, phase: str, workdir: Path, trace: bool = False) -> dict:
        """Run one phase in a fresh process; a crash counts as one failure."""
        stem = f"{self.args.workload}-seed{self.args.seed}"
        spec = {"root": str(ROOT), "workload": self.args.workload,
                "scale": self.args.scale, "seed": self.args.seed,
                "workdir": str(workdir), "phase": phase, "trace": trace,
                "run_id": self.run_id,
                "result": str(workdir.with_suffix(".result.json")),
                "spans": str(self.out / f"{stem}-{phase}-spans.jsonl.gz")}
        spec_path = workdir.with_suffix(".spec.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path = Path(spec["result"])
        result_path.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=2, env={**os.environ, **CHILD_ENV},
                timeout=max(self.remaining(), 1.0))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code == 0 and result_path.exists():
            return json.loads(result_path.read_text(encoding="utf-8"))
        return {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 1,
                "failed": 1, "errors": [f"{phase} process ended with {code}"]}

    def body(self, base: Path, trace: bool = False) -> dict:
        """A body repetition on a fresh copy of the set-up's output."""
        rep_dir = self.work / "rep"
        shutil.copytree(base, rep_dir)
        try:
            return self.child("body", rep_dir, trace)
        finally:
            shutil.rmtree(rep_dir)

    def run(self) -> dict:
        args = self.args
        setup_reps, min_reps = REPS[args.scale]
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        calib = host_calibration()

        setups = []
        for i in range(setup_reps):
            base = self.work / f"setup{i}"
            setups.append(self.child("setup", base))
            if setups[-1]["failed"]:
                break
            if i:
                shutil.rmtree(self.work / f"setup{i - 1}")

        bodies = []
        began = time.monotonic()
        while not setups[-1]["failed"]:
            rep_started = time.monotonic()
            bodies.append(self.body(base))
            rep_cost = time.monotonic() - rep_started
            # stop while one more repetition, and the traced pair, still fit
            needed = 2 * rep_cost + (rep_cost + setups[-1]["wall_s"]
                                     if args.trace else 0.0)
            if bodies[-1]["failed"] or self.remaining() < needed:
                break
            if len(bodies) >= min_reps and time.monotonic() - began >= args.seconds:
                break

        traced = []
        if args.trace and bodies and not bodies[-1]["failed"]:
            traced = [self.child("setup", self.work / "traced-setup", trace=True),
                      self.body(base, trace=True)]
        shutil.rmtree(self.work, ignore_errors=True)
        return {"calib": calib, "setups": setups, "bodies": bodies,
                "traced": traced}


def summarize(args, raw: dict) -> dict:
    setups, bodies, traced = raw["setups"], raw["bodies"], raw["traced"]
    parts = setups + bodies + traced
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    setup_prints = {s.get("fingerprint") for s in setups + traced[:1]}
    body_prints = {b.get("fingerprint") for b in bodies + traced[1:]}
    correct = (failed == 0 and len(bodies) > 0 and len(setup_prints) == 1
               and len(body_prints) == 1 and None not in body_prints | setup_prints)

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "failed_frac": failed / max(attempted, 1),
               "fingerprint": sorted(p for p in body_prints if p),
               "setup_fingerprint": sorted(p for p in setup_prints if p),
               "reps": len(bodies), "setup_reps": len(setups),
               "body_wall_s": [b["wall_s"] for b in bodies],
               "setup_wall_s": [s["wall_s"] for s in setups],
               "host.calib_s": raw["calib"], "end_to_end": {}, "per_layer": {},
               "errors": [e for p in parts for e in p["errors"]]}
    if not correct:
        return summary

    e2e = summary["end_to_end"]
    e2e["wall_s"] = statistics.median(b["wall_s"] for b in bodies)
    e2e["cpu_s"] = statistics.median(b["cpu_s"] for b in bodies)
    e2e["peak_rss_mb"] = statistics.median(b["peak_rss_mb"] for b in bodies)
    e2e["setup_s"] = statistics.median(s["wall_s"] for s in setups)
    margins = bodies[0]["margins"]
    if args.workload == "query":
        summary["query"] = {
            "queries_per_s": bodies[0]["query_pairs"] / e2e["wall_s"],
            "map100": margins["eval.fused_transh.map100"],
            "ndcg10": margins["eval.fused_transh.ndcg10"]}
    summary["stage_s"] = {label: statistics.median(
        b["stage_s"][i][1] for b in bodies)
        for i, (label, _) in enumerate(bodies[0]["stage_s"])}

    if traced:
        traced_setup, traced_body = traced
        per = m.span_metrics(traced_body["layers"], traced_setup["layers"])
        per["trace.overhead_s"] = traced_body["wall_s"] - e2e["wall_s"]
        per["host.calib_s"] = raw["calib"]
        per["count.encoder_steps"] = traced_body["counts"].get("count.encoder_steps", 0)
        per["count.kg_steps"] = traced_body["counts"].get("count.kg_steps", 0)
        per["count.src_lines"] = src_lines(ROOT)
        per["query.queries_per_s"] = summary.get("query", {}).get("queries_per_s", 0.0)
        for name, _, _ in m.PER_LAYER:
            if name.startswith(("claim.", "eval.")):
                per[name] = margins.get(name, 0.0)
        summary["per_layer"] = per
        stage_sum = sum(v for k, v in per.items()
                        if k.startswith("pipeline.") and k.endswith(".s"))
        summary["stage_span_share"] = stage_sum / traced_body["phase_span_s"]
    return summary


def print_report(args, summary: dict) -> None:
    def line(name, value, unit):
        print(f"  {name:<42} {value:>14.6g} {unit}")

    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {summary['setup_reps']} set-ups, "
          f"{summary['reps']} timed repetitions, correct={summary['correct']}")
    for name, unit, *_ in m.END_TO_END:
        if name in summary["end_to_end"]:
            line(name, summary["end_to_end"][name], unit)
    for name, value in summary.get("query", {}).items():
        line(name, value, QUERY_UNITS[name])
    line("failed_frac", summary["failed_frac"], "ratio")
    line("host.calib_s", summary["host.calib_s"], "s")
    for label, value in summary.get("stage_s", {}).items():
        line(f"stage {label}", value, "s")
    for name, unit, _ in m.PER_LAYER:
        if name in summary["per_layer"]:
            line(name, summary["per_layer"][name], unit)
    if "stage_span_share" in summary:
        line("pipeline stage spans / traced body wall",
             summary["stage_span_share"], "ratio")
    for fp in summary["fingerprint"]:
        print(f"  output fingerprint sha256:{fp}")
    for err in summary["errors"]:
        print(f"  error: {err.strip().splitlines()[-1]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(wl.SCALES), default="bench")
    parser.add_argument("--out", help="directory for work files and reports "
                        "(default: .bench at the checkout root)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acadsearch" / "pipeline.py").is_file():
        print(f"perfbench: no acadsearch sources at {ROOT / 'src'}; run the "
              "benchmark inside a checkout of the repository", file=sys.stderr)
        return 2
    out = Path(args.out).resolve() if args.out else ROOT / ".bench"
    out.mkdir(parents=True, exist_ok=True)

    summary = summarize(args, Runner(args, out).run())
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print_report(args, summary)
    names = m.PER_LAYER if args.trace else m.END_TO_END
    values = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in names if name in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
