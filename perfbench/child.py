"""One repetition of a workload phase, in a process of its own.

    python3 perfbench/child.py SPEC.json

SPEC names the checkout root, workload, scale, seed, workdir, phase,
whether to trace, and the files for the result and the spans. Phase
``setup`` runs the set-up steps; ``body`` runs the timed steps on a workdir
that already holds the set-up's output. The process runs nothing else, so
its peak resident set is that of the phase. Wall and CPU time are summed
over the stage calls only; the output checks after them are not timed.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import workloads as wl


def _tree_fingerprint(workdir: Path) -> str:
    """Set-up outputs, minus files that record durations or paths."""
    files = sorted(p for p in workdir.rglob("*") if p.is_file()
                   and p.name not in ("manifest.json", wl.CONFIG_FILE))
    return wl.sha256_files(files)


def run_steps(steps, workdir: Path, spec: dict, tracer, phase: str) -> dict:
    out = {"wall_s": 0.0, "cpu_s": 0.0, "attempted": 0, "failed": 0,
           "errors": [], "stage_s": [], "snapshots": []}
    with tracer.span(phase) if tracer else nullcontext():
        for step in steps:
            out["attempted"] += 1
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                with tracer.span(f"pipeline.{step.stage}") if tracer else nullcontext():
                    wl.run_step(workdir, spec["scale"], step)
            except Exception:  # any failure is counted, then the phase stops
                out["failed"] += 1
                out["errors"].append(f"{step.label}: {traceback.format_exc()}")
                return out
            finally:
                wall = time.perf_counter() - wall0
                out["wall_s"] += wall
                out["cpu_s"] += time.process_time() - cpu0
                out["stage_s"].append([step.label, wall])
            if step.stage == "eval":
                out["snapshots"].append(
                    (workdir / "eval" / "metrics.json").read_bytes())
    return out


def check_body(workload: str, workdir: Path, scale: str, snapshots) -> dict:
    """Fingerprint, claim margins and query pairs of a finished body."""
    if workload == "build":
        fingerprint = wl.check_build(workdir, scale)
    elif workload == "query":
        fingerprint = wl.check_query(workdir, snapshots)
    else:
        fingerprint = wl.check_ablate(workdir)
    out = {"fingerprint": fingerprint,
           "margins": wl.claim_margins(workload, workdir)}
    if workload == "query":
        out["query_pairs"] = wl.query_pairs(workdir)
    return out


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    # imported before any timing, so the first stage does not pay for it
    import acadsearch.pipeline  # noqa: F401

    from spans import Tracer

    workload = wl.WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    wl.write_config(workdir, spec["scale"], spec["seed"])
    phase = spec["phase"]
    steps = workload.setup if phase == "setup" else workload.body
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer:
        tracer.install()
    try:
        result = run_steps(steps, workdir, spec, tracer, phase)
    finally:
        if tracer:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.stats(phase)
        _, _, start, end = tracer.spans[0]
        result["phase_span_s"] = end - start
        result["counts"] = dict(tracer.counts.get(phase, {}))
        tracer.write(Path(spec["spans"]))
    if not result["failed"]:
        try:
            if phase == "setup":
                result["fingerprint"] = _tree_fingerprint(workdir)
            else:
                result.update(check_body(workload.name, workdir, spec["scale"],
                                         result["snapshots"]))
        except Exception:  # a failed check counts as a failed invocation
            result["failed"] += 1
            result["errors"].append(f"output check: {traceback.format_exc()}")
    del result["snapshots"]
    for err in result["errors"]:
        print(f"perfbench child ({phase}): {err}", file=sys.stderr)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
