"""Benchmark for ctxdl: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload reason --seed 1 --seconds 20 --trace 0

Workloads: reason, update, sections (library calls in this process) and
cli (one ``python -m ctxdl.cli`` child at a time). ``--trace 0`` measures
the end-to-end metrics of BENCHMARK.json with tracing off; ``--trace 1``
makes a separate traced run and reports its per-layer metrics. Each
metric is printed as ``name value unit``; the last line is one JSON object
with keys correct, attempted, failed and metrics. Every op's output is
checked against a reference.

The end-to-end times are given at reference speed (see harness.py): each
measured time is scaled by how fast a fixed reference job ran around it,
so that other tenants of a shared machine do not move them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = {"reason": "reason.Reason", "update": "update.Update", "sections": "sections.Sections", "cli": "tour.Tour"}
SETUP_REPEATS = 3
# Fresh-interpreter imports vary most of the set-up: by about 0.15 of
# their median from one import to the next under interference.
IMPORT_REPEATS = 7
# String hashing decides the layout of every set and dict in the engine;
# left random, it moves update's latency_p90_ms by up to 8% from one
# process to the next with the same inputs. Fixed, runs repeat.
HASH_SEED = "0"
TRACE_ROUNDS = 3


def stamp() -> dict:
    """What a result must be compared under: never across machines or versions."""
    src = sorted((ROOT / "src" / "ctxdl").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():  # a checkout without git history has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg()[0],
        "git_commit": commit,
        "src_sha256": digest,
        "machine": platform.machine(),
    }


def import_seconds(module_name: str) -> list[float]:
    """Fresh interpreters importing the workload and the engine with it, at reference speed.

    The reference job is an interpreter start: the in-process loop tracks
    the slowdown of child processes worse than no reference at all.
    """
    from tour import child_env, start_reference

    reference = start_reference()
    code = (
        f"import sys, time; sys.path[:0] = {[str(ROOT / 'src'), str(BENCH)]!r}; "
        f"t = time.perf_counter(); import {module_name}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        reference.sample()
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing {module_name} failed: {done.stderr.strip()[-300:]}")
        times.append((float(done.stdout), time.perf_counter()))
    reference.sample()
    return [took * reference.factor(moment) for took, moment in times]


def library_trace_run(workload) -> tuple[dict[str, float], "Tally"]:
    """Set-up traced, then untraced and traced passes in turn.

    The per-layer numbers come from the traced set-up and passes.
    """
    from tracing import Tracer, compare

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    plain, traced, overhead = compare(workload.ops, TRACE_ROUNDS, tracer)
    out = tracer.per_layer()
    out["trace.overhead_ratio"] = overhead
    out.update(workload.scaling(plain.by_label))
    workload.tracer = tracer
    traced.absorb(plain)
    return out, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))

    if not (ROOT / "src" / "ctxdl" / "__init__.py").is_file():
        print(f"error: no ctxdl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    info = stamp()
    print("stamp " + json.dumps(info, sort_keys=True))

    module_name, class_name = WORKLOADS[args.workload].split(".")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from harness import Reference, latency_summary, run_for

    module = importlib.import_module(module_name)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = getattr(module, class_name)(args.seed, workdir)
    reference = workload.reference() if hasattr(workload, "reference") else Reference()
    try:
        imports = import_seconds(module_name)
        setups = []
        for _ in range(SETUP_REPEATS):
            reference.sample()
            t0 = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - t0, time.perf_counter()))
        reference.sample()
        probe_failed = []
        probe = getattr(workload, "known_defect", None)
        if probe is not None:
            try:
                probe()
            except Exception as exc:  # a wrong outcome counts like any failed op
                probe_failed.append(f"known_defect: {type(exc).__name__}")
            if workload.defect:
                print(f"known defect: {workload.defect}; reported, not counted as failed")
        if args.trace:
            trace_run = getattr(workload, "trace_run", None)
            values, tally = trace_run(args.seconds) if trace_run else library_trace_run(workload)
        else:
            tally = run_for(workload.ops, args.seconds, reference)
        if probe is not None:
            tally.attempted += 1
            tally.failed += len(probe_failed)
            tally.errors.update(probe_failed)
    finally:
        if hasattr(workload, "close"):
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        workload.tracer.write(WORK / f"trace-{args.workload}.tsv")
    else:
        summary = latency_summary(tally)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        loads = [took * reference.factor(moment) for took, moment in setups]
        values = {
            "ops_per_s": summary["ops_per_s"],
            "latency_p50_ms": summary["latency_p50_ms"],
            "latency_p90_ms": summary["latency_p90_ms"],
            "setup_s": statistics.median(imports) + statistics.median(loads),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        print(
            f"set-up at reference speed: imports {[round(t, 4) for t in imports]} s, "
            f"generation and loading {[round(t, 4) for t in loads]} s"
        )
        print(
            f"{summary['samples']} samples of {summary['ops']} ops in {len(tally.pass_times)} passes; "
            f"latency_p90_ms is the p{summary['tail_percentile']:.1f} of the ops' median latencies; "
            f"{summary['reference_samples']} reference samples"
        )
    for error, count in sorted(tally.errors.items()):
        print(f"failed: {error} x{count}")

    names = [m["name"] for m in wanted]
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        print(f"{m['name']} {metrics[m['name']]['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
