"""Run benchmark workloads in two checkouts, in alternating pairs.

Usage::

    python tools/bench_pairs.py PARENT CHANGE --workload update \\
        [--workload sections ...] --pairs 10 --seed 1 --seconds 30 [--trace 0]

PARENT and CHANGE are checkouts of the repository. Each workload named is
measured in turn. Pair i runs ``perfbench/run.py`` once in each, the
parent first when i is even and the change first when it is odd, so that
a drift of the machine does not land on one side only. Only the last line
of each run's output is read: the JSON object with ``correct`` and
``metrics``. For each metric the tool prints each side's median,
quartiles {q1-q3} and [min-max] range, and the number of pairs the change
read better, by the ``better`` direction that the change's
``BENCHMARK.json`` gives; ties count for neither side.

It then says whether the change meets the claim rule for a gain: it read
better in at least nine tenths of the pairs, and its median is better than
the parent's by more than the parent's interquartile spread (q3 - q1).
For a metric with a ``bound`` it also gives the guard verdict: "within
bound" when the change's median is worse than the parent's by at most the
bound (a fraction of the parent's median), "worse than bound" when by more,
and "unresolved" when the parent's interquartile spread, as a fraction of
its median, exceeds the bound, unless every run of the change read better
than every run of the parent.
Standard library only; it edits no tracked file of either checkout. With
``--trace 1``, ``perfbench/run.py`` leaves
``.perfbench_work/trace-<workload>.tsv`` in each checkout, in a directory
that git ignores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, args: argparse.Namespace) -> dict:
    """The last output line of one benchmark run in *checkout*, parsed."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def shown(value: float) -> str:
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles; a single run is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return (
        f"{shown(statistics.median(values))} {{{shown(q1)}-{shown(q3)}}} "
        f"[{shown(min(values))}-{shown(max(values))}]"
    )


def claim_met(parent: list[float], change: list[float], sign: int, wins: int) -> bool:
    """At least 9 of 10 pairs won, and a median gap in the better direction
    larger than the parent's interquartile spread."""
    q1, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return 10 * wins >= 9 * len(parent) and gap > q3 - q1


def guard(parent: list[float], change: list[float], sign: int, bound: float | None) -> str:
    """The guard verdict of the change against *bound* (see the module docstring)."""
    if bound is None:
        return "no bound"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "within bound"
    q1, q3 = quartiles(parent)
    base = abs(statistics.median(parent))
    worse = sign * (statistics.median(parent) - statistics.median(change))
    if q3 - q1 > bound * base:
        return "unresolved"
    return "worse than bound" if worse > bound * base else "within bound"


def measure(workload: str, args: argparse.Namespace, metrics: list[dict]) -> None:
    """Run the pairs of one workload and print its table."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), workload, args))
        print(f"{workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"{workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s runs, trace {args.trace}")
    for side, results in runs.items():
        correct = sum(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{side}: {correct}/{len(results)} runs correct, {failed} failed ops")
    print(
        "metric: parent median {q1-q3} [min-max] -> change median {q1-q3} [min-max], "
        "pairs the change read better, claim rule, guard"
    )
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        verdict = "met" if claim_met(parent, change, sign, wins) else "not met"
        print(
            f"{name}: {summary(parent)} -> {summary(change)}, {wins}/{args.pairs}, "
            f"{verdict}, {guard(parent, change, sign, metric.get('bound'))}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    for i, workload in enumerate(args.workload):
        if i:
            print()
        measure(workload, args, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
