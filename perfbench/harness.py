"""The closed measuring loop shared by every workload.

One caller runs the workload's fixed op list in whole passes, one op at a
time, with no threads. Every op is timed on its own; an op that raises or
whose output differs from its reference counts as failed, its exception
class is recorded, and the run goes on.

On a shared machine other tenants slow the processor by up to a factor
of two, in stretches from under a second to minutes (seen on a 2-vCPU
virtual machine, with no steal time reported), and a stretch can cover a
whole run. So the timed run interleaves a fixed reference job with the
ops, about every CALIBRATE_EVERY seconds, and gives each op's latency at
reference speed: its measured time times the job's nominal time over the
job's time around it (the median of the REFERENCE_NEIGHBOURS samples
nearest in time). Interference slows the reference job with the op and
largely cancels out; a change to ctxdl moves only the op. Every op runs
once per pass; its latency in the run is the median over the passes.

The library workloads use reference_loop, pure-Python work of three
kinds the engine does: small tuples and frozensets, building and sorting
strings, and lookups spread over a table larger than the processor's
inner caches. Over ten minutes of heavy interference, in which the
medians of 20-second stretches of update's interact runs and of
global_sections spread by 0.3 to 0.5 of their value, the same medians at
reference speed spread by 0.05 to 0.12. The cli workload, whose ops are processes,
uses an interpreter start instead (see tour.py).
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


CALIBRATE_EVERY = 0.1
REFERENCE_NEIGHBOURS = 6
# reference_loop's best time on the machine the benchmark was written on
# (x86-64 VM, 2 vCPUs at 2.0 GHz, CPython 3.11).
REFERENCE_LOOP_S = 0.0047
_TABLE_SIZE = 30_000
_table: dict[tuple[int, int], int] = {}
_probes: list[tuple[int, int]] = []


def reference_loop() -> int:
    """A fixed stretch of interpreter work like the engine's; see the module notes."""
    if not _table:
        _table.update({(i, i * 7919 % 30011): i for i in range(_TABLE_SIZE)})
        _probes.extend(random.Random(0).sample(list(_table), 4_000))
    seen: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(3_000):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        total += len(frozenset((i & 15, (i >> 4) & 15))) + (key in seen)
    facts = {f"i{i % 60}:P{i % 12}@K{i % 8}" for i in range(3_000)}
    total += len(sorted(facts))
    for key in _probes:
        total += _table[key]
    return total


class Reference:
    """Timed samples of a reference job, and the slowdown they show at a moment."""

    def __init__(self, job: Callable[[], object] = reference_loop, nominal_s: float = REFERENCE_LOOP_S) -> None:
        self.job = job
        self.nominal_s = nominal_s
        self.at: list[float] = []
        self.took: list[float] = []
        job()  # warm-up, untimed

    def sample(self) -> None:
        # Collector off: garbage the engine left behind must not bill the job.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.job()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append(end)
        self.took.append(end - start)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= CALIBRATE_EVERY

    def factor(self, moment: float) -> float:
        """The nominal time over the job's time near *moment*."""
        i = bisect.bisect(self.at, moment)
        half = REFERENCE_NEIGHBOURS // 2
        lo = max(0, min(i - half, len(self.at) - REFERENCE_NEIGHBOURS))
        return self.nominal_s / statistics.median(self.took[lo : lo + REFERENCE_NEIGHBOURS])


class Mismatch(Exception):
    """An op completed but its output differs from the reference."""


@dataclass(frozen=True)
class Op:
    """One unit of work.

    *run* returns None when the op is timed as a whole, or the list of
    latencies of the *count* sub-ops it timed itself (as the ``update``
    workload does for the interact runs inside one stability check).
    """

    label: str
    run: Callable[[], list[float] | None]
    count: int = 1


@dataclass
class Tally:
    # Latencies of each pass, one slot per op (per sub-op) in list order;
    # None where the op failed. *moments* holds when each op ended.
    passes: list[list[float | None]] = field(default_factory=list)
    moments: list[list[float]] = field(default_factory=list)
    by_label: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    pass_times: list[float] = field(default_factory=list)
    # Set for timed runs only: traced runs compare raw pass times.
    reference: Reference | None = None

    @property
    def busy(self) -> float:
        return sum(self.pass_times)

    def absorb(self, other: "Tally") -> None:
        """Count another tally's ops and failures in this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.update(other.errors)


def run_pass(ops: list[Op], tally: Tally) -> None:
    latencies: list[float | None] = []
    moments: list[float] = []
    tally.passes.append(latencies)
    tally.moments.append(moments)
    reference = tally.reference
    start = time.perf_counter()
    for op in ops:
        if reference is not None and reference.due():
            reference.sample()
        t0 = time.perf_counter()
        try:
            sub = op.run()
        except Exception as exc:  # one failing op must not end the run
            tally.attempted += op.count
            tally.failed += op.count
            tally.errors[f"{op.label}: {type(exc).__name__}"] += op.count
            latencies.extend([None] * op.count)
            moments.extend([time.perf_counter()] * op.count)
            continue
        end = time.perf_counter()
        times = sub if sub is not None else [end - t0]
        tally.attempted += len(times)
        latencies.extend(times)
        moments.extend([end] * len(times))
        tally.by_label.setdefault(op.label, []).extend(times)
    if reference is not None:
        reference.sample()  # the pass's last ops need a later neighbour too
    tally.pass_times.append(time.perf_counter() - start)


def run_for(ops: list[Op], seconds: float, reference: Reference) -> Tally:
    """Whole passes until another pass would overrun *seconds* (at least one)."""
    tally = Tally(reference=reference)
    while True:
        run_pass(ops, tally)
        if tally.busy + tally.pass_times[-1] > seconds:
            return tally


def tail_percentile(n: int) -> float:
    """The highest percentile up to 90 that leaves at least ten samples beyond it."""
    return max(0.0, min(0.90, 1.0 - 10.0 / n)) if n else 0.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_summary(tally: Tally) -> dict[str, float]:
    """Throughput, median and tail latency over each op's latency at reference speed.

    The tail percentile is fixed from the run's whole sample count.
    """
    factor = tally.reference.factor
    per_op = [
        statistics.median(t * factor(m) for t, m in zip(slot, moments) if t is not None)
        for slot, moments in zip(zip(*tally.passes), zip(*tally.moments))
        if any(t is not None for t in slot)
    ]
    if not per_op:
        raise RuntimeError("no op completed")
    samples = sum(t is not None for p in tally.passes for t in p)
    q = tail_percentile(samples)
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_p90_ms": percentile(per_op, q) * 1e3,
        "tail_percentile": q * 100,
        "samples": samples,
        "ops": len(per_op),
        "reference_samples": len(tally.reference.took),
    }
