"""Time the reasoner's layers, in microseconds per call.

Usage: ``python tools/layers.py`` (standard library only, plus ``src/``).

The inputs are those of the ``reason`` workload at seed 1, built by
``perfbench/gen.py`` (imported and not edited) and loaded from text. Four
cases, each the best of 20 passes in one process:

- ``subsumes`` over every ordered pair of names of the two classification
  TBoxes (420 calls a pass);
- ``is_satisfiable`` over the 50 instances of the random pool;
- ``is_satisfiable`` over the disjunction ladders, n = 10, 12 and 14;
- ``find_witness`` over the pool's unsat instances, domain capped as the
  workload caps it.

The same case reads very differently from one process to the next on a
shared machine, so the cases are timed in 5 fresh child processes. One
line is printed per case: the median [min-max] over the processes, as
``tools/sessions.py`` and ``tools/bench_pairs.py`` report their runs.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen
from ctxdl.concepts import parse_concept
from ctxdl.kbfile import loads
from ctxdl.reasoner import find_witness, is_satisfiable, subsumes

SEED = 1  # the reason workload's seed: it picks the names and the ladders' conjunct order
LADDER_SIZES = (10, 12, 14)
POOL_SEED, POOL_SIZE = 7, 50
PASSES = 20  # passes per case in one process, best kept
PROCESSES = 5
CASES = (
    "subsumes        classification pairs",
    "is_satisfiable  random pool",
    "is_satisfiable  ladders",
    "find_witness    pool unsat",
)


def inputs() -> list[list[tuple]]:
    """The argument tuples of each case, in the order of CASES."""
    rng = random.Random(SEED)
    labels = [f"Q{i}" for i in rng.sample(range(100), 16)]
    structure = random.Random(0)
    pairs = []
    for _ in range(2):
        cls = gen.classification_tbox(structure, labels)
        doc = loads(cls.text)
        atoms = [parse_concept(name, doc.signature) for name in cls.names]
        pairs += [(doc.tbox, a, b) for a in atoms for b in atoms if a is not b]
    ladders = []
    for n in LADDER_SIZES:
        ladder = gen.ladder(rng, n)
        doc = loads(ladder.text)
        ladders.append((doc.tbox, parse_concept(ladder.concept, doc.signature)))
    pool, unsat = [], []
    for inst in gen.instance_pool(POOL_SEED, POOL_SIZE):
        doc = loads(inst.text)
        concept = parse_concept(inst.concept, doc.signature)
        pool.append((doc.tbox, concept))
        if not is_satisfiable(doc.tbox, concept):
            unsat.append((doc.signature, doc.tbox, concept, inst.domain))
    return [pairs, pool, ladders, unsat]


def best_per_call(fn, calls: list[tuple]) -> float:
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - start)
    return min(times) / len(calls) * 1e6


def child() -> None:
    """Print the JSON list of the microseconds per call of each case."""
    cases = inputs()
    fns = (subsumes, is_satisfiable, is_satisfiable, find_witness)
    print(json.dumps([best_per_call(fn, calls) for fn, calls in zip(fns, cases)]))


def main() -> None:
    runs = []
    for _ in range(PROCESSES):
        done = subprocess.run(
            [sys.executable, "-c", "import layers; layers.child()"],
            cwd=Path(__file__).parent, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(done.stdout))
    for label, times in zip(CASES, zip(*runs)):
        print(f"{label}  {statistics.median(times):8.2f} [{min(times):.2f}-{max(times):.2f}] us/call", flush=True)


if __name__ == "__main__":
    main()
