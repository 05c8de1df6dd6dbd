"""Time the reasoner's layers and oracle sessions, in microseconds per
call or per query.

Usage: ``python tools/layers.py`` (standard library only, plus ``src/``).

The inputs are built by ``perfbench/gen.py`` (imported and not edited)
and loaded from text. The reasoner's cases take the inputs of the
``reason`` workload at seed 1, and each is the best of 20 passes in one
process:

- ``subsumes`` over every ordered pair of names of the two classification
  TBoxes (420 calls a pass);
- ``is_satisfiable`` over the 50 instances of the random pool;
- ``is_satisfiable`` over the disjunction ladders, n = 10, 12 and 14;
- ``find_witness`` over the pool's unsat instances, domain capped as the
  workload caps it.

The session cases take fact sets of 3,000 and 10,000 assertions, built as
the ``update`` workload builds its scaling inputs; each loaded state's
digest is read once before timing, as an agent's base state is. Each
query's response adds 3 assertions that the state does not hold, spread
over the sorted order. Each case is the best of 5 runs in one process:

- ``run_session`` of 50 and of 500 queries, on one working state;
- a chain of 50 ``oracle_step`` calls with the same responses, each
  freezing a new state that the next step starts from.

The same case reads very differently from one process to the next on a
shared machine, so each group of cases (the reasoner's, and the sessions'
on each fact set) is timed in 5 fresh child processes, the groups taken
in turn. One line is printed per case: the median [min-max] over the
processes, as ``tools/bench_pairs.py`` reports its runs.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen
from ctxdl.concepts import Atomic, parse_concept
from ctxdl.kb import ConceptAssertion
from ctxdl.kbfile import loads
from ctxdl.oracle import OracleQuery, OracleResponse, OracleSpec, oracle_step, run_session
from ctxdl.reasoner import find_witness, is_satisfiable, subsumes

PROCESSES = 5  # fresh child processes per group of cases

SEED = 1  # the reason workload's seed: it picks the names and the ladders' conjunct order
LADDER_SIZES = (10, 12, 14)
POOL_SEED, POOL_SIZE = 7, 50
PASSES = 20  # passes per reasoner case in one process, best kept

SIZES = (3_000, 10_000)
SESSIONS = (50, 500)  # queries per run_session
CHAIN = 50  # oracle_step calls per chain
ADDED = 3  # fresh assertions per response
REPEATS = 5  # runs per session case in one process, best kept
INDIVIDUALS = [f"i{i}" for i in range(200)]
KEPT, FRESH = gen.UPDATE_CONCEPTS[:12], gen.UPDATE_CONCEPTS[12:]  # the fact sets use only the first 12

GROUPS = ("reasoner", *map(str, SIZES))


def best(run, units: int, repeats: int) -> float:
    """The best of *repeats* runs of *run*, in microseconds per unit."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times) / units * 1e6


def reasoner_inputs() -> list[list[tuple]]:
    """The argument tuples of each reasoner case, in the order printed."""
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


def call_each(fn, calls: list[tuple]) -> None:
    for args in calls:
        fn(*args)


def reasoner_cases() -> list[tuple[str, str, float]]:
    labels = (
        "subsumes        classification pairs",
        "is_satisfiable  random pool",
        "is_satisfiable  ladders",
        "find_witness    pool unsat",
    )
    fns = (subsumes, is_satisfiable, is_satisfiable, find_witness)
    return [
        (label, "us/call", best(partial(call_each, fn, calls), len(calls), PASSES))
        for label, fn, calls in zip(labels, fns, reasoner_inputs())
    ]


class Scripted(OracleSpec):
    """Answers payload i with the i-th response; ``ask`` reads the digest first."""

    name = "probe"

    def __init__(self, responses: list[OracleResponse]):
        self.responses = responses

    def respond(self, digest: str, payload: str) -> OracleResponse:
        return self.responses[int(payload)]


def loaded_state(rng: random.Random, size: int):
    abox = gen.random_abox(rng, size, INDIVIDUALS, KEPT, gen.UPDATE_ROLES)
    body = gen.poset_text() + "abox\n" + "".join(f"  {a}.\n" for a in abox)
    doc = loads(gen.kb_text(gen.UPDATE_CONCEPTS, gen.UPDATE_ROLES, INDIVIDUALS + ["nobody"], (), body))
    state = doc.state()
    state.digest  # sorted once, as an agent's base state is
    return state


def responses(rng: random.Random, queries: int) -> list[OracleResponse]:
    heads = rng.sample(list(product(INDIVIDUALS, FRESH, gen.CONTEXTS)), queries * ADDED)
    facts = [ConceptAssertion(ind, Atomic(concept), ctx) for ind, concept, ctx in heads]
    return [OracleResponse(frozenset(facts[i : i + ADDED])) for i in range(0, len(facts), ADDED)]


def chain(state, spec: Scripted, steps: int) -> None:
    for i in range(steps):
        state, _ = oracle_step(state, spec, OracleQuery(spec.name, str(i)))


def session_cases(size: int) -> list[tuple[str, str, float]]:
    rng = random.Random(size)
    state = loaded_state(rng, size)
    spec = Scripted(responses(rng, max(SESSIONS)))
    cases = []
    for n in SESSIONS:
        queries = [OracleQuery(spec.name, str(i)) for i in range(n)]
        label = f"run_session  {size:6,d} facts  {n:3d} queries"
        cases.append((label, "us/query", best(partial(run_session, state, spec, queries), n, REPEATS)))
    label = f"oracle_step  {size:6,d} facts  {CHAIN:3d} chained"
    cases.append((label, "us/query", best(partial(chain, state, spec, CHAIN), CHAIN, REPEATS)))
    return cases


def child(group: str) -> None:
    """Print the JSON list of (label, unit, microseconds) of each case of *group*."""
    print(json.dumps(reasoner_cases() if group == "reasoner" else session_cases(int(group))))


def main() -> None:
    runs: dict[tuple[str, str], list[float]] = {}  # in the order printed
    for _ in range(PROCESSES):
        for group in GROUPS:
            done = subprocess.run(
                [sys.executable, "-c", f"import layers; layers.child({group!r})"],
                cwd=Path(__file__).parent, capture_output=True, text=True, check=True,
            )
            for label, unit, micros in json.loads(done.stdout):
                runs.setdefault((label, unit), []).append(micros)
    for (label, unit), times in runs.items():
        print(f"{label:<38}  {statistics.median(times):8.2f} [{min(times):.2f}-{max(times):.2f}] {unit}", flush=True)


if __name__ == "__main__":
    main()
