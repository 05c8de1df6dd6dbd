"""Time oracle sessions on large fact sets, in microseconds per query.

Usage: ``python tools/sessions.py`` (standard library only, plus ``src/``).

The fact sets of 3,000 and 10,000 assertions are built as the ``update``
workload builds its scaling inputs (``perfbench/gen.py``, imported and not
edited) and loaded from text; each loaded state's digest is read once
before timing, as an agent's base state is. Each query's response adds 3
assertions that the state does not hold, spread over the sorted order.
The cases, each the best of 5 runs:

- ``run_session`` of 50 and of 500 queries, on one working state;
- a chain of 50 ``oracle_step`` calls with the same responses, each
  freezing a new state that the next step starts from.

One line is printed per case.
"""

from __future__ import annotations

import random
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen
from ctxdl.concepts import Atomic
from ctxdl.kb import ConceptAssertion
from ctxdl.kbfile import loads
from ctxdl.oracle import OracleQuery, OracleResponse, OracleSpec, oracle_step, run_session

SEED = 1
SIZES = (3_000, 10_000)
SESSIONS = (50, 500)  # queries per run_session
CHAIN = 50  # oracle_step calls per chain
ADDED = 3  # fresh assertions per response
REPEATS = 5
INDIVIDUALS = [f"i{i}" for i in range(200)]
KEPT, FRESH = gen.UPDATE_CONCEPTS[:12], gen.UPDATE_CONCEPTS[12:]  # the fact sets use only the first 12


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


def best_per_query(run, queries: int) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times) / queries * 1e6


def chain(state, spec: Scripted, steps: int) -> None:
    for i in range(steps):
        state, _ = oracle_step(state, spec, OracleQuery(spec.name, str(i)))


def main() -> None:
    rng = random.Random(SEED)
    for size in SIZES:
        state = loaded_state(rng, size)
        spec = Scripted(responses(rng, max(SESSIONS)))
        for n in SESSIONS:
            queries = [OracleQuery(spec.name, str(i)) for i in range(n)]
            us = best_per_query(lambda: run_session(state, spec, queries), n)
            print(f"run_session  {size:6,d} facts  {n:3d} queries  {us:7.1f} us/query", flush=True)
        us = best_per_query(lambda: chain(state, spec, CHAIN), CHAIN)
        print(f"oracle_step  {size:6,d} facts  {CHAIN:3d} chained  {us:7.1f} us/query", flush=True)


if __name__ == "__main__":
    main()
