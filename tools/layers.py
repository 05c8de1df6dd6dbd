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
  workload caps it;
- ``is_satisfiable`` of A0 over a 1,000-link chain ``Ai <= exists
  r.A(i+1)``, and of Start over the 9-bit counter at a budget of 10^7,
  whose models are 1,001 and 512 elements deep (the documents of
  ``tests/corpus.py``), in milliseconds per call, each the best of 3.

The session cases take fact sets of 3,000 and 10,000 assertions, built as
the ``update`` workload builds its scaling inputs; each loaded state's
digest is read once before timing, as an agent's base state is. Each
query's response adds 3 assertions that the state does not hold, spread
over the sorted order. Each case is the best of 5 runs in one process:

- ``run_session`` of 50 and of 500 queries, on one working state;
- a chain of 50 ``oracle_step`` calls with the same responses, each
  freezing a new state that the next step starts from.

The interaction cases take the agents of the ``update`` workload, built
by ``gen.update_agent`` with a stable oracle, in microseconds per call,
each the best of 5 runs in one process:

- ``WorkingState`` made from an agent's base state, and freed, at 3,000
  and 10,000 facts;
- ``programs.execute`` of the agent's program in literal and in saturated
  mode, each on a fresh working state that has taken the injection and
  the oracle session, made before the timing starts;
- one whole ``agents.interact`` run of the agent, in each guard mode.

The recorded-session cases take the literal agent of the ``update``
workload on 3,000 facts, with its alternating oracle, in microseconds per
call, each the best of 5 runs in one process:

- ``ask`` of the four queries of one run (seed 0) through
  ``record_session`` of the agent's oracle, into a memory sink, on a
  fresh working state that has taken the injection, made before the
  timing starts;
- ``replay_session`` of the log of those four queries, read from a
  ``StringIO`` of its text, as the workload reads it back.

The same case reads very differently from one process to the next on a
shared machine, so each group of cases (the reasoner's, the sessions' on
each fact set, the interaction's and the recorded session's) is timed in
5 fresh child processes, the groups taken in turn. One line is printed
per case: the median [min-max] over the processes, as
``tools/bench_pairs.py`` reports its runs.
"""

from __future__ import annotations

import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import gen
from corpus import chain_document, counter_document
from ctxdl.agents import LatentStructure, interact, load_agent
from ctxdl.concepts import Atomic, parse_concept
from ctxdl.kb import ConceptAssertion, WorkingState, parse_fact_list
from ctxdl.kbfile import loads
from ctxdl.oracle import (
    OracleQuery, OracleResponse, OracleSpec, ask, oracle_step, record_session, replay_session, run_session
)
from ctxdl.programs import execute
from ctxdl.reasoner import find_witness, is_satisfiable, subsumes

PROCESSES = 5  # fresh child processes per group of cases

SEED = 1  # the reason workload's seed: it picks the names and the ladders' conjunct order
LADDER_SIZES = (10, 12, 14)
POOL_SEED, POOL_SIZE = 7, 50
PASSES = 20  # passes per reasoner case in one process, best kept
DEEP_PASSES = 3  # passes per deep-model case
DEEP = (  # label, document, concept, budget
    ("is_satisfiable  chain 1,000 links", chain_document(1_000), "A0", 100_000),
    ("is_satisfiable  counter 9 bits", counter_document(9), "Start", 10_000_000),
)

SIZES = (3_000, 10_000)
SESSIONS = (50, 500)  # queries per run_session
CHAIN = 50  # oracle_step calls per chain
ADDED = 3  # fresh assertions per response
REPEATS = 5  # runs per session case in one process, best kept
INDIVIDUALS = [f"i{i}" for i in range(200)]
KEPT, FRESH = gen.UPDATE_CONCEPTS[:12], gen.UPDATE_CONCEPTS[12:]  # the fact sets use only the first 12

AGENT_SIZES = (3_000, 10_000)  # base facts of the agents whose working state is timed
AGENT_SIZE = 3_000  # base facts of the agent whose program and runs are timed, as in the workload
CALLS = 50  # calls per interaction case in one run

GROUPS = ("reasoner", *map(str, SIZES), "interact", "recorded")


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
    cases = [
        (label, "us/call", best(partial(call_each, fn, calls), len(calls), PASSES))
        for label, fn, calls in zip(labels, fns, reasoner_inputs())
    ]
    for label, text, name, budget in DEEP:
        doc = loads(text)
        run = partial(is_satisfiable, doc.tbox, parse_concept(name, doc.signature), budget=budget)
        cases.append((label, "ms/call", best(run, 1, DEEP_PASSES) / 1000))
    return cases


class Scripted(OracleSpec):
    """Answers payload i with the i-th response, after reading the state's
    digest, so each query splices one digest, as an exact lookup does."""

    name = "probe"

    def __init__(self, responses: list[OracleResponse]):
        self.responses = responses

    def respond(self, state: WorkingState, payload: str) -> OracleResponse:
        state.digest
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


def update_agent(size: int, mode: str, workdir: Path, alternating: bool = False):
    """The agent of ``gen.update_agent`` with *size* base facts and a stable
    (or an *alternating*) oracle, loaded from *workdir*, and its latent
    structure."""
    files = gen.update_agent(random.Random(SEED), f"{mode}_{size}", size, mode, alternating)
    for name, text in files.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    agent = load_agent(workdir / files.agent_file)
    facts = parse_fact_list(", ".join(files.latent), agent.signature)
    return agent, LatentStructure.of("latent", facts)


def before_session(agent, latent: LatentStructure) -> WorkingState:
    """The working state an ``interact`` run hands to the oracle."""
    work = WorkingState(agent.base_state)
    work.apply(f.at(agent.input_context) for f in latent.payload)
    return work


def run_queries(agent) -> list[OracleQuery]:
    """The oracle queries of an ``interact`` run at seed 0."""
    return [OracleQuery(agent.oracle.name, q.format(seed=0, parity=0)) for q in agent.queries]


def before_program(agent, latent: LatentStructure) -> WorkingState:
    """The working state an ``interact`` run (seed 0) hands to the program."""
    work = before_session(agent, latent)
    ask(work, agent.oracle, run_queries(agent))
    return work


def execute_each(agent, mode: str, works: list[WorkingState]) -> None:
    for work in works:
        execute(agent.program, work, agent.fuel, mode, agent.poset)


def interaction_cases() -> list[tuple[str, str, float]]:
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for size in AGENT_SIZES:
            base = update_agent(size, "literal", Path(workdir))[0].base_state
            base.digest  # sorted once, as in every run after the first
            run = partial(call_each, WorkingState, [(base,)] * CALLS)
            cases.append((f"WorkingState {size:6,d} facts", "us/call", best(run, CALLS, REPEATS)))
        for mode in ("literal", "saturated"):
            agent, latent = update_agent(AGENT_SIZE, mode, Path(workdir))
            times = []
            for _ in range(REPEATS):
                works = [before_program(agent, latent) for _ in range(CALLS)]
                times.append(best(partial(execute_each, agent, mode, works), CALLS, 1))
            cases.append((f"execute      {AGENT_SIZE:6,d} facts  {mode}", "us/call", min(times)))
            run = partial(call_each, interact, [(agent, latent)] * CALLS)
            cases.append((f"interact     {AGENT_SIZE:6,d} facts  {mode}", "us/call", best(run, CALLS, REPEATS)))
    return cases


def record_each(agent, queries: list[OracleQuery], works: list[WorkingState]) -> None:
    for work in works:
        ask(work, record_session(agent.oracle, io.StringIO()), queries)


def replay_each(log: str, sig) -> None:
    for _ in range(CALLS):
        replay_session(io.StringIO(log), sig)  # as the workload reads a log back


def recorded_cases() -> list[tuple[str, str, float]]:
    with tempfile.TemporaryDirectory() as workdir:
        agent, latent = update_agent(AGENT_SIZE, "literal", Path(workdir), alternating=True)
    agent.base_state.digest  # sorted once, as in every run after the first
    queries = run_queries(agent)
    times = []
    for _ in range(REPEATS):
        works = [before_session(agent, latent) for _ in range(CALLS)]
        times.append(best(partial(record_each, agent, queries, works), CALLS, 1))
    log = io.StringIO()
    ask(before_session(agent, latent), record_session(agent.oracle, log), queries)
    replay = partial(replay_each, log.getvalue(), agent.signature)
    return [
        (f"record_session {AGENT_SIZE:6,d} facts  {len(queries)} queries", "us/call", min(times)),
        (f"replay_session {AGENT_SIZE:6,d} facts  {len(queries)} records", "us/call", best(replay, CALLS, REPEATS)),
    ]


def child(group: str) -> None:
    """Print the JSON list of (label, unit, microseconds) of each case of *group*."""
    if group == "reasoner":
        cases = reasoner_cases()
    elif group == "interact":
        cases = interaction_cases()
    elif group == "recorded":
        cases = recorded_cases()
    else:
        cases = session_cases(int(group))
    print(json.dumps(cases))


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
