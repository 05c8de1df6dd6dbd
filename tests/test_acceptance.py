"""Acceptance suite: one test per shipped criterion, with stated budgets.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each test enforces its own runtime budget where one is
stated; random corpora are seeded and therefore identical run to run.
"""

from __future__ import annotations

import json
import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

from corpus import CURATED_UNSAT, SIG, assertion_universe, random_concept, random_family, random_presheaf, random_program, random_tbox, witness_space
from oracles import brute_force_glue
from ctxdl.cli import main
from ctxdl.concepts import Atomic
from ctxdl.kb import (
    AssertGuard,
    ConceptAssertion,
    FALSE_GUARD,
    KnowledgeState,
    TRUE_GUARD,
    canonical_abox,
    saturate,
)
from ctxdl.oracle import (
    OracleQuery,
    OracleResponse,
    ScriptEntry,
    ScriptedOracle,
    oracle_step,
    record_session,
    replay_session,
)
from ctxdl.programs import (
    Add,
    Del,
    If,
    Seq,
    SKIP,
    Terminated,
    While,
    evaluate,
    evaluate_trace,
)
from ctxdl.reasoner import EMPTY_TBOX, find_witness, is_satisfiable
from ctxdl.sheaf import Glued, Incompatible, NonUnique, glue
from corpus import random_abox, random_poset

GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_big_step_rule_fidelity():
    """Every evaluation rule, branch non-execution asserted via the trace."""
    with criterion("1 big-step rule fidelity (8/8 rules, < 1 s)"):
        start = time.perf_counter()
        A = Atomic("A")
        beta = ConceptAssertion("a", A, "U")
        gamma = ConceptAssertion("b", Atomic("B"), "V")
        s0 = KnowledgeState(EMPTY_TBOX, frozenset())
        s_beta = s0.with_abox({beta})

        # skip: the state passes through untouched.
        outcome, trace = evaluate_trace(SKIP, s_beta, 10)
        assert outcome == Terminated(s_beta, 1)
        assert [e.rule for e in trace] == ["skip"]

        # add: union with the singleton.
        outcome, _ = evaluate_trace(Add(beta), s0, 10)
        assert outcome == Terminated(s_beta, 1)

        # del: set difference.
        outcome, _ = evaluate_trace(Del(beta), s_beta, 10)
        assert outcome == Terminated(s0, 1)

        # seq: the intermediate state feeds the second premise.
        outcome, trace = evaluate_trace(Seq(Add(beta), Add(gamma)), s0, 10)
        assert outcome == Terminated(s0.with_abox({beta, gamma}), 3)
        assert [e.rule for e in trace] == ["add", "add"]

        # if-true: the else branch is not executed.
        outcome, trace = evaluate_trace(If(TRUE_GUARD, SKIP, Add(beta)), s0, 10)
        assert outcome.state == s0
        assert [e.rule for e in trace] == ["if-true", "skip"]
        assert not any(e.added for e in trace)

        # if-false: the then branch is not executed.
        outcome, trace = evaluate_trace(If(FALSE_GUARD, Add(beta), Add(gamma)), s0, 10)
        assert outcome.state.abox == {gamma}
        assert [e.rule for e in trace] == ["if-false", "add"]
        assert beta not in outcome.state.abox

        # while-false: the body is not executed.
        outcome, trace = evaluate_trace(While(FALSE_GUARD, Add(beta)), s0, 10)
        assert outcome == Terminated(s0, 1)
        assert [e.rule for e in trace] == ["while-false"]

        # while-true: body once, then the loop re-derives on the new state.
        outcome, trace = evaluate_trace(While(AssertGuard(beta), Del(beta)), s_beta, 10)
        assert outcome == Terminated(s0, 3)
        assert [e.rule for e in trace] == ["while-true", "del", "while-false"]

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_reasoner_soundness_cross_check():
    """500 random instances: a brute-force witness forces a sat verdict.

    The implication "witness exists => is_satisfiable" can only fail when
    the tableau answers unsat, so those instances get the exhaustive model
    search. The search runs over the names occurring in the instance with
    the domain capped at 3, trimmed per instance by the 24-bit enumeration
    guard (see corpus.witness_space).
    """
    with criterion("2 reasoner soundness cross-check (500 instances, < 60 s)"):
        start = time.perf_counter()
        rng = random.Random(20260809)
        checked_unsat = 0
        for _ in range(500):
            tbox = random_tbox(rng, max_inclusions=2, depth=3)
            concept = random_concept(rng, 3)
            if is_satisfiable(tbox, concept):
                continue  # no witness can contradict a positive verdict
            sub_sig, k = witness_space(tbox, concept)
            if k == 0:
                continue  # nothing enumerable under the guard
            witness = find_witness(sub_sig, tbox, concept, k)
            assert witness is None, (
                f"unsound unsat verdict: {tbox} / {concept} has a model {witness}"
            )
            checked_unsat += 1
        elapsed = time.perf_counter() - start
        assert checked_unsat >= 50, "generator produced too few unsat instances"
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3_curated_unsatisfiability_suite():
    """Hand-proved unsatisfiable pairs must all come back false."""
    with criterion(f"3 curated unsatisfiability suite ({len(CURATED_UNSAT)} pairs)"):
        assert len(CURATED_UNSAT) >= 15
        for tbox, concept in CURATED_UNSAT:
            assert is_satisfiable(tbox, concept) is False, (tbox, concept)


def test_criterion_4_saturation_monotonicity():
    """Closure is idempotent and contains every downward instance."""
    with criterion("4 saturation/monotonicity (200 random pairs)"):
        rng = random.Random(424242)
        for _ in range(200):
            poset = random_poset(rng, rng.randint(1, 5))
            abox = random_abox(rng, SIG, sorted(poset.contexts))
            closed = saturate(abox, poset)
            assert saturate(closed, poset) == closed
            rendered = {a.text for a in closed}
            for a in abox:
                for v in poset.contexts:
                    if poset.leq(v, a.context):
                        want = a.text.replace("@" + a.context, "@" + v)
                        assert want in rendered


def test_criterion_5_gluing_laws():
    """glue() agrees with the exhaustive 2^n candidate oracle exactly."""
    with criterion("5 gluing laws (100 random presheaves vs 2^n oracle, < 30 s)"):
        start = time.perf_counter()
        rng = random.Random(885577)
        for _ in range(100):
            ps, cov = random_presheaf(rng, max_contexts=5, max_facts=12)
            family = random_family(rng, ps, cov)
            kind, payload = brute_force_glue(ps, family, cov)
            got = glue(ps, family, cov)
            if kind == "incompatible":
                assert isinstance(got, Incompatible)
            elif kind == "glued":
                assert got == Glued(payload)
            else:
                assert isinstance(got, NonUnique)
                assert len(got.candidates) == len(payload)
                assert {s.facts for s in got.candidates} == {s.facts for s in payload}
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_fuel_monotonicity_and_determinism():
    """Terminating runs are stable under doubled fuel and bit-reproducible."""
    with criterion("6 fuel monotonicity and determinism (200 random programs)"):
        rng = random.Random(113355)
        universe = assertion_universe()
        empty = KnowledgeState(EMPTY_TBOX, frozenset())
        for _ in range(200):
            prog = random_program(rng, rng.randint(1, 10), universe)
            fuel = rng.randint(1, 60)
            first = evaluate_trace(prog, empty, fuel)
            second = evaluate_trace(prog, empty, fuel)
            assert first == second
            outcome, _ = first
            if isinstance(outcome, Terminated):
                assert evaluate(prog, empty, fuel * 2) == Terminated(
                    outcome.state, outcome.steps
                )


def _records(argv) -> tuple[str, list[dict]]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue(), [json.loads(line) for line in buf.getvalue().splitlines()]


def test_criterion_7_distributed_sensing_fixture():
    """Golden outputs for the shipped sensing scenario and the two streams."""
    with criterion("7 distributed-sensing fixture and stability goldens"):
        out, recs = _records(
            ["global-sections", str(SAMPLES / "sensing.kb"), "--top", "Scene",
             "--format", "records"]
        )
        assert out == (GOLDEN / "global_sections_sensing.records").read_text(encoding="utf-8")
        section_facts = [r["facts"] for r in recs if r["command"] == "section"]
        assert ["scene:Obstacle"] in section_facts

        out, recs = _records(
            ["stability", str(SAMPLES / "sensor_constant.json"), "--runs", "4",
             "--format", "records"]
        )
        assert out == (GOLDEN / "stability_constant.records").read_text(encoding="utf-8")
        assert recs[0]["stable"] is True
        assert recs[0]["outcome"] == ["scene:Obstacle"]

        out, recs = _records(
            ["stability", str(SAMPLES / "sensor_alternating.json"), "--runs", "4",
             "--format", "records"]
        )
        assert out == (GOLDEN / "stability_alternating.records").read_text(encoding="utf-8")
        assert recs[0]["stable"] is False
        assert [o["count"] for o in recs[0]["outcomes"]] == [2, 2]


def test_criterion_8_record_replay(tmp_path):
    """A recorded 6-transition session replays to byte-identical dumps."""
    with criterion("8 record/replay byte-identical state dumps (6 transitions)"):
        entries = [
            ScriptEntry("p0", None, OracleResponse(frozenset({ConceptAssertion("a", Atomic("A"), "U")}))),
            ScriptEntry("p1", None, OracleResponse(frozenset({ConceptAssertion("b", Atomic("B"), "V")}))),
            ScriptEntry("p2", None, OracleResponse(frozenset())),
        ]
        payloads = ["p0", "p1", "p2", "p0", "p1", "p2"]
        log = tmp_path / "session.jsonl"
        empty = KnowledgeState(EMPTY_TBOX, frozenset())

        with open(log, "w", encoding="utf-8") as sink:
            spec = record_session(ScriptedOracle("probe", entries), sink)
            state = empty
            recorded = []
            for p in payloads:
                state, _ = oracle_step(state, spec, OracleQuery("probe", p))
                recorded.append("\n".join(canonical_abox(state.abox)))

        replayed_spec = replay_session(log, SIG)
        state = empty
        replayed = []
        for p in payloads:
            state, _ = oracle_step(state, replayed_spec, OracleQuery("probe", p))
            replayed.append("\n".join(canonical_abox(state.abox)))
        assert len(recorded) == 6
        assert replayed == recorded


def test_criterion_9_cli_robustness(tmp_path, capsys):
    """200-file malformed corpus: exit 2, positioned diagnostics, no crashes."""
    from test_robustness import build_corpus

    with criterion("9 CLI robustness (200-file malformed corpus)"):
        cases = build_corpus(tmp_path)
        assert len(cases) >= 200
        for argv, expect_position in cases:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2, f"{argv} exited {code}"
            assert "Traceback" not in captured.err
            if expect_position:
                assert re.search(r":\d+", captured.err), (argv, captured.err)
