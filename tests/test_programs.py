"""Program parsing, printing, and big-step evaluation under fuel."""

from __future__ import annotations

import random

import pytest

import ctxdl.kb
from corpus import SIG, assertion_universe, random_concept, random_guard, random_program
from ctxdl.concepts import And, Atomic, Not
from ctxdl.contexts import ContextPoset
from ctxdl.errors import BudgetExceededError, EvalAborted, ParseError
from ctxdl.kb import (
    AssertGuard,
    ConceptAssertion,
    FALSE_GUARD,
    GuardAnd,
    GuardNot,
    KnowledgeState,
    RoleAssertion,
    SubsumeGuard,
    TRUE_GUARD,
)
from ctxdl.programs import (
    Add,
    Del,
    FuelExhausted,
    If,
    Seq,
    SKIP,
    Terminated,
    While,
    evaluate,
    evaluate_trace,
    parse_guard,
    parse_program,
    print_guard,
    print_program,
)
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, EMPTY_TBOX, TBox, subsumes
from oracles import recursive_print_guard, recursive_print_program, reference_evaluate_trace

A, B = Atomic("A"), Atomic("B")
BETA = ConceptAssertion("a", A, "U")
GAMMA = ConceptAssertion("b", B, "V")
POSET = ContextPoset(["U", "V"], [("V", "U")])
EMPTY = KnowledgeState(EMPTY_TBOX, frozenset())


def state(*assertions):
    return KnowledgeState(EMPTY_TBOX, frozenset(assertions))


class TestParse:
    def test_skip(self):
        assert parse_program("skip", SIG) == SKIP

    def test_add_then_del_sequence(self):
        got = parse_program("add a:A@U ; del a:A@U", SIG)
        assert got == Seq(Add(BETA), Del(BETA))

    def test_while_true_skip(self):
        assert parse_program("while true do skip od", SIG) == While(TRUE_GUARD, SKIP)

    def test_if_with_assertion_guard(self):
        got = parse_program("if a:A@U then skip else add b:B@V fi", SIG)
        assert got == If(AssertGuard(BETA), SKIP, Add(GAMMA))

    def test_sequencing_is_left_associative(self):
        got = parse_program("skip; skip; skip", SIG)
        assert got == Seq(Seq(SKIP, SKIP), SKIP)

    def test_guard_grammar(self):
        assert parse_guard("true", SIG) == TRUE_GUARD
        assert parse_guard("!false", SIG) == GuardNot(FALSE_GUARD)
        assert parse_guard("A <= B", SIG) == SubsumeGuard(A, B)
        assert parse_guard("(a,b):r@U", SIG) == AssertGuard(
            __import__("ctxdl.kb", fromlist=["RoleAssertion"]).RoleAssertion("a", "b", "r", "U")
        )
        assert parse_guard("a:A@U & b:B@V", SIG) == GuardAnd(
            AssertGuard(BETA), AssertGuard(GAMMA)
        )

    def test_disjunction_desugars(self):
        got = parse_guard("true | false", SIG)
        assert got == GuardNot(GuardAnd(GuardNot(TRUE_GUARD), GuardNot(FALSE_GUARD)))

    def test_guard_negation_binds_the_subsumption_atom(self):
        assert parse_guard("!A <= B", SIG) == GuardNot(SubsumeGuard(A, B))
        assert parse_guard("(!A) <= B", SIG) == SubsumeGuard(Not(A), B)

    def test_parenthesized_concept_on_the_left(self):
        assert parse_guard("(A & B) <= B", SIG) == SubsumeGuard(And(A, B), B)

    def test_concept_conjunction_inside_assertion(self):
        got = parse_guard("a:A & B@U", SIG)
        assert got == AssertGuard(ConceptAssertion("a", And(A, B), "U"))

    def test_syntax_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_program("if true then skip fi", SIG)
        assert "'else'" in str(exc.value)
        with pytest.raises(ParseError):
            parse_program("add", SIG)

    def test_round_trip_of_parsed_programs(self):
        texts = [
            "skip",
            "add a:A@U; del a:A@U; skip",
            "if !(a:A@U & b:B@V) then add a:A@U else skip fi",
            "while (A <= B) & !false do add b:B@V od",
            "if (!A) <= B | true then skip else skip fi",
            "while a:exists r.(A & !B)@U do skip od",
        ]
        for text in texts:
            prog = parse_program(text, SIG)
            assert parse_program(print_program(prog), SIG) == prog

    def test_round_trip_of_random_programs(self):
        # The program grammar has no grouping syntax, so a right-nested Seq
        # prints flat and re-parses left-nested; after that one
        # normalization the round trip is exact.
        rng = random.Random(53)
        universe = assertion_universe()
        for _ in range(200):
            prog = random_program(rng, rng.randint(1, 10), universe)
            normalized = parse_program(print_program(prog), SIG)
            assert parse_program(print_program(normalized), SIG) == normalized


class TestPrinters:
    """The explicit-stack printers against the recursive ones they replaced."""

    def test_same_text_as_the_recursive_printers(self):
        rng = random.Random(59)
        universe = assertion_universe()
        # Negated left sides take the parenthesized subsumption branch.
        atoms = [SubsumeGuard(Not(A), B), SubsumeGuard(And(A, B), Not(B))]
        atoms += [SubsumeGuard(random_concept(rng, 2), random_concept(rng, 2)) for _ in range(4)]
        for _ in range(200):
            prog = random_program(rng, rng.randint(1, 12), universe, atoms)
            assert print_program(prog) == recursive_print_program(prog)
            guard = random_guard(rng, 6, universe, atoms)
            assert print_guard(guard) == recursive_print_guard(guard)
        for text in ["a:A@U | b:B@V & !(A <= B)", "!(true & false) | (a,b):r@U", "(!A) <= B | !!true"]:
            guard = parse_guard(text, SIG)
            assert print_guard(guard) == recursive_print_guard(guard)

    def test_printers_reject_what_is_not_a_program_or_guard(self):
        with pytest.raises(TypeError, match="not a program"):
            print_program(Seq(SKIP, TRUE_GUARD))
        with pytest.raises(TypeError, match="not a guard"):
            print_program(If(SKIP, SKIP, SKIP))

    def test_flat_sequence_of_3000_commands(self):
        text = "; ".join(["add a:A@U", "del a:A@U", "skip"] * 1000)
        prog = parse_program(text, SIG)
        assert print_program(prog) == text
        # Nodes are interned, so comparing and hashing cost one step however
        # deep the left-nested tree is.
        again = parse_program(print_program(prog), SIG)
        assert again == prog and again is prog and hash(again) == hash(prog)
        with pytest.raises(RecursionError):
            recursive_print_program(prog)

    def test_long_guard_chains(self):
        hit, miss = "a:A@U", "b:B@V"
        disjunction = parse_guard(" | ".join([miss] * 699 + [hit]), SIG)
        text = print_guard(disjunction)
        assert text.startswith("!(!" * 699) and text.endswith(f" & !{hit})")
        with pytest.raises(RecursionError):
            recursive_print_guard(disjunction)
        # A flat '&' chain prints flat and re-parses: no nesting level.
        conjunction_text = " & ".join([hit, miss] * 350)
        conjunction = parse_guard(conjunction_text, SIG)
        assert print_guard(conjunction) == conjunction_text
        again = parse_guard(print_guard(conjunction), SIG)
        assert again == conjunction and hash(again) == hash(conjunction)
        twin = parse_guard(" | ".join([miss] * 699 + [hit]), SIG)
        assert twin == disjunction and hash(twin) == hash(disjunction)
        loop = While(conjunction, SKIP)
        assert print_program(loop) == f"while {conjunction_text} do skip od"


class TestBigStepRules:
    """One test per rule of the evaluation relation."""

    def test_skip_returns_the_state_unchanged(self):
        s = state(BETA)
        outcome, trace = evaluate_trace(SKIP, s, 10)
        assert outcome == Terminated(s, 1)
        assert [e.rule for e in trace] == ["skip"]

    def test_add_unions_the_assertion(self):
        outcome = evaluate(Add(BETA), EMPTY, 10)
        assert outcome == Terminated(state(BETA), 1)

    def test_add_is_idempotent_on_present_assertion(self):
        s = state(BETA)
        assert evaluate(Add(BETA), s, 10) == Terminated(s, 1)

    def test_del_removes_the_assertion(self):
        outcome = evaluate(Del(BETA), state(BETA, GAMMA), 10)
        assert outcome == Terminated(state(GAMMA), 1)

    def test_del_of_absent_assertion_is_identity(self):
        s = state(GAMMA)
        assert evaluate(Del(BETA), s, 10) == Terminated(s, 1)

    def test_seq_threads_the_intermediate_state(self):
        outcome = evaluate(Seq(Add(BETA), Add(GAMMA)), EMPTY, 10)
        assert outcome == Terminated(state(BETA, GAMMA), 3)

    def test_if_true_runs_only_the_then_branch(self):
        prog = If(TRUE_GUARD, SKIP, Add(BETA))
        outcome, trace = evaluate_trace(prog, EMPTY, 10)
        assert outcome.state == EMPTY
        assert [e.rule for e in trace] == ["if-true", "skip"]
        assert all(not e.added for e in trace)  # the else effect never happened

    def test_if_false_runs_only_the_else_branch(self):
        prog = If(FALSE_GUARD, Add(BETA), Add(GAMMA))
        outcome, trace = evaluate_trace(prog, EMPTY, 10)
        assert outcome.state == state(GAMMA)
        assert [e.rule for e in trace] == ["if-false", "add"]
        assert BETA not in outcome.state.abox

    def test_while_false_skips_the_body(self):
        prog = While(FALSE_GUARD, Add(BETA))
        outcome, trace = evaluate_trace(prog, EMPTY, 10)
        assert outcome == Terminated(EMPTY, 1)
        assert [e.rule for e in trace] == ["while-false"]

    def test_while_true_unfolds_until_the_guard_fails(self):
        # Loop while a:A@U holds; the body deletes it, so exactly one pass.
        prog = While(AssertGuard(BETA), Del(BETA))
        outcome, trace = evaluate_trace(prog, state(BETA), 10)
        assert outcome == Terminated(EMPTY, 3)
        assert [e.rule for e in trace] == ["while-true", "del", "while-false"]

    def test_while_true_skip_exhausts_fuel(self):
        outcome = evaluate(While(TRUE_GUARD, SKIP), EMPTY, 1000)
        assert isinstance(outcome, FuelExhausted)
        assert outcome.steps == 1000
        assert outcome.state == EMPTY

    def test_trace_of_add_del_pair_has_two_entries_and_no_net_delta(self):
        outcome, trace = evaluate_trace(Seq(Add(BETA), Del(BETA)), EMPTY, 10)
        assert len(trace) == 2
        assert outcome.state.abox == EMPTY.abox

    def test_add_del_algebra_equals_plain_removal(self):
        for start in (EMPTY, state(BETA), state(GAMMA), state(BETA, GAMMA)):
            got = evaluate(Seq(Add(BETA), Del(BETA)), start, 10)
            assert got.state.abox == start.abox - {BETA}


class TestFuelAndDeterminism:
    def test_tbox_never_changes(self):
        rng = random.Random(59)
        t = TBox([(A, B)])
        universe = assertion_universe()
        for _ in range(100):
            prog = random_program(rng, rng.randint(1, 10), universe)
            outcome = evaluate(prog, KnowledgeState(t, frozenset()), 30)
            assert outcome.state.tbox is t

    def test_fuel_monotonicity_and_bit_reproducibility(self):
        rng = random.Random(61)
        universe = assertion_universe()
        for _ in range(200):
            prog = random_program(rng, rng.randint(1, 10), universe)
            first = evaluate_trace(prog, EMPTY, 40)
            again = evaluate_trace(prog, EMPTY, 40)
            assert first == again
            outcome, _ = first
            if isinstance(outcome, Terminated):
                doubled = evaluate(prog, EMPTY, 80)
                assert doubled == Terminated(outcome.state, outcome.steps)

    def test_steps_never_exceed_fuel(self):
        rng = random.Random(67)
        universe = assertion_universe()
        for _ in range(100):
            prog = random_program(rng, rng.randint(1, 12), universe)
            fuel = rng.randint(1, 15)
            outcome = evaluate(prog, EMPTY, fuel)
            assert outcome.steps <= fuel
            if isinstance(outcome, FuelExhausted):
                assert outcome.steps == fuel

    def test_fuel_must_be_positive(self):
        with pytest.raises(ValueError):
            evaluate(SKIP, EMPTY, 0)

    def test_agrees_with_derivation_search_on_small_programs(self):
        from oracles import derivations

        rng = random.Random(71)
        universe = assertion_universe()
        starts = [EMPTY, state(universe[0]), state(*universe)]
        for _ in range(300):
            prog = random_program(rng, rng.randint(1, 6), universe)
            start = rng.choice(starts)
            depth = 12
            found = derivations(prog, start, depth)
            assert len(found) <= 1  # the relation is deterministic
            outcome = evaluate(prog, start, depth)
            if found:
                final, steps = next(iter(found))
                assert outcome == Terminated(final, steps)
            else:
                assert isinstance(outcome, FuelExhausted)

    def test_guard_budget_exhaustion_aborts_with_trace(self):
        t = TBox([(Atomic("A"), And(Atomic("B"), Atomic("C")))])
        heavy = SubsumeGuard(Atomic("A"), Atomic("B"))
        prog = Seq(Add(BETA), If(heavy, SKIP, SKIP))
        with pytest.raises(EvalAborted) as exc:
            evaluate(prog, KnowledgeState(t, frozenset()), 10, budget=1)
        assert [e.rule for e in exc.value.trace] == ["add"]


class TestAgainstReferenceEvaluator:
    """The in-place evaluator against the copy-per-write recursive one."""

    def test_same_outcome_state_and_trace_on_random_programs(self):
        rng = random.Random(20261018)
        universe = assertion_universe() + [
            ConceptAssertion("a", A, "V"),
            RoleAssertion("a", "b", "r", "U"),
        ]
        tbox = TBox([(A, And(B, Atomic("C")))])
        subsumptions = (SubsumeGuard(A, B), SubsumeGuard(B, A))
        seen = set()

        def run(evaluator, *args, **kwargs):
            try:
                return evaluator(*args, **kwargs)
            except EvalAborted as exc:
                return "aborted", exc.trace

        for _ in range(600):
            prog = random_program(rng, rng.randint(1, 12), universe, subsumptions)
            start = KnowledgeState(tbox, frozenset(a for a in universe if rng.random() < 0.5))
            abox, snapshot = start.abox, set(start.abox)
            mode, poset = rng.choice([("literal", None), ("saturated", POSET)])
            fuel = rng.randint(1, 40)
            budget = rng.choice([1, 3, DEFAULT_NODE_BUDGET])
            want = run(reference_evaluate_trace, prog, start, fuel, mode, poset, budget=budget)
            got = run(evaluate_trace, prog, start, fuel, mode, poset, budget=budget)
            assert got == want
            # evaluate keeps no trace, except the partial one of an abort.
            untraced = run(evaluate, prog, start, fuel, mode, poset, budget=budget)
            assert untraced == (want if want[0] == "aborted" else want[0])
            assert start.abox is abox and abox == snapshot
            seen.add(got[0] if isinstance(got[0], str) else type(got[0]).__name__)
        assert seen == {"Terminated", "FuelExhausted", "aborted"}

    def test_flat_sequence_of_3000_commands(self):
        # The reference evaluator recurses once per ';' and cannot run this.
        prog = parse_program("; ".join(["skip"] * 3000), SIG)
        start = state(BETA)
        assert evaluate(prog, start) == Terminated(start, 5999)


class TestSubsumptionMemo:
    """A TBox decides each subsumption atom once: every later test of the
    atom over that TBox, in this run or any other, is answered from what
    it kept and changes no outcome, trace or budget."""

    INCLUSIONS = [(A, And(B, Atomic("C")))]

    @pytest.fixture
    def tableau_runs(self, monkeypatch):
        # The atoms guard_sat decides with the tableau, in order.
        calls = []
        decide = ctxdl.kb.decide

        def counted(tbox, concept, budget):
            calls.append((concept.left, concept.right.child))  # And(lhs, Not(rhs))
            return decide(tbox, concept, budget)

        monkeypatch.setattr(ctxdl.kb, "decide", counted)
        return calls

    @pytest.mark.parametrize("unfoldings", [1, 5, 60])
    def test_loop_guard_runs_the_tableau_once_per_evaluation(self, tableau_runs, unfoldings):
        # Once in the first evaluation over a TBox, and in no later one.
        prog = parse_program("while A <= B do add a:A@U; del a:A@U od", SIG)
        start = KnowledgeState(TBox(self.INCLUSIONS), frozenset({GAMMA}))
        fuel = 4 * unfoldings  # per unfolding: the guard test, the body's Seq, add and del
        want = reference_evaluate_trace(prog, start, fuel)
        assert tableau_runs == []  # the reference keeps no verdict and goes around guard_sat
        for _ in range(3):
            assert evaluate_trace(prog, start, fuel) == want
            assert evaluate(prog, start, fuel) == want[0]
            assert tableau_runs == [(A, B)]
        fresh = KnowledgeState(TBox(self.INCLUSIONS), start.abox)  # equal, but it has decided nothing
        assert evaluate_trace(prog, fresh, fuel) == want
        assert tableau_runs == [(A, B), (A, B)]
        outcome, trace = want
        assert isinstance(outcome, FuelExhausted) and outcome.state == start
        assert [e.rule for e in trace].count("while-true") == unfoldings

    def test_each_atom_is_decided_once(self, tableau_runs):
        prog = parse_program(
            "if A <= B then skip else skip fi; if B <= A then skip else skip fi; "
            "if A <= B & !(B <= A) then add a:A@U else skip fi",
            SIG,
        )
        tbox = TBox(self.INCLUSIONS)
        outcome, trace = evaluate_trace(prog, KnowledgeState(tbox, frozenset()))
        assert tableau_runs == [(A, B), (B, A)]
        assert [e.guard for e in trace if e.guard is not None] == [True, False, True]
        assert outcome.state.abox == {BETA}
        # Another state and a bare guard test over the same TBox decide nothing.
        assert evaluate(prog, KnowledgeState(tbox, frozenset({GAMMA}))).state.abox == {BETA, GAMMA}
        assert ctxdl.kb.guard_sat(outcome.state, parse_guard("B <= A | A <= B", SIG)) is True
        assert tableau_runs == [(A, B), (B, A)]

    def test_an_exhausted_guard_aborts_with_the_reference_trace(self, tableau_runs):
        # The cheap atom is decided once and answered from the TBox after;
        # the costly one runs out of budget at each test, and is kept only
        # once a run affords it, after which a test at the small budget
        # still aborts, now without the tableau.
        cheap, costly = "B <= A", "(A & exists r.A) <= B"
        budget = next(b for b in range(1, 50) if self._affords(cheap, b))
        assert not self._affords(costly, budget)
        prog = parse_program(
            f"add a:A@U; if {cheap} then skip else skip fi; if {cheap} then skip else del a:A@U fi; "
            f"if {costly} then skip else skip fi",
            SIG,
        )
        start = KnowledgeState(TBox(self.INCLUSIONS), frozenset())
        with pytest.raises(EvalAborted) as want:
            reference_evaluate_trace(prog, start, 100, budget=budget)
        assert [e.rule for e in want.value.trace] == ["add", "if-false", "skip", "if-false", "del"]
        costly_atom = parse_guard(costly, SIG)
        runs = [
            [(B, A), (costly_atom.lhs, B)],  # a fresh TBox
            [(costly_atom.lhs, B)],  # the cheap atom is kept, the exhausted one is not
            [],  # after a run that afforded the costly atom
        ]
        for i, expected in enumerate(runs):
            if i == 2:
                evaluate(prog, start, 100)
            tableau_runs.clear()
            with pytest.raises(EvalAborted) as got:
                evaluate_trace(prog, start, 100, budget=budget)
            assert got.value.trace == want.value.trace
            assert got.value.cause.budget == budget
            assert tableau_runs == expected
        with pytest.raises(EvalAborted) as got:  # no trace: undone and run again with one
            evaluate(prog, start, 100, budget=budget)
        assert got.value.trace == want.value.trace

    def _affords(self, guard, budget):
        g = parse_guard(guard, SIG)
        try:
            subsumes(TBox(self.INCLUSIONS), g.lhs, g.rhs, budget=budget)
        except BudgetExceededError:
            return False
        return True
