"""Assertions, saturation, and guard satisfaction in both modes."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxdl.kb
import oracles
from children import hash_orders, run_child
from corpus import SIG, random_abox, random_assertion, random_concept, random_guard, random_poset, random_tbox
from ctxdl.concepts import RESERVED_WORDS, And, Atomic, Not, Signature
from ctxdl.contexts import ContextPoset
from ctxdl.errors import BudgetExceededError, ParseError, UnknownNameError
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
    WorkingState,
    abox_digest,
    canonical_abox,
    guard_sat,
    parse_assertion,
    parse_fact_list,
    saturate,
)
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, EMPTY_TBOX, TBox, decide
from ctxdl.programs import parse_guard
from oracles import plain_digest, plain_fact_text, recursive_guard_sat

A = Atomic("A")
B = Atomic("B")
POSET = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])


def ca(ind, name, ctx):
    return ConceptAssertion(ind, Atomic(name), ctx)


class TestAssertionSyntax:
    def test_concept_assertion_round_trip(self):
        a = parse_assertion("a : A & B @ U", SIG)
        assert a == ConceptAssertion("a", And(A, B), "U")
        assert parse_assertion(a.text, SIG) == a

    def test_role_assertion_round_trip(self):
        a = parse_assertion("(a, b) : r @ V", SIG)
        assert a == RoleAssertion("a", "b", "r", "V")
        assert a.text == "(a,b):r@V"

    def test_undeclared_names_rejected(self):
        for text in ("c : A @ U", "a : Zz @ U", "a : A @ X", "(a, b) : q @ U"):
            with pytest.raises(UnknownNameError):
                parse_assertion(text, SIG)

    def test_missing_context_is_a_syntax_error(self):
        with pytest.raises(ParseError):
            parse_assertion("a : A", SIG)

    def test_canonical_order_is_sorted(self):
        abox = {ca("b", "B", "V"), ca("a", "A", "U"), RoleAssertion("a", "b", "r", "U")}
        lines = canonical_abox(abox)
        assert lines == sorted(lines)
        assert abox_digest(abox) == ";".join(lines)


NAME = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True).filter(lambda n: n not in RESERVED_WORDS)


@st.composite
def declared_fact(draw):
    """A signature of drawn names, one of its facts, and one of its contexts."""
    names = draw(st.lists(NAME, min_size=4, max_size=10, unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, len(names) - 1), min_size=3, max_size=3, unique=True)))
    concepts, roles, individuals, contexts = (names[i:j] for i, j in zip([0, *cuts], [*cuts, len(names)]))
    a, b = draw(st.sampled_from(individuals)), draw(st.sampled_from(individuals))
    if draw(st.booleans()):
        fact = ConceptAssertion(a, Atomic(draw(st.sampled_from(concepts))), None)
    else:
        fact = RoleAssertion(a, b, draw(st.sampled_from(roles)), None)
    return Signature(concepts, roles, individuals, contexts), fact, draw(st.sampled_from(contexts))


class TestFactGrammar:
    """A fact is an assertion at no context, and the two grammars agree."""

    @settings(max_examples=300, deadline=None)
    @given(declared_fact())
    def test_a_fact_at_a_context_is_the_assertion(self, case):
        sig, fact, u = case
        assert fact.text == plain_fact_text(fact)
        (parsed,) = parse_fact_list(fact.text, sig)
        assert parsed is fact
        assert parse_assertion(fact.text + "@" + u, sig) is parsed.at(u)
        assert fact.at(u).at(None) is fact
        assert fact.at(u).text == fact.text + "@" + u == plain_digest({fact.at(u)})

    def test_a_fact_has_no_context_in_its_text(self):
        (fact,) = parse_fact_list("(a, b) : r", SIG)
        assert fact is RoleAssertion("a", "b", "r", None) and fact.text == "(a,b):r"
        with pytest.raises(ParseError):
            parse_fact_list("a:A@U", SIG)
        with pytest.raises(ParseError):
            parse_fact_list("a:A & B", SIG)


class TestRenderingCache:
    def test_digest_equals_a_fresh_rendering_on_random_aboxes(self):
        rng = random.Random(20261018)
        inds, contexts = sorted(SIG.individual_names), sorted(SIG.context_names)
        for _ in range(400):
            abox = frozenset(
                ConceptAssertion(rng.choice(inds), random_concept(rng, 4), rng.choice(contexts))
                if rng.random() < 0.5
                else random_assertion(rng, SIG, contexts)
                for _ in range(rng.randint(0, 10))
            )
            want = plain_digest(abox)
            assert abox_digest(abox) == want  # renders and keeps each text
            assert abox_digest(abox) == want  # reads the kept texts
            assert ";".join(canonical_abox(abox)) == want

    def test_moved_assertion_renders_its_own_context(self):
        pairs = (
            (ConceptAssertion("a", And(A, Not(B)), "U"), ConceptAssertion("a", And(A, Not(B)), "V")),
            (RoleAssertion("a", "b", "r", "U"), RoleAssertion("a", "b", "r", "V")),
        )
        for a, want in pairs:
            before = a.text
            moved = a.at("V")
            assert moved is want and moved is not a
            assert moved.text == plain_digest({moved})
            assert moved.text.endswith("@V")
            assert a.text == before
            assert a.at("U") is a

    def test_equal_assertions_are_one_object_with_one_text(self):
        # Names no other test uses, so no live node has rendered its text yet.
        for make in (
            lambda: ConceptAssertion("one_text", And(A, Not(B)), "U"),
            lambda: RoleAssertion("one_text", "b", "r", "U"),
        ):
            first = make()
            assert first._text is None
            unrendered_repr, text = repr(first), first.text
            second = make()
            assert second is first and second._text is text
            assert second.text is text
            assert repr(second) == unrendered_repr and "_text" not in type(first)._fields

    def test_kept_state_lines_are_not_a_field(self):
        # A state keeps its lines as its digest, in a private slot.
        abox = frozenset({ca("b", "B", "V"), RoleAssertion("a", "b", "r", "U")})
        kept, fresh = KnowledgeState(EMPTY_TBOX, abox), KnowledgeState(EMPTY_TBOX, abox)
        assert kept.digest == abox_digest(abox)
        assert kept._digest is not None and fresh._digest is None
        assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
        assert "_digest" not in repr(kept) and KnowledgeState._fields == ("tbox", "abox")
        assert kept.lines == tuple(canonical_abox(abox)) and fresh._digest is None
        assert kept.with_abox(()) == KnowledgeState(EMPTY_TBOX, frozenset())
        assert kept.with_abox(())._digest is None
        work = WorkingState(kept)
        work.apply({ca("a", "A", "U")})
        work.digest  # spliced from the kept lines
        child = work.freeze()
        assert child == KnowledgeState(EMPTY_TBOX, abox | {ca("a", "A", "U")})
        assert child._digest is None  # the child sorts its own digest when read
        digest = child.digest
        assert digest == abox_digest(child.abox) and child._digest is digest
        assert child.digest is digest and child.lines == tuple(canonical_abox(child.abox))


class TestSaturate:
    def test_empty_is_empty(self):
        assert saturate(frozenset(), POSET) == frozenset()

    def test_undeclared_context_raises(self):
        with pytest.raises(UnknownNameError):
            saturate({ca("a", "A", "X")}, POSET)

    def test_fact_propagates_downward(self):
        out = saturate({ca("a", "A", "U")}, POSET)
        assert out == {ca("a", "A", "U"), ca("a", "A", "V"), ca("a", "A", "W")}

    def test_role_assertions_propagate_too(self):
        out = saturate({RoleAssertion("a", "b", "r", "V")}, POSET)
        assert out == {RoleAssertion("a", "b", "r", "V"), RoleAssertion("a", "b", "r", "W")}

    def test_bottom_context_gains_nothing(self):
        out = saturate({ca("a", "A", "W")}, POSET)
        assert out == {ca("a", "A", "W")}

    def test_idempotent_on_random_aboxes(self):
        rng = random.Random(31)
        for _ in range(100):
            poset = random_poset(rng, rng.randint(1, 5))
            abox = random_abox(rng, SIG, sorted(poset.contexts))
            once = saturate(abox, poset)
            assert saturate(once, poset) == once

    def test_contains_exactly_the_downward_closure(self):
        rng = random.Random(37)
        for _ in range(50):
            poset = random_poset(rng, rng.randint(1, 5))
            abox = random_abox(rng, SIG, sorted(poset.contexts))
            closed = saturate(abox, poset)
            for a in abox:
                for v in poset.contexts:
                    if poset.leq(v, a.context):
                        assert any(
                            type(b) is type(a)
                            and b.text == a.text.replace("@" + a.context, "@" + v)
                            for b in closed
                        )


class TestGuardSat:
    def setup_method(self):
        self.state = KnowledgeState(EMPTY_TBOX, frozenset({ca("a", "A", "U")}))

    def test_truth_on_any_state(self):
        assert guard_sat(self.state, TRUE_GUARD) is True
        assert guard_sat(self.state, FALSE_GUARD) is False

    def test_literal_membership(self):
        assert guard_sat(self.state, AssertGuard(ca("a", "A", "U")), "literal") is True
        assert guard_sat(self.state, AssertGuard(ca("a", "A", "V")), "literal") is False

    def test_saturated_membership(self):
        # Derived both ways: saturate({a:A@U}) contains a:A@V since V <= U.
        assert ca("a", "A", "V") in saturate(self.state.abox, POSET)
        g = AssertGuard(ca("a", "A", "V"))
        assert guard_sat(self.state, g, "saturated", POSET) is True
        assert guard_sat(self.state, g, "literal") is False

    def test_saturated_guard_over_undeclared_context_raises(self):
        # Raises even though no assertion in the state could match.
        with pytest.raises(UnknownNameError):
            guard_sat(self.state, AssertGuard(ca("b", "B", "X")), "saturated", POSET)

    def test_saturated_mode_requires_poset(self):
        with pytest.raises(ValueError):
            guard_sat(self.state, TRUE_GUARD, "saturated")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            guard_sat(self.state, TRUE_GUARD, "upward")

    def test_subsume_guard_consults_the_tbox(self):
        t = TBox([(A, B)])
        state = KnowledgeState(t, frozenset())
        assert guard_sat(state, SubsumeGuard(A, B)) is True
        assert guard_sat(state, SubsumeGuard(B, A)) is False

    def test_subsume_guard_ignores_the_abox(self):
        g = SubsumeGuard(A, B)
        rng = random.Random(41)
        for _ in range(20):
            state = KnowledgeState(EMPTY_TBOX, random_abox(rng, SIG, ["U", "V"]))
            assert guard_sat(state, g) is False

    def test_boolean_laws_on_random_states(self):
        rng = random.Random(43)
        universe = [ca("a", "A", "U"), ca("b", "B", "V"), RoleAssertion("a", "b", "r", "U")]
        for _ in range(100):
            state = KnowledgeState(EMPTY_TBOX, random_abox(rng, SIG, ["U", "V"]))
            g = random_guard(rng, 3, universe)
            value = guard_sat(state, g)
            assert guard_sat(state, GuardNot(GuardNot(g))) == value
            assert guard_sat(state, GuardAnd(g, TRUE_GUARD)) == value

    def test_literal_on_saturated_equals_saturated_on_original(self):
        rng = random.Random(47)
        for _ in range(100):
            poset = random_poset(rng, rng.randint(1, 4))
            contexts = sorted(poset.contexts)
            abox = random_abox(rng, SIG, contexts)
            closed = KnowledgeState(EMPTY_TBOX, saturate(abox, poset))
            raw = KnowledgeState(EMPTY_TBOX, abox)
            probes = sorted(abox, key=lambda a: a.text)[:3] + [ca("a", "A", contexts[0])]
            for a in probes:
                for ctx in contexts:
                    probe = AssertGuard(a.at(ctx))
                    lit = guard_sat(closed, probe, "literal")
                    sat = guard_sat(raw, probe, "saturated", poset)
                    assert lit == sat


def budget_sweep() -> list:
    """Decide 40 random atoms at the exact budget B they need, after a
    test at B - 1 that runs out and keeps nothing, then test each at every
    budget b in 1..B+1: each outcome, kept or not, must be the one a fresh
    equal TBox gives. Returns (B, the outcome at each b) per atom, an
    outcome being the verdict or "budget"."""

    def outcome(tbox, atom, budget):
        try:
            return guard_sat(KnowledgeState(tbox, frozenset()), atom, budget=budget)
        except BudgetExceededError:
            return "budget"

    rng = random.Random(61)
    sweep = []
    for _ in range(40):
        tbox = random_tbox(rng)
        atom = SubsumeGuard(random_concept(rng, 3), random_concept(rng, 3))
        _, need = decide(tbox, And(atom.lhs, Not(atom.rhs)), DEFAULT_NODE_BUDGET)
        assert outcome(tbox, atom, need - 1) == "budget" and atom not in tbox._guards
        assert outcome(tbox, atom, need) != "budget" and atom in tbox._guards
        got = [outcome(tbox, atom, b) for b in range(1, need + 2)]
        assert got == [outcome(TBox(tbox.inclusions), atom, b) for b in range(1, need + 2)]
        assert got == ["budget"] * (need - 1) + got[-2:] and got[-1] == got[-2]
        sweep.append((need, got))
    return sweep


class TestGuardStack:
    """guard_sat evaluates compound guards on an explicit stack; the
    recursive evaluator in tests/oracles.py is the reference."""

    @staticmethod
    def outcome(sat, state, guard, mode, poset, budget, log):
        # The verdict or the exhaustion, and every subsumption atom the
        # reasoner was asked, in order.
        del log[:]
        try:
            verdict = sat(state, guard, mode, poset, budget=budget)
        except BudgetExceededError:
            verdict = "budget"
        return verdict, list(log)

    def test_agrees_with_the_recursive_evaluator(self, monkeypatch):
        # On a TBox that has decided nothing, guard_sat decides the atoms
        # the reference asks, in its order, each once; testing the guard
        # again decides none, but the one that ran out of budget.
        asked, decided = [], []

        def asking(tbox, lhs, rhs, *, budget):
            asked.append((lhs, rhs))
            return subsumes(tbox, lhs, rhs, budget=budget)

        def deciding(tbox, concept, budget):
            decided.append((concept.left, concept.right.child))  # And(lhs, Not(rhs))
            return decide(tbox, concept, budget)

        subsumes, decide = oracles.subsumes, ctxdl.kb.decide
        monkeypatch.setattr(oracles, "subsumes", asking)
        monkeypatch.setattr(ctxdl.kb, "decide", deciding)
        rng = random.Random(53)
        universe = [ca("a", "A", "U"), ca("b", "B", "V"), RoleAssertion("a", "b", "r", "W")]
        seen = {True: 0, False: 0, "budget": 0}
        for _ in range(400):
            tbox = random_tbox(rng)
            atoms = [
                SubsumeGuard(random_concept(rng, 3), random_concept(rng, 3)) for _ in range(3)
            ]
            guard = random_guard(rng, 6, universe, atoms)
            mode = rng.choice(["literal", "saturated"])
            budget = rng.choice([1, 3, 10, 60])
            state = KnowledgeState(tbox, random_abox(rng, SIG, ["U", "V", "W"]))
            verdict, order = self.outcome(recursive_guard_sat, state, guard, mode, POSET, budget, asked)
            got = self.outcome(guard_sat, state, guard, mode, POSET, budget, decided)
            assert got == (verdict, list(dict.fromkeys(order)))
            again = self.outcome(guard_sat, state, guard, mode, POSET, budget, decided)
            assert again == (verdict, order[-1:] if verdict == "budget" else [])
            seen[verdict] += 1
        assert min(seen.values()) >= 20, seen

    def test_memo_fills_in_the_recursive_order(self, monkeypatch):
        asked = []

        def asking(tbox, lhs, rhs, *, budget):
            asked.append(SubsumeGuard(lhs, rhs))
            return subsumes(tbox, lhs, rhs, budget=budget)

        subsumes = oracles.subsumes
        monkeypatch.setattr(oracles, "subsumes", asking)
        rng = random.Random(59)
        for _ in range(100):
            tbox = random_tbox(rng)
            atoms = [SubsumeGuard(random_concept(rng, 2), random_concept(rng, 2)) for _ in range(4)]
            guard = random_guard(rng, 6, [ca("a", "A", "U")], atoms)
            state = KnowledgeState(tbox, frozenset({ca("a", "A", "U")}))
            del asked[:]
            want = recursive_guard_sat(state, guard)
            assert tbox._guards == {}  # the reference keeps nothing
            assert guard_sat(state, guard) == want
            kept = dict(tbox._guards)
            assert list(kept) == list(dict.fromkeys(asked))
            for g, (verdict, spent) in kept.items():
                sat, units = decide(tbox, And(g.lhs, Not(g.rhs)), DEFAULT_NODE_BUDGET)
                assert (verdict, spent) == (not sat, units)
            # Another state over the same TBox decides nothing again.
            other = KnowledgeState(tbox, frozenset())
            assert guard_sat(other, guard) == recursive_guard_sat(other, guard)
            assert tbox._guards == kept

    def test_kept_verdicts_honour_every_budget(self):
        # budget_sweep checks each budget against a fresh equal TBox.
        assert len(budget_sweep()) == 40

    def test_budget_sweep_is_the_same_under_every_hash_seed(self):
        want = json.loads(json.dumps(budget_sweep()))
        for seed, salt in hash_orders(("0", "1", "random")):
            proc = run_child("import json, test_kb; print(json.dumps(test_kb.budget_sweep()))", hashseed=seed, salt=salt)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == want, f"PYTHONHASHSEED={seed}, salt={salt}"

    @pytest.mark.parametrize("n", [700, 3000])
    def test_long_disjunction_and_conjunction_chains(self, n):
        # 'a | b' parses as '!(!a & !b)', left-nested: three guard nodes
        # per disjunct, so n disjuncts nest past Python's recursion limit.
        state = KnowledgeState(EMPTY_TBOX, frozenset({ca("a", "A", "U")}))
        hit, miss = "a:A@U", "a:B@U"
        assert guard_sat(state, parse_guard(" | ".join([miss] * (n - 1) + [hit]), SIG)) is True
        assert guard_sat(state, parse_guard(" | ".join([miss] * n), SIG)) is False
        assert guard_sat(state, parse_guard(" & ".join([hit] * n), SIG)) is True
        assert guard_sat(state, parse_guard(" & ".join([hit] * (n - 1) + [miss]), SIG)) is False
        assert guard_sat(state, parse_guard("!(" + " & ".join([hit] * n) + ")", SIG)) is False
        with pytest.raises(RecursionError):
            recursive_guard_sat(state, parse_guard(" | ".join([miss] * n), SIG))
