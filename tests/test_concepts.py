"""Concept language: parsing, printing round trips, normal form, subtrees."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdl.concepts import (
    And,
    Atomic,
    BOT,
    Exists,
    Forall,
    Not,
    Or,
    Signature,
    TOP,
    nnf,
    parse_concept,
    print_concept,
    subconcepts,
)
from ctxdl.errors import ParseError, UnknownNameError
from ctxdl.reasoner import EMPTY_TBOX, enumerate_models, extension
from oracles import recursive_nnf, recursive_print_concept

SIG = Signature(
    concept_names=("A", "B", "C"),
    role_names=("r", "s"),
    individual_names=("a", "b"),
    context_names=("U", "V"),
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def concept_exprs(max_depth=4, atoms=(A, B, C), roles=("r", "s")):
    leaves = st.one_of(st.sampled_from(list(atoms)), st.just(TOP), st.just(BOT))

    def extend(children):
        role = st.sampled_from(list(roles))
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Exists, role, children),
            st.builds(Forall, role, children),
        )

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


class TestParse:
    def test_top_literal(self):
        assert parse_concept("top", SIG) == TOP

    def test_quantifier_with_conjunction_and_negation(self):
        got = parse_concept("exists r.(A & !B)", SIG)
        assert got == Exists("r", And(A, Not(B)))

    def test_incomplete_conjunction_is_a_syntax_error(self):
        with pytest.raises(ParseError) as exc:
            parse_concept("A &", SIG)
        assert "expected a concept" in str(exc.value)

    def test_precedence_negation_quantifier_and_or(self):
        assert parse_concept("!A & B", SIG) == And(Not(A), B)
        assert parse_concept("exists r.A & B", SIG) == And(Exists("r", A), B)
        assert parse_concept("A & B | C", SIG) == Or(And(A, B), C)
        assert parse_concept("forall r.!A", SIG) == Forall("r", Not(A))
        assert parse_concept("!exists r.A", SIG) == Not(Exists("r", A))

    def test_parens_override(self):
        assert parse_concept("A & (B | C)", SIG) == And(A, Or(B, C))
        assert parse_concept("exists r.(A | B)", SIG) == Exists("r", Or(A, B))

    def test_left_associativity(self):
        assert parse_concept("A & B & C", SIG) == And(And(A, B), C)
        assert parse_concept("A | B | C", SIG) == Or(Or(A, B), C)

    def test_unknown_concept_name(self):
        with pytest.raises(UnknownNameError) as exc:
            parse_concept("A & Zz", SIG)
        assert exc.value.col == 5

    def test_unknown_role_name(self):
        with pytest.raises(UnknownNameError):
            parse_concept("exists q.A", SIG)

    def test_lexical_error_has_position(self):
        with pytest.raises(ParseError) as exc:
            parse_concept("A & %", SIG)
        assert exc.value.line == 1 and exc.value.col == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_concept("A B", SIG)

    @given(concept_exprs())
    @settings(max_examples=200)
    def test_print_parse_round_trip(self, c):
        assert parse_concept(print_concept(c), SIG) == c

    @given(concept_exprs())
    @settings(max_examples=200)
    def test_same_text_as_the_recursive_printer(self, c):
        assert print_concept(c) == recursive_print_concept(c)


class TestFlatChains:
    """Chains that open no nesting level cost no Python recursion."""

    @pytest.mark.parametrize("op", [" & ", " | "])
    def test_print_parse_and_nnf_of_3000_operands(self, op):
        text = op.join(["A", "!B", "exists r.!(C | A)"] * 1000)
        c = parse_concept(text, SIG)
        assert print_concept(c) == text
        assert parse_concept(text, SIG) is c and hash(parse_concept(text, SIG)) == hash(c)
        normal = nnf(c)
        assert print_concept(normal) == text.replace("!(C | A)", "(!C & !A)")
        negated = print_concept(nnf(Not(c)))
        assert negated.count("forall r.(C | A)") == 1000 and negated.count("!A") == 1000


class TestSignature:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Signature(concept_names=("A",), role_names=("A",))

    def test_reserved_words_rejected(self):
        with pytest.raises(ValueError):
            Signature(concept_names=("top",))

    def test_bad_identifier_rejected(self):
        with pytest.raises(ValueError):
            Signature(concept_names=("9lives",))


class TestNnf:
    def test_negated_top_is_bot(self):
        assert nnf(Not(TOP)) == BOT

    def test_de_morgan(self):
        assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))

    def test_quantifier_duality(self):
        c = Or(A, Not(B))
        assert nnf(Not(Exists("r", c))) == Forall("r", nnf(Not(c)))

    def test_double_negation(self):
        assert nnf(Not(Not(A))) == A

    @given(concept_exprs())
    @settings(max_examples=200)
    def test_same_as_the_recursive_nnf(self, c):
        assert nnf(c) is recursive_nnf(c)
        assert nnf(Not(c)) is recursive_nnf(Not(c))
        assert nnf(c) is nnf(c)  # the second call reads the node's cache

    @given(concept_exprs())
    @settings(max_examples=200)
    def test_idempotent(self, c):
        once = nnf(c)
        assert nnf(once) == once

    @given(concept_exprs())
    @settings(max_examples=200)
    def test_negation_only_on_atoms(self, c):
        for node in subconcepts(nnf(c)):
            if isinstance(node, Not):
                assert isinstance(node.child, Atomic)

    @given(concept_exprs(max_depth=3, atoms=(A, B), roles=("r",)))
    @settings(max_examples=60, deadline=None)
    def test_preserves_extension_in_every_small_model(self, c):
        # Stronger than satisfiability equivalence: the extension itself is
        # preserved model by model, checked by direct evaluation.
        small = Signature(concept_names=("A", "B"), role_names=("r",))
        normal = nnf(c)
        for model in enumerate_models(small, EMPTY_TBOX, 2, max_bits=16):
            assert extension(model, c) == extension(model, normal)


class TestSubconcepts:
    def test_top_alone(self):
        assert subconcepts(TOP) == {TOP}

    def test_conjunction(self):
        assert subconcepts(And(A, B)) == {And(A, B), A, B}

    def test_nested_quantifier(self):
        c = Exists("r", Not(A))
        assert subconcepts(c) == {c, Not(A), A}

    @given(concept_exprs())
    @settings(max_examples=100)
    def test_size_bounded_by_node_count(self, c):
        def nodes(x):
            if isinstance(x, Not):
                return 1 + nodes(x.child)
            if isinstance(x, (And, Or)):
                return 1 + nodes(x.left) + nodes(x.right)
            if isinstance(x, (Exists, Forall)):
                return 1 + nodes(x.child)
            return 1

        assert len(subconcepts(c)) <= nodes(c)
