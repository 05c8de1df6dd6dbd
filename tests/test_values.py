"""The value-type bases: frozen records and interned nodes."""

from __future__ import annotations

import copy
import dataclasses
import gc
import importlib
import inspect
import pickle
import pkgutil
import random
import sys
import threading

import pytest

import ctxdl
from ctxdl import values
from ctxdl.concepts import And, Atomic, Exists, Not, Or, Top
from corpus import SIG, concept_fact, role_fact, random_abox, random_assertion, random_concept, random_guard, random_program
from ctxdl.concepts import parse_concept
from ctxdl.kb import AssertGuard, ConceptAssertion, GuardAnd, KnowledgeState
from ctxdl.programs import SKIP, Seq
from ctxdl.reasoner import EMPTY_TBOX, FiniteModel, TBox
from ctxdl.sheaf import Section
from ctxdl.values import Node, Record, records
from oracles import recursive_repr


class Pair(Record):
    __slots__ = ("left", "right")


class Cell(Node):
    __slots__ = ("value", "_seen")


class Memo(Record):
    __slots__ = ("value", "_seen")


class TestRecord:
    def test_constructor_takes_fields_by_position_or_name(self):
        assert Pair(1, 2) == Pair(left=1, right=2) == Pair(1, right=2)
        assert (Pair(1, 2).left, Pair(1, 2).right) == (1, 2)
        assert Pair._fields == ("left", "right")
        for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"left": 2}), ((1, 2), {"other": 3})]:
            with pytest.raises(TypeError):
                Pair(*args, **kwargs)

    def test_frozen(self):
        p = Pair(1, 2)
        with pytest.raises(AttributeError):
            p.left = 3
        with pytest.raises(AttributeError):
            del p.left
        with pytest.raises(AttributeError):
            p.other = 3
        assert p == Pair(1, 2)

    def test_structural_equality_and_hash(self):
        assert Pair(1, (2, 3)) == Pair(1, (2, 3)) and hash(Pair(1, (2, 3))) == hash(Pair(1, (2, 3)))
        assert Pair(1, 2) != Pair(2, 1)
        assert Pair(1, 2) != (1, 2)
        assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2

    def test_repr_is_the_dataclass_repr(self):
        @dataclasses.dataclass(frozen=True)
        class Same:
            context: str
            facts: frozenset

        got = repr(Section("U", frozenset({concept_fact("a", "A")})))
        assert got == repr(Same("U", frozenset({concept_fact("a", "A")}))).replace(Same.__qualname__, "Section")
        assert got == (
            "Section(context='U', facts=frozenset({"
            "ConceptAssertion(individual='a', concept=Atomic(name='A'), context=None)}))"
        )
        assert repr(Top()) == "Top()"

    def test_private_slots_start_empty_and_are_ignored(self):
        kept, fresh = Memo(3), Memo(value=3)
        assert kept._seen is None and Memo._fields == ("value",)
        object.__setattr__(kept, "_seen", "cached")
        assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh) == "Memo(value=3)"
        assert pickle.loads(pickle.dumps(kept))._seen is None

    def test_repr_of_a_long_chain(self):
        chain = parse_concept(" & ".join(["A"] * 3000), SIG)
        atom = "Atomic(name='A')"
        assert repr(chain) == "And(left=" * 2999 + atom + f", right={atom})" * 2999
        with pytest.raises(RecursionError):
            recursive_repr(chain)

    def test_repr_is_the_recursive_repr(self):
        rng = random.Random(53)
        contexts = sorted(SIG.context_names)
        universe = [random_assertion(rng, SIG, contexts) for _ in range(4)]
        for _ in range(200):
            c = random_concept(rng, 4)
            abox = random_abox(rng, SIG, contexts)
            shown = [
                c,
                TBox([(c, random_concept(rng, 2))]),
                random_guard(rng, 3, universe),
                random_program(rng, 3, universe),
                KnowledgeState(EMPTY_TBOX, abox),
                Section("U", frozenset({concept_fact("a", "A"), role_fact("a", "b", "r")})),
                FiniteModel(frozenset({1}), {"A": frozenset({1})}, {"r": frozenset({(1, 1)})}),
                (c, [Pair(c, "x'y")], {"k": Memo(None)}),
            ]
            for value in shown:
                assert repr(value) == recursive_repr(value)

    def test_pickle_and_copy(self):
        p = Pair(1, frozenset({2}))
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p and copy.copy(p) == p


class TestRecords:
    def test_records_equal_constructor_built_ones(self):
        values = [None, 0, "x'y", frozenset({concept_fact("a", "A")}), Pair(1, 2)]
        built = records(Memo, len(values), values)
        assert [type(m) for m in built] == [Memo] * len(values)
        for got, value in zip(built, values):
            want = Memo(value)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert pickle.loads(pickle.dumps(got)) == want
        pairs = records(Pair, 3, "abc", range(3))
        assert pairs == [Pair("a", 0), Pair("b", 1), Pair("c", 2)]

    def test_caches_start_empty(self):
        assert [m._seen for m in records(Memo, 4, range(4))] == [None] * 4

    def test_count_zero_gives_no_records(self):
        assert records(Memo, 0, []) == []
        assert records(Pair, 0, iter(()), iter(())) == []

    def test_node_classes_are_refused(self):
        marker = object()
        with pytest.raises(TypeError):
            records(Cell, 1, [marker])
        assert Cell.existing(marker) is None

    def test_columns_must_match_the_fields_and_the_count(self):
        with pytest.raises(TypeError):
            records(Pair, 1, [1])
        with pytest.raises(ValueError):
            records(Pair, 3, [1, 2, 3], [1, 2])


class TestNode:
    def test_interned(self):
        assert Atomic("A") is Atomic("A")
        c = And(Exists("r", Not(Atomic("A"))), Or(Atomic("B"), Top()))
        assert c is And(Exists("r", Not(Atomic("A"))), Or(Atomic("B"), Top()))
        assert c == And(Exists("r", Not(Atomic("A"))), Or(Atomic("B"), Top()))
        assert And(Atomic("A"), Atomic("B")) is not And(Atomic("B"), Atomic("A"))
        # Equal fields, not identical ones, pick the node.
        a = ConceptAssertion("a", Atomic("A"), "U")
        assert AssertGuard(a) is AssertGuard(ConceptAssertion("a", Atomic("A"), "U"))

    def test_different_kinds_with_the_same_fields_differ(self):
        assert And(Atomic("A"), Atomic("B")) != Or(Atomic("A"), Atomic("B"))
        assert Atomic("A") != "A" and Atomic("A") != ("A",)

    def test_hash_is_stored_and_does_not_follow_the_tree(self):
        c = Atomic("A")
        for _ in range(5_000):
            c = And(c, Atomic("B"))
        assert hash(c) == c._hash and c in {c}
        assert And(c, Top()) is And(c, Top())

    def test_private_slots_start_empty_and_are_not_fields(self):
        cell = Cell(3)
        assert cell._seen is None and Cell._fields == ("value",)
        assert repr(cell) == "Cell(value=3)"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Atomic("A").name = "B"

    def test_fields_by_position_only(self):
        for args, kwargs in [((), {}), (("A", "B"), {}), ((), {"name": "A"})]:
            with pytest.raises(TypeError):
                Atomic(*args, **kwargs)

    def test_pickle_and_copy_give_the_interned_node(self):
        c = Exists("r", And(Atomic("A"), Not(Atomic("B"))))
        assert pickle.loads(pickle.dumps(c)) is c
        assert copy.deepcopy(c) is c and copy.copy(c) is c
        assert pickle.loads(pickle.dumps(Seq(SKIP, SKIP))) is Seq(SKIP, SKIP)

    def test_existing_makes_no_node(self):
        a = Atomic("Existing")
        before = len(values._table)
        assert Not.existing(a) is None and len(values._table) == before
        negated = Not(a)
        assert Not.existing(a) is negated

    def test_unique_table_is_weak(self):
        keep = [Atomic("A"), GuardAnd(AssertGuard(ConceptAssertion("a", Atomic("A"), "U")), SKIP)]
        # Earlier tests may leave cycles that hold nodes; a collection
        # while the 300,000 are made would drop them below the count.
        gc.collect()
        before = len(values._table)
        made = [Exists("r", And(Atomic(f"Drop{i}"), Not(Atomic("A")))) for i in range(100_000)]
        assert len(values._table) >= before + 300_000
        del made
        assert len(values._table) == before
        assert keep[0] is Atomic("A")

    def test_threads_never_make_twins(self):
        # Four threads build the same fresh nodes at once, with a thread
        # switch about every microsecond: each structure must be one node.
        workers, rounds, size = 4, 30, 100
        start = threading.Barrier(workers, timeout=60)
        got = {}

        def build(k):
            got[k] = []
            for r in range(rounds):
                start.wait()
                got[k].append([And(Atomic(f"Twin{r}_{i}"), Not(Atomic(f"Twin{r}_{i}"))) for i in range(size)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and sorted(got) == list(range(workers))
        for k in range(1, workers):
            for mine, first in zip(got[k], got[0], strict=True):
                assert all(x is y and x.left is y.left for x, y in zip(mine, first, strict=True))


def test_only_the_replace_pinned_classes_are_dataclasses():
    # perfbench/update.py calls dataclasses.replace on an agent to swap its oracle.
    found = set()
    for info in pkgutil.iter_modules(ctxdl.__path__):
        module = importlib.import_module(f"ctxdl.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(f"{info.name}.{name}")
    assert found == {"agents.Agent"}
