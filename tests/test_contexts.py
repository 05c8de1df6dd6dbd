"""Context poset: order queries, meets, covering validation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_poset
from ctxdl.contexts import ContextPoset, Covering, validate_covering
from ctxdl.errors import UnknownNameError


def chain():
    # W <= V <= U
    return ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])


def diamond():
    # Two maximal common lower bounds of U and V: no meet.
    return ContextPoset(
        ["U", "V", "L1", "L2"],
        [("L1", "U"), ("L1", "V"), ("L2", "U"), ("L2", "V")],
    )


def _reachable_below(edges, u):
    """Down-set of *u* by search over the declared edges, independent of the closure."""
    seen, todo = {u}, [u]
    while todo:
        x = todo.pop()
        for a, b in edges:
            if b == x and a not in seen:
                seen.add(a)
                todo.append(a)
    return seen


class TestOrder:
    def test_reflexive(self):
        assert chain().leq("U", "U")

    def test_transitive(self):
        assert chain().leq("W", "U")

    def test_incomparable(self):
        p = ContextPoset(["U", "V"])
        assert not p.leq("U", "V")
        assert not p.leq("V", "U")

    def test_undeclared_context(self):
        with pytest.raises(UnknownNameError):
            chain().leq("U", "X")
        with pytest.raises(UnknownNameError):
            chain().below("X")
        with pytest.raises(UnknownNameError):
            chain().above("X")

    def test_cycle_rejected_at_load(self):
        with pytest.raises(ValueError) as exc:
            ContextPoset(["U", "V"], [("U", "V"), ("V", "U")])
        assert "cycle" in str(exc.value)

    def test_long_cycle_rejected(self):
        with pytest.raises(ValueError):
            ContextPoset(["U", "V", "W"], [("U", "V"), ("V", "W"), ("W", "U")])

    def test_up_sets_are_the_supercontexts_on_random_posets(self):
        rng = random.Random(20261019)
        for _ in range(200):
            p = random_poset(rng, rng.randint(1, 8))
            for v in p.contexts:
                assert p.above(v) == {u for u in p.contexts if p.leq(v, u)}

    def test_closure_is_idempotent(self):
        p = chain()
        again = ContextPoset(p.contexts, p.leq_pairs)
        assert again.leq_pairs == p.leq_pairs


class TestMeet:
    def test_idempotent(self):
        assert chain().meet("U", "U") == "U"

    def test_comparable_pair_meets_at_the_lower(self):
        assert chain().meet("V", "U") == "V"
        assert chain().meet("U", "W") == "W"

    def test_diamond_has_no_meet(self):
        # Derived by enumerating the lower bounds of the 4-element poset:
        # {L1, L2}, both maximal, so no greatest one exists.
        p = diamond()
        assert p.lower_bounds("U", "V") == {"L1", "L2"}
        assert p.meet("U", "V") is None

    def test_disjoint_pair_has_no_meet(self):
        p = ContextPoset(["U", "V"])
        assert p.meet("U", "V") is None

    @given(st.data())
    @settings(max_examples=100)
    def test_meet_is_the_greatest_lower_bound(self, data):
        names = [f"c{i}" for i in range(5)]
        edges = data.draw(
            st.lists(
                st.tuples(st.sampled_from(names), st.sampled_from(names)),
                max_size=8,
            )
        )
        # Only downward edges i->j with i<j: guarantees acyclicity.
        edges = [(a, b) for a, b in edges if a < b]
        p = ContextPoset(names, edges)
        u = data.draw(st.sampled_from(names))
        v = data.draw(st.sampled_from(names))
        m = p.meet(u, v)
        bounds = p.lower_bounds(u, v)
        assert p.below(u) == _reachable_below(edges, u)
        assert p.below(u) == {w for w in names if p.leq(w, u)}
        assert bounds == p.below(u) & p.below(v)
        if m is None:
            # No single greatest element among the common lower bounds.
            assert not any(all(p.leq(w, x) for w in bounds) for x in bounds)
        else:
            assert p.leq(m, u) and p.leq(m, v)
            assert all(p.leq(w, m) for w in bounds)


class TestCovering:
    def test_identity_cover_ok(self):
        p = chain()
        assert validate_covering(p, Covering("U", ["U"])) == []

    def test_member_not_below_target(self):
        p = chain()
        violations = validate_covering(p, Covering("V", ["U"]))
        assert violations and "U" in violations[0]

    def test_empty_covering(self):
        p = chain()
        assert validate_covering(p, Covering("U", [])) == ["empty covering"]

    def test_members_deduplicated(self):
        assert Covering("U", ["V", "V", "W"]).members == ("V", "W")
