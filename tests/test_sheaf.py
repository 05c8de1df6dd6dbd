"""Sections, restriction, compatibility, gluing, and refinement stability."""

from __future__ import annotations

import random

import pytest

from corpus import concept_fact, random_chain, random_family, random_presheaf, role_fact
from oracles import brute_force_glue, brute_force_stable, per_code_subsets, powerset
from ctxdl.contexts import ContextPoset, Covering
from ctxdl.errors import RefinementChainError, SearchSpaceError
from ctxdl.sheaf import (
    Conflict,
    Glued,
    Incompatible,
    NonUnique,
    Presheaf,
    Section,
    chain_from,
    compatible,
    global_sections,
    glue,
    restrict,
    stable_under_refinement,
    _subsets_in_order,
)

F1 = concept_fact("a", "A")
F2 = concept_fact("b", "B")
F3 = role_fact("a", "b", "r")
G = concept_fact("a", "C")


def simple_presheaf():
    # W <= V <= U with shrinking-then-growing universes (not monotone).
    poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])
    return Presheaf(poset, {"U": {F1, F2}, "V": {F1}, "W": {F1, F3}})


def split_cover():
    # Cam and Lidar cover Scene and overlap in Core.
    poset = ContextPoset(
        ["Scene", "Cam", "Lidar", "Core"],
        [("Cam", "Scene"), ("Lidar", "Scene"), ("Core", "Cam"), ("Core", "Lidar")],
    )
    universes = {
        "Scene": {F1, F2},
        "Cam": {F1},
        "Lidar": {F2},
        "Core": set(),
    }
    return Presheaf(poset, universes), Covering("Scene", ["Cam", "Lidar"])


class TestPresheafConstruction:
    def test_non_interpolating_universes_rejected(self):
        # F1 is expressible at the top and the bottom of the chain but not
        # in the middle: restriction along U->V->W would lose it while the
        # direct U->W restriction keeps it.
        poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])
        with pytest.raises(ValueError) as exc:
            Presheaf(poset, {"U": {F1}, "V": set(), "W": {F1}})
        assert "not a presheaf" in str(exc.value)

    def test_non_monotone_universes_allowed(self):
        # A fact only expressible below, and one only expressible above.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        ps = Presheaf(poset, {"U": {F2}, "V": {F1}})
        assert ps.universe("V") == {F1}

    def test_section_validation(self):
        ps = simple_presheaf()
        with pytest.raises(ValueError):
            ps.section("V", {F2})


class TestRestrict:
    def test_identity_on_own_context(self):
        ps = simple_presheaf()
        s = Section("U", frozenset({F1, F2}))
        assert restrict(ps, s, "U") == s

    def test_intersects_with_the_subuniverse(self):
        ps = simple_presheaf()
        s = Section("U", frozenset({F1, F2}))
        assert restrict(ps, s, "V") == Section("V", frozenset({F1}))

    def test_not_a_subcontext(self):
        ps = simple_presheaf()
        with pytest.raises(ValueError):
            restrict(ps, Section("V", frozenset()), "U")

    def test_functorial_on_random_presheaves(self):
        rng = random.Random(73)
        for _ in range(100):
            ps, _ = random_presheaf(rng)
            names = sorted(ps.poset.contexts)
            u = rng.choice(names)
            below_u = [c for c in names if ps.poset.leq(c, u)]
            v = rng.choice(below_u)
            w = rng.choice([c for c in names if ps.poset.leq(c, v)])
            s = Section(u, frozenset(f for f in ps.universe(u) if rng.random() < 0.5))
            assert restrict(ps, restrict(ps, s, v), w) == restrict(ps, s, w)


class TestCompatible:
    def test_singleton_family(self):
        ps, _ = split_cover()
        ok, conflicts = compatible(
            ps, [Section("Cam", frozenset({F1}))], Covering("Scene", ["Cam"])
        )
        assert ok and conflicts == ()

    def test_agreement_on_the_meet(self):
        # Hand derivation: universe(Core) is empty, so both restrictions are
        # empty and agree.
        ps, cov = split_cover()
        family = [Section("Cam", frozenset({F1})), Section("Lidar", frozenset({F2}))]
        ok, _ = compatible(ps, family, cov)
        assert ok

    def test_disagreement_names_the_fact(self):
        # Same shape, but now the overlap can see F1 and only Cam has it.
        poset = ContextPoset(
            ["Scene", "Cam", "Lidar", "Core"],
            [("Cam", "Scene"), ("Lidar", "Scene"), ("Core", "Cam"), ("Core", "Lidar")],
        )
        ps = Presheaf(
            poset,
            {"Scene": {F1, F2}, "Cam": {F1}, "Lidar": {F1, F2}, "Core": {F1}},
        )
        family = [Section("Cam", frozenset({F1})), Section("Lidar", frozenset({F2}))]
        ok, conflicts = compatible(ps, family, Covering("Scene", ["Cam", "Lidar"]))
        assert not ok
        assert conflicts[0].overlap == "Core"
        assert F1 in conflicts[0].facts

    def test_meet_free_pairs_are_unconstrained(self):
        poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "U")])
        ps = Presheaf(poset, {"U": {F1}, "V": {F1}, "W": {F1}})
        family = [Section("V", frozenset({F1})), Section("W", frozenset())]
        ok, _ = compatible(ps, family, Covering("U", ["V", "W"]))
        assert ok  # V and W have no meet, so the disagreement is invisible

    def test_family_must_match_the_covering(self):
        ps, cov = split_cover()
        with pytest.raises(ValueError):
            compatible(ps, [Section("Cam", frozenset())], cov)

    def test_symmetric_and_reflexive(self):
        rng = random.Random(79)
        for _ in range(50):
            ps, cov = random_presheaf(rng)
            family = random_family(rng, ps, cov)
            ok1, _ = compatible(ps, family, cov)
            ok2, _ = compatible(ps, list(reversed(family)), cov)
            assert ok1 == ok2
            for s in family:
                okr, _ = compatible(
                    ps, [s], Covering(cov.target, [s.context])
                )
                assert okr


class TestGlue:
    def test_identity_cover_glues_to_the_section_itself(self):
        ps = simple_presheaf()
        s = Section("U", frozenset({F1}))
        result = glue(ps, [s], Covering("U", ["U"]))
        assert result == Glued(s)

    def test_jointly_covering_members_glue_to_the_union(self):
        # Derived: Cam sees F1, Lidar sees F2, together they pin down both
        # facts of Scene, so the unique candidate is the union.
        ps, cov = split_cover()
        family = [Section("Cam", frozenset({F1})), Section("Lidar", frozenset({F2}))]
        result = glue(ps, family, cov)
        assert result == Glued(Section("Scene", frozenset({F1, F2})))

    def test_uncovered_fact_gives_two_candidates(self):
        # G lives only in the target universe: no member constrains it, so
        # enumeration finds exactly the candidates with and without G.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        ps = Presheaf(poset, {"U": {F1, G}, "V": {F1}})
        result = glue(ps, [Section("V", frozenset({F1}))], Covering("U", ["V"]))
        assert isinstance(result, NonUnique)
        assert [s.facts for s in result.candidates] == [
            frozenset({F1}),
            frozenset({F1, G}),
        ]

    def test_member_fact_outside_the_target_universe(self):
        # V's section holds F3, which U cannot express: no candidate exists.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        ps = Presheaf(poset, {"U": {F1}, "V": {F1, F3}})
        result = glue(ps, [Section("V", frozenset({F1, F3}))], Covering("U", ["V"]))
        assert isinstance(result, Incompatible)
        assert any(F3 in c.facts for c in result.conflicts)

    def test_obstructions_are_listed_in_family_and_text_order(self):
        # The facts' nodes are made in reverse text order first, so their
        # hashes (creation serials) set an order that is not text order.
        pairs = [("oz", "B"), ("oy", "B"), ("ox", "B"), ("ox", "A"), ("ow", "A")]
        zb, yb, xb, xa, wa = [concept_fact(a, c) for a, c in pairs]
        # L and R have no meet, so the family is compatible; R forces x:B
        # and y:B in and x:A and z:B out, and L claims the opposite, plus
        # w:A, which T cannot express.
        poset = ContextPoset(["T", "L", "R"], [("L", "T"), ("R", "T")])
        shared = {xa, xb, yb, zb}
        ps = Presheaf(poset, {"T": shared, "L": shared | {wa}, "R": shared})
        family = [Section("R", frozenset({xb, yb})), Section("L", frozenset({xa, zb, wa}))]
        result = glue(ps, family, Covering("T", ["L", "R"]))
        assert result == Incompatible((
            Conflict("L", "T", "T", frozenset({wa})),  # L's own facts, by text
            Conflict("R", "L", "T", frozenset({xa})),
            Conflict("R", "L", "T", frozenset({zb})),
            Conflict("R", "L", "T", frozenset({xb})),  # then the facts L leaves out
            Conflict("R", "L", "T", frozenset({yb})),
        ))

    def test_universe_guard(self):
        # The limit bounds the listing of candidates: free facts, not the
        # target universe. Universe validation happens before name checks
        # against a signature here; the presheaf layer does not consult one.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        big = {concept_fact("a", f"A{i}") for i in range(25)}
        seen = {concept_fact("a", f"A{i}") for i in range(20)}
        ps = Presheaf(poset, {"U": big, "V": seen})
        with pytest.raises(SearchSpaceError, match="5 facts free"):
            glue(ps, [Section("V", frozenset())], Covering("U", ["V"]), max_universe=4)
        got = glue(ps, [Section("V", frozenset())], Covering("U", ["V"]), max_universe=5)
        assert isinstance(got, NonUnique) and len(got.candidates) == 1 << 5

    def test_a_forced_family_glues_past_the_limit(self):
        poset = ContextPoset(["U"])
        big = frozenset(concept_fact("a", f"A{i}") for i in range(25))
        ps = Presheaf(poset, {"U": big})
        some = frozenset(list(big)[:7])
        for facts in (frozenset(), some, big):
            got = glue(ps, [Section("U", facts)], Covering("U", ["U"]), max_universe=20)
            assert got == Glued(Section("U", facts))

    def test_agrees_with_brute_force_on_random_presheaves(self):
        rng = random.Random(83)
        for _ in range(150):
            ps, cov = random_presheaf(rng)
            family = random_family(rng, ps, cov)
            expected = brute_force_glue(ps, family, cov)
            got = glue(ps, family, cov)
            if expected[0] == "incompatible":
                assert isinstance(got, Incompatible)
            elif expected[0] == "glued":
                assert got == Glued(expected[1])
            else:
                assert isinstance(got, NonUnique)
                assert {s.facts for s in got.candidates} == {
                    s.facts for s in expected[1]
                }

    def test_glue_restrict_round_trip(self):
        rng = random.Random(89)
        seen = 0
        for _ in range(200):
            ps, cov = random_presheaf(rng)
            family = random_family(rng, ps, cov)
            got = glue(ps, family, cov)
            if isinstance(got, Glued):
                seen += 1
                by_context = {s.context: s for s in family}
                for m in cov.members:
                    assert restrict(ps, got.section, m) == by_context[m]
        assert seen > 20

    def test_restrict_glue_round_trip(self):
        # When the member universes jointly see every target fact, gluing
        # the restrictions of any target section recovers that section.
        rng = random.Random(91)
        seen = 0
        for _ in range(300):
            ps, cov = random_presheaf(rng)
            covered = frozenset().union(*(ps.universe(m) for m in cov.members))
            if not ps.universe(cov.target) <= covered:
                continue
            seen += 1
            facts = frozenset(f for f in ps.universe(cov.target) if rng.random() < 0.5)
            section = Section(cov.target, facts)
            family = [restrict(ps, section, m) for m in cov.members]
            assert glue(ps, family, cov) == Glued(section)
        assert seen > 20


class TestStability:
    def test_no_refinements_is_vacuously_stable(self):
        ps = simple_presheaf()
        ok, failing = stable_under_refinement(ps, Section("U", frozenset({F1})), [])
        assert ok and failing is None

    def test_identity_cover_is_always_stable(self):
        ps = simple_presheaf()
        for facts in (frozenset(), frozenset({F1}), frozenset({F1, F2})):
            ok, _ = stable_under_refinement(
                ps, Section("U", facts), [Covering("U", ["U"])]
            )
            assert ok

    def test_losing_a_fact_under_restriction_fails(self):
        # V's universe misses F2, so V does not cover U and the covering is
        # reported.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        ps = Presheaf(poset, {"U": {F1, F2}, "V": {F1}})
        cov = Covering("U", ["V"])
        ok, failing = stable_under_refinement(ps, Section("U", frozenset({F1, F2})), [cov])
        assert not ok and failing == cov

    def test_members_may_cover_only_jointly(self):
        poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "U")])
        ps = Presheaf(poset, {"U": {F1, F2}, "V": {F1}, "W": {F2}})
        cov = Covering("U", ["V", "W"])
        for facts in (frozenset(), frozenset({F1}), frozenset({F1, F2})):
            assert stable_under_refinement(ps, Section("U", facts), [cov]) == (True, None)

    def test_staged_refinement_descends_into_members(self):
        poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])
        ps = Presheaf(poset, {"U": {F1}, "V": {F1}, "W": {F1}})
        covs = [Covering("U", ["V"]), Covering("V", ["W"])]
        ok, _ = stable_under_refinement(ps, Section("U", frozenset({F1})), covs)
        assert ok

    def test_unreachable_covering_is_a_chain_error(self):
        poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])
        ps = Presheaf(poset, {"U": {F1}})
        with pytest.raises(RefinementChainError):
            stable_under_refinement(
                ps, Section("U", frozenset()), [Covering("V", ["W"])]
            )

    def test_section_outside_its_universe_is_rejected(self):
        ps = simple_presheaf()
        with pytest.raises(ValueError, match="leaves its universe: \\(a,b\\):r"):
            stable_under_refinement(ps, Section("U", frozenset({F1, F3})), [])

    def test_verdict_needs_no_universe_limit(self):
        # A stage target of 25 facts is beyond any listing, not a verdict.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        big = {concept_fact("a", f"A{i}") for i in range(25)}
        ps = Presheaf(poset, {"U": big, "V": big})
        covs = [Covering("U", ["V"])]
        with pytest.raises(SearchSpaceError):
            global_sections(ps, "U", covs)
        assert stable_under_refinement(ps, Section("U", frozenset(big)), covs) == (True, None)

    def test_unstable_top_needs_no_universe_limit(self):
        # An unstable top lists no section, however many facts it has.
        poset = ContextPoset(["U", "V"], [("V", "U")])
        big = {concept_fact("a", f"A{i}") for i in range(25)}
        ps = Presheaf(poset, {"U": big, "V": {concept_fact("a", "A0")}})
        assert global_sections(ps, "U", [Covering("U", ["V"])]) == []

    def test_agrees_with_brute_force_on_random_chains(self):
        # Every section of the top universe, so an all-or-nothing listing
        # is checked against the oracle rather than assumed.
        rng = random.Random(101)
        listings = []
        for _ in range(300):
            ps, _ = random_presheaf(rng, max_facts=6)
            top, chain = random_chain(rng, ps)
            stable = []
            for picked in powerset(ps.universe(top)):
                section = Section(top, frozenset(picked))
                want = brute_force_stable(ps, section, chain)
                assert stable_under_refinement(ps, section, chain) == want
                if want[0]:
                    stable.append(section)
            listed = global_sections(ps, top, chain)
            assert len(listed) in (0, 1 << len(ps.universe(top)))
            assert set(listed) == set(stable)
            listings.append(bool(listed))
        assert 0 < listings.count(False) < len(listings)

    def test_chain_from_filters_reachable_coverings(self):
        covs = [Covering("U", ["V"]), Covering("X", ["Y"]), Covering("V", ["W"])]
        assert chain_from(covs, "U") == [covs[0], covs[2]]


class TestGlobalSections:
    def test_empty_universe_has_exactly_the_empty_section(self):
        poset = ContextPoset(["U", "V"], [("V", "U")])
        ps = Presheaf(poset, {})
        got = global_sections(ps, "U", [Covering("U", ["V"])])
        assert got == [Section("U", frozenset())]

    def test_sections_failing_a_covering_are_excluded(self):
        poset = ContextPoset(["U", "V"], [("V", "U")])
        ps = Presheaf(poset, {"U": {F1, F2}, "V": {F1, F2}})
        covs = [Covering("U", ["V"])]
        got = global_sections(ps, "U", covs)
        for section in got:
            ok, _ = stable_under_refinement(ps, section, covs)
            assert ok
        assert len(got) == 4  # V sees everything, so every subset re-glues

    def test_deterministic_order(self):
        rng = random.Random(97)
        for _ in range(20):
            ps, cov = random_presheaf(rng, max_contexts=4, max_facts=6)
            top = cov.target
            first = global_sections(ps, top, [cov])
            second = global_sections(ps, top, [cov])
            assert first == second


def mixed_universe(rng: random.Random, size: int) -> list:
    """*size* distinct concept and role facts in a shuffled order. A role
    fact renders as '(a,b):r', which sorts before every concept fact."""
    pool = [concept_fact(i, c) for i in ("a", "b", "c1", "Z") for c in ("A", "B", "Cx")]
    pool += [role_fact(i, j, r) for i in ("a", "b") for j in ("a", "c1") for r in ("r", "s")]
    return rng.sample(pool, size)


class TestCanonicalOrder:
    """Listings equal the per-code oracle element for element, not only as sets."""

    def test_subsets_equal_the_per_code_oracle(self):
        rng = random.Random(107)
        for size in list(range(13)) * 2:
            facts = mixed_universe(rng, size)
            want = per_code_subsets(facts)
            assert _subsets_in_order(facts) == want
            assert _subsets_in_order(reversed(facts)) == want
            assert len(want) == 1 << size

    def test_global_sections_list_in_per_code_order(self):
        rng = random.Random(109)
        poset = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "U")])
        for size in range(13):
            facts = mixed_universe(rng, size)
            split = rng.randint(0, size)
            # V and W jointly cover U's universe, so every section is stable.
            ps = Presheaf(poset, {"U": facts, "V": facts[:split], "W": facts[split:]})
            got = global_sections(ps, "U", [Covering("U", ["V", "W"])])
            assert got == [Section("U", s) for s in per_code_subsets(facts)]
            assert all(type(s) is Section for s in got)
            assert len(set(map(id, got))) == len(got)

    def test_glue_candidates_list_in_per_code_order(self):
        rng = random.Random(113)
        poset = ContextPoset(["U", "V"], [("V", "U")])
        for size in range(1, 13):
            facts = mixed_universe(rng, size)
            seen = facts[: rng.randint(0, size - 1)]
            forced = frozenset(f for f in seen if rng.random() < 0.5)
            ps = Presheaf(poset, {"U": facts, "V": seen})
            got = glue(ps, [Section("V", forced)], Covering("U", ["V"]))
            free = set(facts) - set(seen)
            assert got == NonUnique(
                tuple(Section("U", forced | extra) for extra in per_code_subsets(free))
            )
            assert all(type(s) is Section for s in got.candidates)
            assert len(set(map(id, got.candidates))) == len(got.candidates)

    def test_glue_candidates_on_random_presheaves(self):
        rng = random.Random(127)
        listed = 0
        for _ in range(600):
            ps, cov = random_presheaf(rng)
            family = random_family(rng, ps, cov)
            got = glue(ps, family, cov)
            if not isinstance(got, NonUnique):
                continue
            forced = frozenset().union(*(s.facts for s in family))
            free = ps.universe(cov.target).difference(*(ps.universe(m) for m in cov.members))
            assert got.candidates == tuple(
                Section(cov.target, forced | extra) for extra in per_code_subsets(free)
            )
            assert all(type(s) is Section for s in got.candidates)
            assert len(set(map(id, got.candidates))) == len(got.candidates)
            listed += 1
        assert listed >= 25
