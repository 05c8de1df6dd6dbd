"""Agent interactions and the exact-match stability check."""

from __future__ import annotations

import json
import random

import pytest

from corpus import SIG, random_assertion, random_concept
from ctxdl.agents import (
    Agent,
    FactPattern,
    LatentStructure,
    Manifested,
    SeedPolicy,
    _project,
    interact,
    load_agent,
    stability_check,
)
from ctxdl.concepts import Atomic, Not
from ctxdl.contexts import ContextPoset
from ctxdl.errors import InteractionError, LoadError, ParseError
from ctxdl.kb import ConceptAssertion, KnowledgeState, RoleAssertion
from ctxdl.oracle import OracleResponse, ScriptEntry, ScriptedOracle
from ctxdl.programs import parse_program
from ctxdl.reasoner import EMPTY_TBOX
from ctxdl.sheaf import ConceptFact, RoleFact
from oracles import regex_pattern, scan_project

POSET = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])
EMPTY_STATE = KnowledgeState(EMPTY_TBOX, frozenset())
SEEN = ConceptFact("a", "A")
LINK = RoleFact("a", "b", "r")


def make_agent(program=None, oracle=None, queries=(), projection=("*:*", "(*,*):*"), **kw):
    return Agent(
        name="probe",
        signature=SIG,
        poset=POSET,
        base_state=EMPTY_STATE,
        input_context="U",
        program=parse_program(program, SIG) if program else None,
        oracle=oracle,
        queries=tuple(queries),
        projection=tuple(FactPattern.parse(p, SIG) for p in projection),
        **kw,
    )


class TestFactPattern:
    def test_wildcards(self):
        p = FactPattern.parse("*:A", SIG)
        assert p.matches(ConceptAssertion("a", Atomic("A"), "U"))
        assert p.matches(ConceptAssertion("b", Atomic("A"), "V"))
        assert not p.matches(ConceptAssertion("a", Atomic("B"), "U"))

    def test_context_filter(self):
        p = FactPattern.parse("a:A@V", SIG)
        assert not p.matches(ConceptAssertion("a", Atomic("A"), "U"))
        assert p.matches(ConceptAssertion("a", Atomic("A"), "V"))

    def test_role_pattern(self):
        p = FactPattern.parse("(a,*):r", SIG)
        assert p.matches(RoleAssertion("a", "b", "r", "U"))
        assert not p.matches(RoleAssertion("b", "a", "r", "U"))

    def test_bad_pattern(self):
        with pytest.raises(ParseError):
            FactPattern.parse("a::b", SIG)

    def test_any_context_is_no_context(self):
        assert FactPattern.parse("a:A@*", SIG) == FactPattern.parse("a:A", SIG)
        assert FactPattern.parse("a:A@*", SIG).context is None

    def test_same_patterns_as_the_regex_reference(self):
        # Space-free texts over declared names, undeclared names and '*',
        # mostly well shaped, some with one character changed.
        rng = random.Random(20261019)
        anything = [*sorted(SIG.individual_names | SIG.concept_names | SIG.role_names | SIG.context_names), "Zz", "q1"]

        def slot(declared):
            return rng.choice([*sorted(declared), "*"] if rng.random() < 0.8 else anything)

        def text():
            at = rng.choice(["", f"@{slot(SIG.context_names)}"])
            if rng.random() < 0.5:
                out = f"{slot(SIG.individual_names)}:{slot(SIG.concept_names)}{at}"
            else:
                out = f"({slot(SIG.individual_names)},{slot(SIG.individual_names)}):{slot(SIG.role_names)}{at}"
            if rng.random() < 0.3:
                i = rng.randrange(len(out) + 1)
                out = out[:i] + rng.choice("aA1_:(),@*.$") + out[i + rng.randint(0, 1):]
            return out

        accepted = 0
        for _ in range(2000):
            t = text()
            want = regex_pattern(t, SIG)
            try:
                p = FactPattern.parse(t, SIG)
            except ParseError:
                assert want is None, t
                continue
            assert (p.fact._values(p.fact), p.context) == want, t
            accepted += 1
        assert 200 < accepted < 1800


class TestProjection:
    def test_lookup_agrees_with_the_scan_on_random_aboxes(self):
        rng = random.Random(20261018)
        inds, concepts, roles = (sorted(names) for names in (SIG.individual_names, SIG.concept_names, SIG.role_names))
        contexts = sorted(SIG.context_names)

        def slot(names):
            return rng.choice([*names, "*"])

        def pattern():
            at = rng.choice(["", "@*", *(f"@{u}" for u in contexts)])
            if rng.random() < 0.5:
                return FactPattern.parse(f"{slot(inds)}:{slot(concepts)}{at}", SIG)
            return FactPattern.parse(f"({slot(inds)},{slot(inds)}):{slot(roles)}{at}", SIG)

        def assertion():
            if rng.random() < 0.3:  # mostly non-atomic: never selected
                return ConceptAssertion(rng.choice(inds), random_concept(rng, 3), rng.choice(contexts))
            return random_assertion(rng, SIG, contexts)

        probed_hits = 0
        for _ in range(3000):
            abox = frozenset(assertion() for _ in range(rng.randint(0, 12)))
            projection = tuple(pattern() for _ in range(rng.randint(1, 3)))
            got = _project(abox, projection, SIG.context_names)
            assert got == scan_project(abox, projection), (sorted(map(repr, abox)), projection)
            probed = tuple(p for p in projection if not p.wild)
            probed_hits += len(scan_project(abox, probed))
        assert probed_hits > 300  # the lookup path is exercised, not only the scan

    def test_non_atomic_assertions_are_never_selected(self):
        abox = frozenset({ConceptAssertion("a", Not(Atomic("C")), "U")})
        projection = tuple(FactPattern.parse(p, SIG) for p in ("a:C", "a:C@U", "*:C", "*:*", "a:*@*"))
        assert _project(abox, projection, SIG.context_names) == frozenset()

    def test_role_lookup_at_every_context(self):
        abox = frozenset({RoleAssertion("a", "b", "r", "W")})
        for text, want in (("(a,b):r", {LINK}), ("(a,b):r@*", {LINK}), ("(a,b):r@U", set()), ("(b,a):r", set())):
            assert _project(abox, (FactPattern.parse(text, SIG),), SIG.context_names) == want, text


KB_TEXT = """\
signature
  concept A, B.
  role r.
  individual a, b.
contexts
  context U, V.
  V <= U.
"""


def write_agent(tmp_path, **fields):
    (tmp_path / "base.kb").write_text(KB_TEXT, encoding="utf-8")
    (tmp_path / "feed.jsonl").write_text('{"oracle": "feed", "match": {"payload": "*"}, "add": []}\n', encoding="utf-8")
    raw = {"name": "n", "kb": "base.kb", "input_context": "U", "projection": [], **fields}
    path = tmp_path / "agent.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestLoadAgent:
    def test_wildcards_and_plain_fields_load(self, tmp_path):
        path = write_agent(
            tmp_path,
            projection=["*:*@*", "(*,b):*", "a:A@V", "(a,b):r"],
            oracle={"script": "feed.jsonl", "queries": ["t-{seed}-{parity}", "{{seed}}", "plain"]},
        )
        agent = load_agent(path)
        assert len(agent.projection) == 4
        assert [q.format(seed=5, parity=1) for q in agent.queries] == ["t-5-1", "{seed}", "plain"]

    @pytest.mark.parametrize(
        "pattern, kind",
        [("a:Zz", "concept"), ("zz:A", "individual"), ("(a,zz):r", "individual"), ("(a,b):q", "role"), ("a:A@Zz", "context")],
    )
    def test_undeclared_projection_names_are_load_errors(self, tmp_path, pattern, kind):
        with pytest.raises(LoadError, match=f"unknown {kind} name") as info:
            load_agent(write_agent(tmp_path, projection=[pattern]))
        assert info.value.line == 1

    @pytest.mark.parametrize("template", ["read-{sead}", "read-{0}", "read-{seed", "{}", "{seed:03d}", "{parity!r}", "x}"])
    def test_bad_query_templates_are_load_errors(self, tmp_path, template):
        path = write_agent(tmp_path, oracle={"script": "feed.jsonl", "queries": [template]})
        with pytest.raises(LoadError, match="oracle query template") as info:
            load_agent(path)
        assert info.value.line == 1

    def test_program_parse_error_has_line_and_column(self, tmp_path):
        (tmp_path / "bad.p").write_text("skip;\nadd a:A@U; fi\n", encoding="utf-8")
        with pytest.raises(LoadError) as info:
            load_agent(write_agent(tmp_path, program="bad.p"))
        assert str(info.value) == f"{tmp_path / 'bad.p'}:2:12: expected a command, found 'fi'"


class TestInteract:
    def test_identity_agent_returns_the_payload(self):
        agent = make_agent(program="skip")
        got = interact(agent, LatentStructure("x", frozenset({SEEN, LINK})))
        assert got == Manifested(frozenset({SEEN, LINK}))

    def test_projections_differ_between_agents(self):
        # Two agents, same latent structure, different manifested objects.
        latent = LatentStructure("x", frozenset({SEEN, LINK}))
        concepts_only = make_agent(projection=("*:*",))
        roles_only = make_agent(projection=("(*,*):*",))
        a = interact(concepts_only, latent)
        b = interact(roles_only, latent)
        assert a != b
        assert a.facts == {SEEN}
        assert b.facts == {LINK}

    def test_threshold_agent_manifests_nothing_without_the_trigger(self):
        # The program promotes a:A@U to b:B@U only when present; on a payload
        # without the trigger the projection comes back empty.
        program = "if a:A@U then add b:B@U else skip fi"
        agent = make_agent(program=program, projection=("b:B",))
        empty = interact(agent, LatentStructure("x", frozenset({LINK})))
        assert empty.facts == frozenset()
        full = interact(agent, LatentStructure("x", frozenset({SEEN})))
        assert full.facts == {ConceptFact("b", "B")}

    def test_oracle_payload_templates_receive_seed_and_parity(self):
        spec = ScriptedOracle(
            "feed",
            [
                ScriptEntry("tick-0", None, OracleResponse(frozenset({ConceptAssertion("a", Atomic("A"), "U")}))),
                ScriptEntry("tick-1", None, OracleResponse(frozenset())),
            ],
        )
        agent = make_agent(oracle=spec, queries=("tick-{parity}",), projection=("a:A",))
        even = interact(agent, LatentStructure("x", frozenset()), seed=2)
        odd = interact(agent, LatentStructure("x", frozenset()), seed=3)
        assert even.facts == {SEEN}
        assert odd.facts == frozenset()

    def test_fuel_exhaustion_is_an_interaction_error(self):
        agent = make_agent(program="while true do skip od", fuel=50)
        with pytest.raises(InteractionError):
            interact(agent, LatentStructure("x", frozenset()))


class TestStabilityCheck:
    def test_deterministic_agent_is_stable_for_any_k(self):
        agent = make_agent(program="skip")
        latent = LatentStructure("x", frozenset({SEEN}))
        for k in (2, 3, 7):
            report = stability_check(agent, latent, k)
            assert report.stable
            assert report.outcome == interact(agent, latent)

    def test_parity_alternation_is_unstable_two_by_two(self):
        # Derived by running the four seeds by hand: seeds 1..4 give
        # parities 1,0,1,0, so two outcomes appear twice each.
        spec = ScriptedOracle(
            "feed",
            [
                ScriptEntry("0", None, OracleResponse(frozenset({ConceptAssertion("a", Atomic("A"), "U")}))),
                ScriptEntry("1", None, OracleResponse(frozenset())),
            ],
        )
        agent = make_agent(
            oracle=spec,
            queries=("{parity}",),
            projection=("a:A",),
            seed_policy=SeedPolicy("sequence", 1),
        )
        report = stability_check(agent, LatentStructure("x", frozenset()), 4)
        assert not report.stable
        assert sorted(n for _, n in report.outcomes) == [2, 2]
        assert {m.facts for m, _ in report.outcomes} == {frozenset(), frozenset({SEEN})}

    def test_single_run_is_rejected(self):
        agent = make_agent()
        with pytest.raises(ValueError):
            stability_check(agent, LatentStructure("x", frozenset()), 1)

    def test_constant_seed_policy_pins_a_seeded_agent(self):
        spec = ScriptedOracle(
            "feed",
            [
                ScriptEntry("0", None, OracleResponse(frozenset({ConceptAssertion("a", Atomic("A"), "U")}))),
                ScriptEntry("1", None, OracleResponse(frozenset())),
            ],
        )
        agent = make_agent(
            oracle=spec,
            queries=("{parity}",),
            projection=("a:A",),
            seed_policy=SeedPolicy("constant", 4),
        )
        report = stability_check(agent, LatentStructure("x", frozenset()), 5)
        assert report.stable

    def test_unstable_verdicts_extend_with_the_seed_prefix(self):
        spec = ScriptedOracle(
            "feed",
            [
                ScriptEntry("0", None, OracleResponse(frozenset({ConceptAssertion("a", Atomic("A"), "U")}))),
                ScriptEntry("1", None, OracleResponse(frozenset())),
            ],
        )
        agent = make_agent(oracle=spec, queries=("{parity}",), projection=("a:A",))
        latent = LatentStructure("x", frozenset())
        small = stability_check(agent, latent, 2, seeds=[0, 1])
        bigger = stability_check(agent, latent, 4, seeds=[0, 1, 0, 1])
        assert not small.stable
        assert not bigger.stable

    def test_interact_errors_name_the_failing_run(self):
        agent = make_agent(program="while true do skip od", fuel=10)
        with pytest.raises(InteractionError):
            stability_check(agent, LatentStructure("x", frozenset()), 2)
