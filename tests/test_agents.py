"""Agent interactions and the exact-match stability check."""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import random

import pytest

import ctxdl.agents
from corpus import (
    SIG,
    assertion_universe,
    concept_fact,
    random_abox,
    random_assertion,
    random_concept,
    random_program,
    role_fact,
)
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
from ctxdl.concepts import And, Atomic, Not
from ctxdl.contexts import ContextPoset
from ctxdl.errors import EvalAborted, InteractionError, LoadError, OracleError, ParseError, read_json
from ctxdl.kb import GUARD_MODES, ConceptAssertion, KnowledgeState, RoleAssertion, SubsumeGuard
from ctxdl.oracle import OracleQuery, OracleResponse, ScriptEntry, ScriptedOracle, record_session
from ctxdl.programs import FuelExhausted, execute, parse_program
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, EMPTY_TBOX, TBox
from oracles import plain_digest, plain_session, reference_evaluate_trace, regex_pattern, scan_project

POSET = ContextPoset(["U", "V", "W"], [("V", "U"), ("W", "V")])
EMPTY_STATE = KnowledgeState(EMPTY_TBOX, frozenset())
SEEN = concept_fact("a", "A")
LINK = role_fact("a", "b", "r")


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
            assert (p.fact, p.context) == want, t
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


class TestReadJson:
    def test_places_of_values_up_to_three_levels(self, tmp_path):
        text = (
            '{"a" :\t1,\r\n "b": [ "x\\"y]", {"c": [true, null]} ],\n'
            '"k\\u00e9\\"": {"d": {"e": {"f": 2}}}, "a": -2.5e3}'
        )
        path = tmp_path / "f.json"
        path.write_text(text, encoding="utf-8", newline="")
        value, places = read_json(path)
        assert value == json.loads(text)

        def at(needle, start=0):
            pos = text.index(needle, start)
            return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)

        assert places == {
            (): (1, 1),
            ("a",): at("-2.5e3"),  # a repeated key keeps its last value, as json does
            ("b",): at("["),
            ("b", 0): at('"x'),
            ("b", 1): at('{"c"'),
            ("b", 1, "c"): at("[true"),
            ("k\u00e9\"",): at('{"d"'),
            ("k\u00e9\"", "d"): at('{"e"'),
            ("k\u00e9\"", "d", "e"): at('{"f"'),
        }

    def test_syntax_error_is_placed(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{\n  "a": [1,, 2]\n}', encoding="utf-8")
        with pytest.raises(LoadError) as info:
            read_json(path)
        assert (info.value.line, info.value.col) == (2, 11)
        assert info.value.message.startswith("invalid JSON: Expecting value")


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
        assert full.facts == {concept_fact("b", "B")}

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


class TestAgainstReferencePipeline:
    """``interact`` runs on one working state; the reference shares none of
    its state code: a plain set for the fact set, ``plain_session`` for the
    queries, ``reference_evaluate_trace`` for the program, then
    ``scan_project``. Both record their sessions."""

    TBOX = TBox([(Atomic("A"), And(Atomic("B"), Atomic("C")))])
    SUBSUMPTIONS = (SubsumeGuard(Atomic("A"), Atomic("B")), SubsumeGuard(Atomic("B"), Atomic("A")))
    # Built in the library: a ';' in a name, which drops the kept digest.
    SPLIT = ConceptAssertion("a;b", Atomic("A"), "V")
    TEMPLATES = ("warm", "scan-{parity}", "probe", "tail-{seed}")
    PATTERNS = ("*:*", "(*,*):*", "a:A", "b:*@U", "(a,b):r", "*:B@V", "a:C@W")

    @staticmethod
    def reference(agent, latent, seed, budget):
        injected = {f.at(agent.input_context) for f in latent.payload}
        state = agent.base_state.with_abox(agent.base_state.abox | injected)
        if agent.oracle is not None:
            queries = [
                OracleQuery(agent.oracle.name, template.format(seed=seed, parity=seed % 2))
                for template in agent.queries
            ]
            try:
                state, _ = plain_session(state, agent.oracle, queries)
            except OracleError as exc:
                raise InteractionError(f"oracle failure: {exc}") from exc
        if agent.program is not None:
            outcome, _ = reference_evaluate_trace(
                agent.program, state, agent.fuel, agent.guard_mode, agent.poset, budget=budget
            )
            if isinstance(outcome, FuelExhausted):
                raise InteractionError(
                    f"agent program exhausted its fuel of {agent.fuel} after {outcome.steps} steps"
                )
            state = outcome.state
        return Manifested(scan_project(state.abox, agent.projection))

    def script(self, rng, agent, latent, seeds):
        """Payload patterns, and exact-state entries keyed on digests the
        reference reaches and on digests it never reaches."""
        contexts = sorted(SIG.context_names)

        def respond():
            added = {random_assertion(rng, SIG, contexts) for _ in range(rng.randint(0, 2))}
            deleted = {random_assertion(rng, SIG, contexts) for _ in range(rng.randint(0, 2))}
            return OracleResponse(frozenset(added - deleted), frozenset(deleted))

        spec = ScriptedOracle("feed", [], allow_deletions=True)
        for pattern in ("w*", "scan-*", "tail-1*", "t*", "probe"):
            if rng.random() < 0.6:
                spec.add(ScriptEntry(pattern, None, respond()))
        injected = {f.at(agent.input_context) for f in latent.payload}
        for seed in seeds:
            state = agent.base_state.with_abox(agent.base_state.abox | injected)
            for template in self.TEMPLATES:
                payload = template.format(seed=seed, parity=seed % 2)
                missed = plain_digest(state.abox | {random_assertion(rng, SIG, contexts)})
                for digest in [plain_digest(state.abox)] * (rng.random() < 0.7) + [missed] * (rng.random() < 0.5):
                    try:
                        spec.add(ScriptEntry(payload, digest, respond()))
                    except ValueError:  # an earlier seed keyed it already
                        pass
                try:
                    state, _ = plain_session(state, spec, (OracleQuery("feed", payload),))
                except OracleError:
                    break
        return spec

    def test_same_manifested_logs_and_errors_on_random_agents(self, monkeypatch):
        rng = random.Random(20261019)
        contexts = sorted(SIG.context_names)
        universe = assertion_universe() + [ConceptAssertion("a", Atomic("C"), "W"), RoleAssertion("a", "b", "r", "U")]
        seen = set()
        for i in range(250):
            base = random_abox(rng, SIG, contexts, 8) | ({self.SPLIT} if rng.random() < 0.3 else set())
            latent = LatentStructure.of("x", {random_assertion(rng, SIG, contexts).at(None) for _ in range(3)})
            seeds = (0, 1, 12)
            agent = Agent(
                name="probe",
                signature=SIG,
                poset=POSET,
                base_state=KnowledgeState(self.TBOX, base),
                input_context=rng.choice(contexts),
                program=random_program(rng, rng.randint(1, 10), universe, self.SUBSUMPTIONS)
                if rng.random() < 0.8
                else None,
                oracle=None,
                queries=self.TEMPLATES,
                projection=tuple(FactPattern.parse(p, SIG) for p in rng.sample(self.PATTERNS, 2)),
                fuel=rng.randint(1, 30),
                guard_mode=rng.choice(GUARD_MODES),
            )
            if rng.random() < 0.8:
                agent = dataclasses.replace(agent, oracle=self.script(rng, agent, latent, seeds))
            budget = rng.choice([1, 3, DEFAULT_NODE_BUDGET])
            monkeypatch.setattr(ctxdl.agents, "execute", functools.partial(execute, budget=budget))
            for seed in seeds:
                outcomes, logs = [], []
                for run in (lambda a, s: interact(a, latent, s), lambda a, s: self.reference(a, latent, s, budget)):
                    sink = io.StringIO()
                    recorded = agent
                    if agent.oracle is not None:
                        recorded = dataclasses.replace(agent, oracle=record_session(agent.oracle, sink))
                    try:
                        outcomes.append(("manifested", run(recorded, seed)))
                    except InteractionError as exc:
                        outcomes.append(("oracle" if "oracle failure" in str(exc) else "fuel", str(exc)))
                    except EvalAborted as exc:
                        outcomes.append(("aborted", str(exc), exc.trace))
                    logs.append(sink.getvalue())
                assert outcomes[0] == outcomes[1], (i, seed)
                assert logs[0] == logs[1], (i, seed)
                seen.add(outcomes[0][0])
        assert seen == {"manifested", "oracle", "fuel", "aborted"}


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
