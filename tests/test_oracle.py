"""Scripted oracles, session recording, and replay."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import SIG
from ctxdl.agents import Agent, FactPattern, LatentStructure, interact
from ctxdl.concepts import And, Atomic, Exists, Not
from ctxdl.contexts import ContextPoset
from ctxdl.errors import (
    LoadError,
    ReplayMismatchError,
    ScriptLookupError,
    UnknownOracleError,
)
from ctxdl.kb import ConceptAssertion, KnowledgeState, RoleAssertion, abox_digest, canonical_abox
from ctxdl.oracle import (
    OracleQuery,
    OracleResponse,
    OracleSpec,
    ScriptEntry,
    ScriptedOracle,
    load_script,
    oracle_step,
    record_session,
    replay_session,
    run_session,
)
from ctxdl.reasoner import EMPTY_TBOX, TBox
from ctxdl.sheaf import ConceptFact, RoleFact
from oracles import plain_digest

BETA = ConceptAssertion("a", Atomic("A"), "U")
GAMMA = ConceptAssertion("b", Atomic("B"), "V")
EMPTY = KnowledgeState(EMPTY_TBOX, frozenset())


def probe_oracle(**entries):
    return ScriptedOracle(
        "probe",
        [ScriptEntry(payload, None, resp) for payload, resp in entries.items()],
    )


class TestOracleStep:
    def test_empty_response_is_identity(self):
        spec = probe_oracle(noop=OracleResponse(frozenset()))
        state, response = oracle_step(EMPTY, spec, OracleQuery("probe", "noop"))
        assert state == EMPTY
        assert response.additions == frozenset()

    def test_scripted_addition(self):
        # The fixture maps payload "probe" to one added assertion.
        spec = probe_oracle(probe=OracleResponse(frozenset({BETA})))
        state, _ = oracle_step(EMPTY, spec, OracleQuery("probe", "probe"))
        assert state.abox == {BETA}

    def test_unknown_oracle_name(self):
        spec = probe_oracle(probe=OracleResponse(frozenset({BETA})))
        with pytest.raises(UnknownOracleError):
            oracle_step(EMPTY, spec, OracleQuery("other", "probe"))

    def test_missing_entry(self):
        spec = probe_oracle(probe=OracleResponse(frozenset({BETA})))
        with pytest.raises(ScriptLookupError):
            oracle_step(EMPTY, spec, OracleQuery("probe", "nothing"))

    def test_tbox_is_never_touched(self):
        t = TBox([(Atomic("A"), Atomic("B"))])
        spec = probe_oracle(probe=OracleResponse(frozenset({BETA})))
        state, _ = oracle_step(KnowledgeState(t, frozenset()), spec, OracleQuery("probe", "probe"))
        assert state.tbox is t

    def test_exact_state_key_beats_wildcard(self):
        exact = ScriptEntry("p", abox_digest({BETA}), OracleResponse(frozenset({GAMMA})))
        wild = ScriptEntry("p", None, OracleResponse(frozenset()))
        spec = ScriptedOracle("probe", [exact, wild])
        from_beta, _ = oracle_step(EMPTY.with_abox({BETA}), spec, OracleQuery("probe", "p"))
        assert GAMMA in from_beta.abox
        unchanged, _ = oracle_step(EMPTY, spec, OracleQuery("probe", "p"))
        assert unchanged == EMPTY

    def test_deterministic_responses(self):
        spec = probe_oracle(probe=OracleResponse(frozenset({BETA})))
        digest = abox_digest(EMPTY.abox)
        assert spec.respond(digest, "probe") == spec.respond(digest, "probe")

    def test_duplicate_entries_rejected(self):
        entry = ScriptEntry("p", None, OracleResponse(frozenset()))
        with pytest.raises(ValueError):
            ScriptedOracle("probe", [entry, entry])

    def test_deletions_need_the_header_flag(self):
        entry = ScriptEntry("p", None, OracleResponse(frozenset(), frozenset({BETA})))
        with pytest.raises(ValueError):
            ScriptedOracle("probe", [entry])
        spec = ScriptedOracle("probe", [entry], allow_deletions=True)
        state, _ = oracle_step(EMPTY.with_abox({BETA}), spec, OracleQuery("probe", "p"))
        assert state.abox == frozenset()

    def test_response_add_del_must_be_disjoint(self):
        with pytest.raises(ValueError):
            OracleResponse(frozenset({BETA}), frozenset({BETA}))


class TestScriptFiles:
    def test_load_and_apply(self):
        text = (
            '{"allow_deletions": false}\n'
            '{"oracle": "sensor", "match": {"payload": "ping"}, "add": ["a:A@U"]}\n'
        )
        spec = load_script(io.StringIO(text), SIG)
        assert spec.name == "sensor"
        state, _ = oracle_step(EMPTY, spec, OracleQuery("sensor", "ping"))
        assert state.abox == {BETA}

    def test_wildcard_payload_pattern(self):
        text = '{"oracle": "sensor", "match": {"payload": "read-*"}, "add": ["a:A@U"]}\n'
        spec = load_script(io.StringIO(text), SIG)
        state, _ = oracle_step(EMPTY, spec, OracleQuery("sensor", "read-17"))
        assert state.abox == {BETA}

    def test_bad_assertion_is_a_positioned_load_error(self):
        text = '{"oracle": "s", "match": {"payload": "p"}, "add": ["a:Zz@U"]}\n'
        with pytest.raises(LoadError) as exc:
            load_script(io.StringIO(text), SIG)
        assert exc.value.line == 1

    def test_mixed_oracle_names_rejected(self):
        text = (
            '{"oracle": "s1", "match": {"payload": "p"}, "add": []}\n'
            '{"oracle": "s2", "match": {"payload": "q"}, "add": []}\n'
        )
        with pytest.raises(LoadError):
            load_script(io.StringIO(text), SIG)

    def test_invalid_json_positioned(self):
        with pytest.raises(LoadError) as exc:
            load_script(io.StringIO('{"oracle": oops\n'), SIG)
        assert exc.value.line == 1

    def test_header_name_must_match_the_entries(self):
        text = '{"name": "hdr"}\n{"oracle": "s", "match": {"payload": "p"}, "add": []}\n'
        with pytest.raises(LoadError) as exc:
            load_script(io.StringIO(text), SIG)
        assert exc.value.line == 2
        assert "script names two oracles: 'hdr' and 's'" in str(exc.value)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (
                ['"match": {"payload": "q"}, "add": []', '"match": {"payload": "p"}, "add": [], "del": ["a:A@U"]'],
                "script contains deletions but does not set allow_deletions",
            ),
            (
                ['"match": {"payload": "p"}, "add": []', '"match": {"payload": "p"}, "add": ["a:A@U"]'],
                "duplicate script entry for payload 'p'",
            ),
            (
                ['"match": {"payload": "p", "state": "d"}, "add": []', '"match": {"payload": "p", "state": "d"}'],
                "duplicate script entry for state/payload ('d', 'p')",
            ),
        ],
    )
    def test_table_errors_name_the_line_of_the_entry(self, entries, message):
        # The checks live in ScriptedOracle; the loader adds the entry's line,
        # and an error on a later line is not reached.
        lines = ['{"name": "s"}', ""] + ['{"oracle": "s", ' + e + "}" for e in entries] + ["{oops"]
        with pytest.raises(LoadError) as exc:
            load_script(io.StringIO("\n".join(lines) + "\n"), SIG)
        assert str(exc.value) == f"<stream>:4: {message}"

    def test_pattern_entries_answer_in_file_order(self):
        text = (
            '{"oracle": "s", "match": {"payload": "read-*"}, "add": ["a:A@U"]}\n'
            '{"oracle": "s", "match": {"payload": "read-1*"}, "add": ["b:B@V"]}\n'
        )
        spec = load_script(io.StringIO(text), SIG)
        assert spec.respond("", "read-17").additions == {BETA}


class TestRecordReplay:
    def session_spec(self):
        return ScriptedOracle(
            "sensor",
            [
                ScriptEntry("p0", None, OracleResponse(frozenset({BETA}))),
                ScriptEntry("p1", None, OracleResponse(frozenset({GAMMA}))),
                ScriptEntry("p2", None, OracleResponse(frozenset())),
            ],
        )

    def queries(self, *payloads):
        return [OracleQuery("sensor", p) for p in payloads]

    def test_record_then_replay_empty_session(self):
        sink = io.StringIO()
        record_session(self.session_spec(), sink)
        assert sink.getvalue() == ""
        replay = replay_session(io.StringIO(""), SIG)
        state, _ = run_session(EMPTY, replay, [])
        assert state == EMPTY

    def test_record_one_transition_then_replay(self):
        sink = io.StringIO()
        recorder = record_session(self.session_spec(), sink)
        recorded_state, _ = run_session(EMPTY, recorder, self.queries("p0"))
        replay = replay_session(io.StringIO(sink.getvalue()), SIG)
        replayed_state, _ = run_session(EMPTY, replay, self.queries("p0"))
        assert replayed_state.abox == recorded_state.abox

    def test_replay_reproduces_state_sequence_byte_for_byte(self):
        payloads = ["p0", "p1", "p2", "p0", "p1"]
        sink = io.StringIO()
        recorder = record_session(self.session_spec(), sink)
        state = EMPTY
        recorded_dumps = []
        for q in self.queries(*payloads):
            state, _ = oracle_step(state, recorder, q)
            recorded_dumps.append("\n".join(canonical_abox(state.abox)))
        replay = replay_session(io.StringIO(sink.getvalue()), SIG)
        state = EMPTY
        replayed_dumps = []
        for q in self.queries(*payloads):
            state, _ = oracle_step(state, replay, q)
            replayed_dumps.append("\n".join(canonical_abox(state.abox)))
        assert replayed_dumps == recorded_dumps

    def test_divergent_query_names_the_position(self):
        sink = io.StringIO()
        recorder = record_session(self.session_spec(), sink)
        run_session(EMPTY, recorder, self.queries("p0", "p1"))
        replay = replay_session(io.StringIO(sink.getvalue()), SIG)
        state, _ = oracle_step(EMPTY, replay, OracleQuery("sensor", "p0"))
        with pytest.raises(ReplayMismatchError) as exc:
            oracle_step(state, replay, OracleQuery("sensor", "p2"))
        assert exc.value.position == 1

    def test_replay_past_the_end_is_a_mismatch(self):
        replay = replay_session(io.StringIO(""), SIG)
        with pytest.raises(ReplayMismatchError) as exc:
            oracle_step(EMPTY, replay, OracleQuery("replay", "p0"))
        assert "exhausted" in str(exc.value)

    def test_log_record_needs_a_state(self):
        text = '{"seq": 0, "oracle": "s", "match": {"payload": "p"}, "add": []}\n'
        with pytest.raises(LoadError) as exc:
            replay_session(io.StringIO(text), SIG)
        assert str(exc.value) == "<stream>:1: log record needs match.payload and match.state"

    def test_truncated_log_detected_at_load(self):
        sink = io.StringIO()
        recorder = record_session(self.session_spec(), sink)
        run_session(EMPTY, recorder, self.queries("p0", "p1"))
        lines = sink.getvalue().splitlines()
        # Drop the first record: sequence numbers no longer start at 0.
        with pytest.raises(LoadError) as exc:
            replay_session(io.StringIO(lines[1] + "\n"), SIG)
        assert "truncated" in str(exc.value)

    def test_log_records_are_well_formed_json(self):
        sink = io.StringIO()
        recorder = record_session(self.session_spec(), sink)
        run_session(EMPTY, recorder, self.queries("p0", "p1"))
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [r["seq"] for r in records] == [0, 1]
        assert records[0]["add"] == ["a:A@U"]


BETA_AT_V = ConceptAssertion("a", Atomic("A"), "V")
LINK = RoleAssertion("a", "b", "r", "U")
# Texts that share prefixes and sort across kinds: '(' sorts before letters.
POOL = (
    BETA,
    GAMMA,
    BETA_AT_V,
    ConceptAssertion("a", Not(Atomic("A")), "U"),
    ConceptAssertion("a", And(Atomic("A"), Atomic("B")), "U"),
    ConceptAssertion("b", Exists("r", Atomic("C")), "W"),
    LINK,
    RoleAssertion("b", "a", "s", "W"),
)
LATENT = (ConceptFact("a", "A"), ConceptFact("b", "C"), RoleFact("a", "b", "r"))
fact_sets = st.frozensets(st.sampled_from(POOL))
responses = st.lists(
    st.tuples(fact_sets, fact_sets).map(lambda ad: OracleResponse(ad[0] - ad[1], ad[1])),
    max_size=8,
)
# Adds what is present, deletes what is absent, then deletes and re-adds.
MIXED_SESSION = (
    frozenset({BETA, GAMMA}),
    [
        OracleResponse(frozenset({BETA, LINK}), frozenset({BETA_AT_V, GAMMA})),
        OracleResponse(frozenset(), frozenset({BETA})),
        OracleResponse(frozenset({BETA, GAMMA}), frozenset({LINK})),
    ],
)


class ListOracle(OracleSpec):
    """Answers payload i with the i-th response and keeps every digest."""

    name = "probe"

    def __init__(self, responses):
        self.responses = responses
        self.digests = []

    def respond(self, digest, payload):
        self.digests.append(digest)
        return self.responses[int(payload)]


def fresh_digests(start, responses):
    """The fresh-render digest before each response is applied."""
    want, out = set(start), []
    for response in responses:
        out.append(plain_digest(want))
        want = (want | response.additions) - response.deletions
    return out, want


class TestDerivedDigests:
    """A session's digests come from lines derived step by step; they must
    equal a fresh render of the fact set at every step."""

    @given(fact_sets, responses)
    @example(*MIXED_SESSION)
    @settings(max_examples=150, deadline=None)
    def test_oracle_step_digests(self, base, session):
        spec = ListOracle(session)
        state = KnowledgeState(EMPTY_TBOX, base)
        for i in range(len(session)):
            state, _ = oracle_step(state, spec, OracleQuery("probe", str(i)))
        want, final = fresh_digests(base, session)
        assert spec.digests == want
        assert state.abox == final and state.digest == plain_digest(final)

    @given(fact_sets, st.frozensets(st.sampled_from(LATENT)), responses)
    @example(MIXED_SESSION[0], frozenset(LATENT), MIXED_SESSION[1])
    @settings(max_examples=100, deadline=None)
    def test_interact_records_fresh_digests(self, base, latent, session):
        sink = io.StringIO()
        agent = Agent(
            name="probe",
            signature=SIG,
            poset=ContextPoset(["U", "V", "W"], []),
            base_state=KnowledgeState(EMPTY_TBOX, base),
            input_context="U",
            program=None,
            oracle=record_session(ListOracle(session), sink),
            queries=tuple(str(i) for i in range(len(session))),
            projection=(FactPattern.parse("*:*", SIG),),
        )
        injected = {
            ConceptAssertion(f.individual, Atomic(f.concept), "U")
            if isinstance(f, ConceptFact)
            else RoleAssertion(f.subject, f.target, f.role, "U")
            for f in latent
        }
        want, _ = fresh_digests(base | injected, session)
        structure = LatentStructure.of("latent", latent)
        for _ in range(2):  # the second run reads the base state's kept lines
            interact(agent, structure)
            records = [json.loads(line) for line in sink.getvalue().splitlines()]
            assert [r["match"]["state"] for r in records] == want
            sink.seek(0)
            sink.truncate()


# Any text, and text drawn from the digest alphabet plus characters JSON
# must escape: quotes, backslashes, control characters, non-ASCII and a
# lone surrogate.
TEXTS = st.text() | st.text(
    st.sampled_from('aAz_9:;@(),.&|!"\\\x00\x1f\x7f é \ud800')
)


class TestLogLines:
    """A recorded line equals json.dumps of its record with sorted keys,
    whichever way the state digest is written."""

    @given(
        name=TEXTS,
        payload=TEXTS,
        digest=TEXTS | fact_sets.map(abox_digest),
        response=st.tuples(fact_sets, fact_sets).map(lambda ad: OracleResponse(ad[0] - ad[1], ad[1])),
    )
    @example(name="probe", payload="p", digest='a:A@U;b:"B"@V', response=OracleResponse(frozenset({BETA})))
    @example(name="é", payload='"', digest="a:A@U\\;\x7f", response=OracleResponse(frozenset()))
    @example(name="probe", payload="\x00", digest="a:A@U;\x1f", response=OracleResponse(frozenset()))
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_sorted_json_dumps(self, name, payload, digest, response):
        sink = io.StringIO()
        inner = ScriptedOracle(name, [ScriptEntry("*", None, response)], allow_deletions=True)
        record_session(inner, sink).respond(digest, payload)
        record = {
            "seq": 0,
            "oracle": name,
            "match": {"payload": payload, "state": digest},
            "add": sorted(a.text for a in response.additions),
            "del": sorted(a.text for a in response.deletions),
        }
        assert sink.getvalue() == json.dumps(record, sort_keys=True) + "\n"
