"""Scripted oracles, session recording, and replay."""

from __future__ import annotations

import io
import json
import random
from fnmatch import fnmatchcase

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import SIG, concept_fact, role_fact
from ctxdl.agents import Agent, FactPattern, LatentStructure, interact
from ctxdl.concepts import And, Atomic, Exists, Not
from ctxdl.contexts import ContextPoset
from ctxdl.errors import (
    LoadError,
    ReplayMismatchError,
    ScriptLookupError,
    UnknownOracleError,
)
from ctxdl import kb
from ctxdl.kb import (
    ConceptAssertion, KnowledgeState, RoleAssertion, WorkingState, abox_digest, canonical_abox
)
from ctxdl.kbfile import loads
from ctxdl.oracle import (
    OracleQuery,
    OracleResponse,
    OracleSpec,
    ScriptEntry,
    ScriptedOracle,
    ask,
    load_script,
    oracle_step,
    record_session,
    replay_session,
    run_session,
)
from ctxdl.programs import execute, parse_program
from ctxdl.reasoner import EMPTY_TBOX, TBox
from oracles import plain_digest

BETA = ConceptAssertion("a", Atomic("A"), "U")
GAMMA = ConceptAssertion("b", Atomic("B"), "V")
EMPTY = KnowledgeState(EMPTY_TBOX, frozenset())


def state_of(digest: str) -> WorkingState:
    """A working state that reads as *digest*, the one thing a scripted
    oracle reads of a state; no write follows, so it keeps that digest."""
    work = WorkingState(EMPTY)
    work._digest = digest
    return work


class Unread(WorkingState):
    """A working state whose digest must not be read."""

    __slots__ = ()

    @property
    def digest(self):
        raise AssertionError("the oracle read the digest")


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
        state = WorkingState(EMPTY)
        assert spec.respond(state, "probe") == spec.respond(state, "probe")

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


def frozen_change(state, additions, deletions=()):
    """The state whose fact set is ``(abox | additions) - deletions``, made
    the way ``oracle_step`` makes it: a working state, one change, frozen."""
    work = WorkingState(state)
    work.apply(additions, deletions)
    return work.freeze()


class Unhashable(str):
    """A digest that fails any lookup that hashes it."""

    __slots__ = ()

    def __hash__(self):
        raise AssertionError("the exact-state lookup hashed the digest")


def answer(name: str) -> OracleResponse:
    return OracleResponse(frozenset({ConceptAssertion(name, Atomic("A"), "U")}))


class TestExactLookup:
    """An exact-state entry is found by comparing the digest with the states
    keyed for its payload, never by hashing it; a miss goes on to the
    payload patterns, then to ScriptLookupError."""

    LONG = ";".join(f"i{n}:A@U" for n in range(1000))
    STATES = {  # state -> the individual its response adds
        "": "e",
        "a:A@U": "a",
        "b:A@U": "b",  # the same length as the one above
        "a:A@U;b:B@V": "ab",
        LONG: "long",
        LONG[:-1] + "V": "longv",  # differs from LONG in its last character only
    }

    def spec(self, *patterns):
        entries = [ScriptEntry("p", state, answer(name)) for state, name in self.STATES.items()]
        entries += [ScriptEntry(pattern, None, answer(f"pat{k}")) for k, pattern in enumerate(patterns)]
        return ScriptedOracle("probe", entries)

    def test_a_digest_that_cannot_be_hashed_finds_its_entry(self):
        spec = self.spec("p*")
        for state, name in self.STATES.items():
            assert spec.respond(state_of(Unhashable(state)), "p") == answer(name)
        assert spec.respond(state_of(Unhashable("c:A@U")), "p") == answer("pat0")

    def test_one_payload_with_several_states_of_one_length(self):
        spec = self.spec()
        for state, name in self.STATES.items():
            assert spec.respond(state_of(state), "p") == answer(name)
        for near_miss in ("c:A@U", "a:A@V", self.LONG[:-1] + "W", self.LONG + ";"):
            with pytest.raises(ScriptLookupError):
                spec.respond(state_of(near_miss), "p")
        with pytest.raises(ValueError, match="duplicate"):
            spec.add(ScriptEntry("p", "".join(["b:A", "@U"]), answer("again")))  # equal, not identical
        spec.add(ScriptEntry("p", "c:A@U", answer("c")))  # same length, new state
        assert spec.respond(state_of("c:A@U"), "p") == answer("c")
        assert spec.respond(state_of("b:A@U"), "p") == answer("b")

    def test_a_thousand_states_of_one_length_in_file_order(self):
        states = [f"i{k:04d}:A@U" for k in range(0, 2000, 2)]
        random.Random(7).shuffle(states)
        spec = ScriptedOracle("probe", [ScriptEntry("p", state, answer(state[:5])) for state in states])
        for state in states:
            assert spec.respond(state_of(Unhashable(state)), "p") == answer(state[:5])
            with pytest.raises(ScriptLookupError):
                spec.respond(state_of(f"i{int(state[1:5]) + 1:04d}:A@U"), "p")  # odd: keyed for no entry
        with pytest.raises(ValueError, match="duplicate"):
            spec.add(ScriptEntry("p", states[500], answer("again")))

    def test_a_miss_falls_through_to_the_patterns_in_file_order(self):
        spec = self.spec("q", "p*", "*")
        assert spec.respond(state_of("a:A@U"), "p") == answer("a")
        assert spec.respond(state_of("c:A@U"), "p") == answer("pat1")  # a state not keyed for p
        assert spec.respond(state_of("a:A@U"), "px") == answer("pat1")  # a payload with no exact entry
        assert spec.respond(state_of("a:A@U"), "q") == answer("pat0")
        assert spec.respond(state_of("a:A@U"), "r") == answer("pat2")
        with pytest.raises(ScriptLookupError):
            self.spec("q").respond(state_of("c:A@U"), "p")


class TestOracleReads:
    """``ask`` hands the oracle its working state and reads no digest: a
    scripted oracle reads one only for a payload with exact entries, and a
    recorded query splices one digest, which the recorder and the inner
    oracle share."""

    EXACT = ScriptEntry("p", "a:A@U", answer("exact"))
    PATTERNS = (ScriptEntry("p*", None, answer("p")), ScriptEntry("q", None, answer("q")))

    def test_a_pattern_only_payload_reads_no_digest(self):
        spec = ScriptedOracle("probe", [self.EXACT, *self.PATTERNS])
        assert spec.respond(Unread(EMPTY), "q") == answer("q")
        assert spec.respond(Unread(EMPTY), "px") == answer("p")  # p has exact entries, px has none

    def test_an_exact_entry_payload_reads_the_digest(self):
        spec = ScriptedOracle("probe", [self.EXACT, *self.PATTERNS])
        with pytest.raises(AssertionError, match="read the digest"):
            spec.respond(Unread(EMPTY), "p")
        assert spec.respond(state_of("a:A@U"), "p") == answer("exact")
        assert spec.respond(state_of("b:A@U"), "p") == answer("p")

    def test_ask_splices_only_what_the_oracle_reads(self, monkeypatch):
        splices = []
        spliced = WorkingState._spliced
        monkeypatch.setattr(WorkingState, "_spliced", lambda work: splices.append(1) or spliced(work))
        responses = [OracleResponse(frozenset({a})) for a in POOL[2:]]
        entries = [ScriptEntry(str(i), None, r) for i, r in enumerate(responses)]
        entries += [ScriptEntry(str(i), "no such state", answer("never")) for i in range(0, len(responses), 2)]
        queries = [OracleQuery("probe", str(i)) for i in range(len(responses))]
        base = KnowledgeState(EMPTY_TBOX, frozenset({BETA}))
        base.digest  # sorted, as an agent's base state is
        for recorded in (False, True):
            splices.clear()
            work = WorkingState(base)
            work.add(GAMMA)  # so that every query's state is spliced
            spec = ScriptedOracle("probe", entries)
            sink = io.StringIO()
            ask(work, record_session(spec, sink) if recorded else spec, queries)
            # Unrecorded, only the payloads with exact entries read the digest.
            assert len(splices) == (len(queries) if recorded else len(range(0, len(responses), 2)))
            assert len(sink.getvalue().splitlines()) == (len(queries) if recorded else 0)


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
        # A stream's line keeps no newline, so an error at the end of a
        # record is placed there, not on the line after it.
        with pytest.raises(LoadError) as exc:
            load_script(io.StringIO('{"oracle": "s"\r\n'), SIG)
        assert str(exc.value) == "<stream>:1:15: invalid JSON record: Expecting ',' delimiter"

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

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_only_a_newline_ends_a_record(self, tmp_path, separator):
        # str.splitlines breaks lines at these too, but JSON allows them
        # raw in a string: the record is one line, and the bad record after
        # it is on line 2, as the tokenizer and json count lines.
        record = f'{{"oracle": "s", "match": {{"payload": "a{separator}b"}}, "add": ["a:A@U"]}}\r\n'
        path = tmp_path / "script.jsonl"
        path.write_text(record, encoding="utf-8")
        assert load_script(path, SIG).respond(Unread(EMPTY), f"a{separator}b").additions == {BETA}
        path.write_text(record + "{oops\n", encoding="utf-8")
        with pytest.raises(LoadError) as exc:
            load_script(path, SIG)
        assert str(exc.value).startswith(f"{path}:2:2: invalid JSON record")
        log = tmp_path / "session.jsonl"
        log.write_text(
            f'{{"seq": 0, "oracle": "s", "match": {{"payload": "p{separator}", "state": "{separator}"}}, "add": []}}\n'
            '{"seq": 1, "oracle": "s", "match": {"payload": "q"}, "add": []}\n',
            encoding="utf-8",
        )
        with pytest.raises(LoadError) as exc:
            replay_session(log, SIG)
        assert str(exc.value) == f"{log}:2: log record needs match.payload and match.state"

    @pytest.mark.parametrize("control", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_a_control_character_in_a_record_is_not_a_line_break(self, tmp_path, control):
        path = tmp_path / "script.jsonl"
        path.write_text(f'{{"oracle": "s", "match": {{"payload": "a{control}b"}}, "add": []}}\n', encoding="utf-8")
        with pytest.raises(LoadError) as exc:
            load_script(path, SIG)
        assert str(exc.value).startswith(f"{path}:1:40: invalid JSON record: Invalid control character")

    def test_pattern_entries_answer_in_file_order(self):
        text = (
            '{"oracle": "s", "match": {"payload": "read-*"}, "add": ["a:A@U"]}\n'
            '{"oracle": "s", "match": {"payload": "read-1*"}, "add": ["b:B@V"]}\n'
        )
        spec = load_script(io.StringIO(text), SIG)
        assert spec.respond(Unread(EMPTY), "read-17").additions == {BETA}


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

    @pytest.mark.parametrize("seq", ["false", "true", "0.0", "1.0", '"1"'])
    def test_sequence_number_must_be_a_json_integer(self, seq):
        # Python's false and 0.0 equal 0, and true and 1.0 equal 1.
        first = '{"seq": 0, "oracle": "s", "match": {"payload": "p", "state": "d"}, "add": []}\n'
        text = first + first.replace('"seq": 0', f'"seq": {seq}').replace('"p"', '"q"')
        with pytest.raises(LoadError) as exc:
            replay_session(io.StringIO(text), SIG)
        assert str(exc.value) == "<stream>:2: log record's sequence number must be an integer"

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
LATENT = (concept_fact("a", "A"), concept_fact("b", "C"), role_fact("a", "b", "r"))
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

    def respond(self, state, payload):
        self.digests.append(state.digest)
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
            ConceptAssertion(f.individual, f.concept, "U")
            if isinstance(f, ConceptAssertion)
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


    # Edge lines: one a prefix of another, and names built in the library
    # with a ';', which no parser accepts and which leave a digest ambiguous.
    C_AT_U = ConceptAssertion("a", Atomic("C"), "U")
    C_AT_U2 = ConceptAssertion("a", Atomic("C"), "U2")
    SPLIT_NAME = ConceptAssertion("a;b", Atomic("A"), "U")
    SPLIT_ROLE = RoleAssertion("a", "b", "r;s", "V")
    EDGE_POOL = (*POOL, C_AT_U, C_AT_U2, SPLIT_NAME, SPLIT_ROLE)
    SORTED_POOL = tuple(sorted(POOL, key=lambda a: a.text))
    edge_sets = st.frozensets(st.sampled_from(EDGE_POOL))

    @given(edge_sets, st.lists(st.tuples(edge_sets, edge_sets), max_size=6))
    @example(frozenset(), [])  # the empty state
    @example(frozenset(), [(frozenset({BETA, LINK}), frozenset())])
    @example(frozenset({BETA}), [(frozenset(), frozenset({BETA}))])  # the only line
    @example(frozenset(SORTED_POOL), [(frozenset(), frozenset({SORTED_POOL[0]}))])  # the first
    @example(frozenset(SORTED_POOL), [(frozenset(), frozenset({SORTED_POOL[-1]}))])  # the last
    @example(frozenset({C_AT_U2}), [(frozenset({C_AT_U}), frozenset()), (frozenset(), frozenset({C_AT_U}))])
    @example(frozenset({C_AT_U}), [(frozenset({C_AT_U2}), frozenset()), (frozenset(), frozenset({C_AT_U}))])
    @example(frozenset(POOL[::2]), [(frozenset(POOL[1::2]), frozenset(POOL[::2]))])  # many at once
    @example(frozenset({SPLIT_NAME}), [(frozenset({BETA}), frozenset()), (frozenset(), frozenset({SPLIT_NAME}))])
    @example(frozenset({BETA}), [(frozenset({SPLIT_ROLE}), frozenset()), (frozenset({GAMMA}), frozenset({SPLIT_ROLE}))])
    @settings(max_examples=300, deadline=None)
    def test_frozen_chain_digests_equal_abox_digest(self, base, changes):
        state, want = KnowledgeState(EMPTY_TBOX, base), base
        for additions, deletions in changes:
            state = frozen_change(state, additions, deletions)
            want = (want | additions) - deletions
            assert state.abox == want
            assert state._digest is None  # a frozen state keeps no digest until it is read
            digest = state.digest
            assert digest == abox_digest(want) == plain_digest(want)
            assert state._digest is digest  # then keeps it, whatever its lines hold
            assert state.lines == tuple(canonical_abox(want))

    # Names built in the library with non-ASCII letters, one also with a ';'.
    ACCENTED = ConceptAssertion("é", Atomic("A"), "U")
    ACCENTED_SPLIT = RoleAssertion("a;é", "b", "r", "W")
    WORK_POOL = (*EDGE_POOL, ACCENTED, ACCENTED_SPLIT)
    work_sets = st.frozensets(st.sampled_from(WORK_POOL))
    writes = st.one_of(
        st.tuples(st.just("apply"), work_sets, work_sets),
        st.tuples(st.sampled_from(("add", "discard")), st.sampled_from(WORK_POOL)),
    )

    @given(work_sets, st.lists(writes, max_size=8))
    @example(frozenset(), [("apply", frozenset({ACCENTED}), frozenset())])
    @example(frozenset({SPLIT_NAME}), [("discard", SPLIT_NAME), ("apply", frozenset({BETA}), frozenset())])
    @example(frozenset({BETA}), [("add", GAMMA), ("apply", frozenset({C_AT_U}), frozenset({BETA}))])
    @settings(max_examples=300, deadline=None)
    def test_working_state_digests_equal_abox_digest(self, base, writes):
        source = KnowledgeState(EMPTY_TBOX, base)
        work, want = WorkingState(source), set(base)
        for write in writes:
            if write[0] == "apply":
                _, additions, deletions = write
                work.apply(additions, deletions)
                want = (want | additions) - deletions
            else:
                _, a = write
                assert getattr(work, write[0])(a) == ((a not in want) if write[0] == "add" else (a in want))
                want = want | {a} if write[0] == "add" else want - {a}
            assert work.abox == want
            assert work._digest in (None, abox_digest(want))  # spliced, dropped, or left for a sort
            frozen = work.freeze()
            assert frozen == KnowledgeState(EMPTY_TBOX, frozenset(want))
            assert frozen._digest in (None, abox_digest(want))
            assert work.digest == abox_digest(want) == plain_digest(want)
            assert source.abox is base


    # Names built in the library with each kind of character that JSON
    # escapes: a quote, a backslash, a control character and DEL.
    ESCAPED_POOL = (
        ConceptAssertion('q"', Atomic("A"), "U"),
        RoleAssertion("a", "b\\", "r", "V"),
        ConceptAssertion("c\n", Atomic("B"), "W"),
        ConceptAssertion("d\x7f", Atomic("C"), "U"),
    )
    MARK_POOL = (*WORK_POOL, *ESCAPED_POOL)
    mark_sets = st.frozensets(st.sampled_from(MARK_POOL))
    mark_writes = st.one_of(
        st.tuples(st.just("apply"), mark_sets, mark_sets),
        st.tuples(st.sampled_from(("add", "discard")), st.sampled_from(MARK_POOL)),
    )

    @given(mark_sets, st.lists(st.tuples(mark_writes, st.booleans()), max_size=16))
    @example(frozenset(POOL), [(("add", a), True) for a in ESCAPED_POOL])
    @example(frozenset(ESCAPED_POOL), [(("discard", a), False) for a in ESCAPED_POOL] + [(("add", BETA), True)])
    @example(frozenset(), [(("add", a), i % 2 == 0) for i, a in enumerate(MARK_POOL)])  # many touched
    @settings(max_examples=300, deadline=None)
    def test_touched_digests_equal_abox_digest_and_marks_hold(self, base, steps):
        """Writes fold into the digest when it is read: every digest handed
        out is ``abox_digest``, and one flagged plain is what JSON writes."""
        source = KnowledgeState(EMPTY_TBOX, base)
        work, chain, want = WorkingState(source), source, set(base)
        for write, read in steps:
            if write[0] == "apply":
                _, additions, deletions = write
                work.apply(additions, deletions)
                chain = frozen_change(chain, additions, deletions)
                want = (want | additions) - deletions
            else:
                _, a = write
                getattr(work, write[0])(a)
                chain = frozen_change(chain, {a}) if write[0] == "add" else frozen_change(chain, (), {a})
                want = want | {a} if write[0] == "add" else want - {a}
            assert work.abox == want == chain.abox
            if read:
                frozen = work.freeze()
                for state in (work, chain, frozen, WorkingState(frozen)):
                    digest = state.digest
                    assert digest == abox_digest(want) == plain_digest(want)
                    exact = json.dumps(digest) == '"' + digest + '"'
                    # A sort checks the whole digest, a splice the lines it adds.
                    assert state._plain is exact if state is not work else state._plain in (exact, False)
        assert work.digest == abox_digest(want)
        assert source.abox is base

    def test_a_loaded_state_has_a_marked_digest(self):
        doc = loads("signature\n  concept A.\n  individual a, b.\ncontexts\n  context U.\nabox\n  a : A @ U.\n  b : A @ U.\n")
        state = doc.state()
        digest = state.digest
        assert state._plain is True and digest == "a:A@U;b:A@U"
        assert json.dumps(digest) == '"' + digest + '"'

    def test_program_writes_keep_the_digest_spliced(self, monkeypatch):
        """Reading the digest after a program's writes sorts nothing."""
        state = KnowledgeState(EMPTY_TBOX, frozenset(POOL))
        state.digest  # sorted once, and kept
        sorts = []
        monkeypatch.setattr(kb, "canonical_abox", lambda abox: sorts.append(abox) or canonical_abox(abox))
        work = WorkingState(state)
        prog = parse_program("add a:C@U; del b:B@V; add (a,a):s@W; del a:A@U", SIG)
        assert execute(prog, work, 100)[:2] == (7, True)
        assert work.digest == plain_digest(work.abox) and work._plain is True
        assert sorts == []

    def test_lines_with_a_semicolon_are_spliced_across_rebases(self, monkeypatch):
        """A base whose lines hold a ';' is sorted once: every later digest
        is spliced from it or from a base the working state makes."""
        split, split_role, c_u, c_u2 = self.SPLIT_NAME, self.SPLIT_ROLE, self.C_AT_U, self.C_AT_U2
        source = KnowledgeState(EMPTY_TBOX, frozenset({*POOL, split, split_role}))
        sorts = []
        monkeypatch.setattr(kb, "canonical_abox", lambda abox: sorts.append(abox) or canonical_abox(abox))
        writes = [
            ("discard", split), ("add", c_u), ("add", c_u2), ("discard", BETA),
            ("add", split), ("discard", split_role), ("discard", GAMMA), ("add", BETA),
            ("discard", c_u), ("add", split_role), ("discard", LINK), ("add", GAMMA),
            ("add", self.ACCENTED_SPLIT), ("discard", split), ("add", self.ACCENTED),
        ]
        work, bases, reads = WorkingState(source), [source], []
        for method, a in writes:
            assert getattr(work, method)(a)
            reads.append((work.digest, frozenset(work.abox), work._plain))
            if work._base is not bases[-1]:
                bases.append(work._base)
        monkeypatch.undo()
        assert len(sorts) == 1 and sorts[0] is source.abox
        assert len(bases) >= 3  # rebased at least twice
        for base in bases:  # each new base keeps the lines merged in its splice
            assert base.lines == tuple(canonical_abox(base.abox))
        assert any(";" in line for line in bases[-1].lines)
        for digest, want, plain in reads:
            assert digest == abox_digest(want) == plain_digest(want)
            if plain:
                assert json.dumps(digest) == '"' + digest + '"'
        assert reads[0][2] is True and reads[-1][2] is False


# Globs over the characters fnmatch treats specially, and payloads over the
# characters they can match.
GLOBS = st.text(st.sampled_from("*?[]!-.\\ab"), max_size=6)
PAYLOADS = st.lists(st.text(st.sampled_from("ab.-\\[]!*?"), max_size=6), min_size=1, max_size=6)


class TestPatternLookup:
    """The compiled alternation answers what the first matching pattern in
    file order answers under ``fnmatchcase``."""

    @given(st.lists(GLOBS, unique=True, max_size=8), st.lists(GLOBS, unique=True, max_size=4), PAYLOADS)
    @example(["a*", "*b", "*"], ["a"], ["ab", "a", "b", ""])
    @example(["*a*b", "[!a]*", "[a-]?"], ["[", "\\*"], ["ba", "-a", "[", "\\b", "aab"])
    @settings(max_examples=500, deadline=None)
    def test_first_match_in_file_order(self, patterns, later, payloads):
        table = [(p, OracleResponse(frozenset())) for p in patterns]
        spec = ScriptedOracle("probe", [ScriptEntry(p, None, r) for p, r in table])

        def check():
            for payload in payloads:
                want = next((r for p, r in table if fnmatchcase(payload, p)), None)
                try:
                    got = spec.respond(Unread(EMPTY), payload)
                except ScriptLookupError:
                    got = None
                assert got is want, (payload, table)

        check()
        for p in later:  # added after the first lookup built the regex
            if p not in patterns:
                table.append((p, OracleResponse(frozenset())))
                spec.add(ScriptEntry(p, None, table[-1][1]))
        check()


# Any text, and text drawn from the digest alphabet plus characters JSON
# must escape: quotes, backslashes, control characters, non-ASCII and a
# lone surrogate.
TEXTS = st.text() | st.text(
    st.sampled_from('aAz_9:;@(),.&|!"\\\x00\x1f\x7f é \ud800')
)


class TestLogLines:
    """A recorded line equals json.dumps of its record with sorted keys,
    whichever way the state digest is written: a plain state's as it is, a
    non-plain base's, and a plain base's that a spliced addition made
    non-plain, through the encoder."""

    # Names built in the library from any text: most hold a character
    # that JSON escapes.
    NAMED = st.builds(ConceptAssertion, TEXTS, st.just(Atomic("A")), st.just("U"))
    FACTS = st.frozensets(st.sampled_from(TestDerivedDigests.MARK_POOL) | NAMED, max_size=6)
    PLAIN = frozenset(POOL)
    QUOTE, BACKSLASH, NEWLINE, DEL = TestDerivedDigests.ESCAPED_POOL
    ACCENTED = TestDerivedDigests.ACCENTED

    @given(
        name=TEXTS,
        payload=TEXTS,
        base=fact_sets | FACTS,
        changes=st.lists(st.tuples(FACTS, FACTS), min_size=1, max_size=4),
        response=st.tuples(fact_sets, fact_sets).map(lambda ad: OracleResponse(ad[0] - ad[1], ad[1])),
    )
    @example(  # a plain state
        name="probe", payload="p", base=PLAIN, changes=[(frozenset({GAMMA}), frozenset({BETA}))],
        response=OracleResponse(frozenset({GAMMA})),
    )
    @example(  # a non-plain base, read as it is and after a plain change
        name="é", payload='"', base=PLAIN | {QUOTE, BACKSLASH, NEWLINE, DEL, ACCENTED},
        changes=[(frozenset(), frozenset()), (frozenset({GAMMA}), frozenset({BETA}))],
        response=OracleResponse(frozenset()),
    )
    @example(  # a plain base that one addition makes non-plain, and its deletion plain again
        name="probe", payload="\x00", base=PLAIN,
        changes=[(frozenset({DEL}), frozenset()), (frozenset(), frozenset({DEL}))],
        response=OracleResponse(frozenset(), frozenset({BETA})),
    )
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_sorted_json_dumps(self, name, payload, base, changes, response):
        sink = io.StringIO()
        inner = ScriptedOracle(name, [ScriptEntry("*", None, response)], allow_deletions=True)
        recorder = record_session(inner, sink)
        work, want, records = WorkingState(KnowledgeState(EMPTY_TBOX, base)), set(base), []
        for seq, (additions, deletions) in enumerate(changes):
            work.apply(additions, deletions)
            want = (want | additions) - deletions
            recorder.respond(work, payload)
            records.append({
                "seq": seq,
                "oracle": name,
                "match": {"payload": payload, "state": abox_digest(want)},
                "add": sorted(a.text for a in response.additions),
                "del": sorted(a.text for a in response.deletions),
            })
        assert sink.getvalue() == "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
