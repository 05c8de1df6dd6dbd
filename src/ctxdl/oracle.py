"""Externally justified state transitions: scripted oracles, record, replay.

An oracle maps (state digest, query payload) to a response of assertion
additions and deletions. The digest is the canonical sorted one-line
rendering of the fact set (see kb.abox_digest), so scripts can key on exact
states; entries may instead match on the payload alone, with ``*`` globbing.
A step reads the digest from the lines its state keeps and derives the next
state's lines from them (``KnowledgeState.updated``), so a session sorts its
fact set once, not once per query; the digest format is unchanged.

Script files are line-delimited JSON. An optional first header record sets
flags; every other record is one table entry::

    {"allow_deletions": true}
    {"oracle": "sensor", "match": {"payload": "probe"}, "add": ["a:C@U"]}
    {"oracle": "sensor", "match": {"payload": "p2", "state": "<digest>"},
     "add": [], "del": ["a:C@U"]}

Deletions are an extension beyond pure introduction of facts and stay
rejected unless the header sets ``allow_deletions``. Session logs reuse the
entry shape plus a ``seq`` number and are append-only; replaying a log gives
an oracle that verifies each incoming query against the recorded one and
reproduces the recorded responses byte for byte.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase
from pathlib import Path
from typing import IO, Iterable, Union

from ctxdl.concepts import Signature
from ctxdl.errors import (
    LoadError,
    ReplayMismatchError,
    ScriptLookupError,
    UnknownOracleError,
)
from ctxdl.kb import (
    Assertion,
    KnowledgeState,
    parse_assertion,
    render_assertion,
)
from ctxdl.values import Record

_set = object.__setattr__  # writes a field past Record's frozen __setattr__


class OracleQuery(Record):
    __slots__ = ("oracle", "payload")

    def __init__(self, oracle: str, payload: str):
        _set(self, "oracle", oracle)
        _set(self, "payload", payload)


class OracleResponse(Record):
    __slots__ = ("additions", "deletions")

    def __init__(self, additions: frozenset[Assertion], deletions: frozenset[Assertion] = frozenset()):
        if additions & deletions:
            raise ValueError("oracle response adds and deletes the same assertion")
        _set(self, "additions", additions)
        _set(self, "deletions", deletions)


class OracleSpec:
    """Behavior interface: a function from (state digest, payload) to response."""

    name: str

    def respond(self, digest: str, payload: str) -> OracleResponse:
        raise NotImplementedError


class ScriptEntry(Record):
    """*payload* is a pattern with shell-style '*'/'?' wildcards; *state* is
    an exact digest, or None for payload-only matching."""

    __slots__ = ("payload", "state", "response")


class ScriptedOracle(OracleSpec):
    """Deterministic table-driven oracle.

    Lookup prefers an exact (state, payload) entry, then the first
    payload-pattern entry in file order, so the behavior is a function of
    the key even when patterns overlap.
    """

    def __init__(self, name: str, entries: Iterable[ScriptEntry], allow_deletions: bool = False):
        self.name = name
        self.allow_deletions = allow_deletions
        self._exact: dict[tuple[str, str], OracleResponse] = {}
        self._patterns: list[ScriptEntry] = []
        seen_patterns: set[str] = set()
        for entry in entries:
            if entry.response.deletions and not allow_deletions:
                raise ValueError(
                    "script contains deletions but does not set allow_deletions"
                )
            if entry.state is not None:
                key = (entry.state, entry.payload)
                if key in self._exact:
                    raise ValueError(f"duplicate script entry for state/payload {key!r}")
                self._exact[key] = entry.response
            else:
                if entry.payload in seen_patterns:
                    raise ValueError(f"duplicate script entry for payload {entry.payload!r}")
                seen_patterns.add(entry.payload)
                self._patterns.append(entry)

    def respond(self, digest: str, payload: str) -> OracleResponse:
        hit = self._exact.get((digest, payload))
        if hit is not None:
            return hit
        for entry in self._patterns:
            if fnmatchcase(payload, entry.payload):
                return entry.response
        raise ScriptLookupError(
            f"oracle {self.name!r} has no entry for payload {payload!r} in the current state"
        )


class RecordingOracle(OracleSpec):
    """Wraps another oracle and appends every transition to a JSONL sink."""

    def __init__(self, inner: OracleSpec, sink: IO[str]):
        self.inner = inner
        self.name = inner.name
        self._sink = sink
        self._seq = 0

    def respond(self, digest: str, payload: str) -> OracleResponse:
        response = self.inner.respond(digest, payload)
        self._sink.write(
            _log_line(
                self._seq,
                self.name,
                payload,
                digest,
                sorted(render_assertion(a) for a in response.additions),
                sorted(render_assertion(a) for a in response.deletions),
            )
        )
        self._seq += 1
        return response


# The ASCII characters json.dumps escapes: the controls, quote, backslash and DEL.
_JSON_ESCAPED = bytes(range(0x20)) + b'"\\\x7f'


def _log_line(
    seq: int, oracle: str, payload: str, state: str, additions: list[str], deletions: list[str]
) -> str:
    """One session record, byte for byte ``json.dumps(record, sort_keys=True)``
    plus a newline, with the keys written in sorted order.

    The state digest is most of the line. It is built from declared names
    and the renderer's ASCII symbols, so it is written verbatim whenever
    JSON would leave it unchanged; only other digests go through the
    encoder's escaping. (Deleting the escaped bytes and comparing lengths
    is several times faster than ``str.isprintable`` or the encoder.)
    """
    if state.isascii() and len(state.encode().translate(None, _JSON_ESCAPED)) == len(state):
        state_json = f'"{state}"'
    else:
        state_json = json.dumps(state)
    return (
        f'{{"add": {json.dumps(additions)}, "del": {json.dumps(deletions)}, '
        f'"match": {{"payload": {json.dumps(payload)}, "state": {state_json}}}, '
        f'"oracle": {json.dumps(oracle)}, "seq": {seq}}}\n'
    )


class _LogRecord(Record):
    __slots__ = ("payload", "state", "response")


class ReplayOracle(OracleSpec):
    """Replays a recorded session, verifying each query against the log."""

    def __init__(self, name: str, records: list[_LogRecord]):
        self.name = name
        self._records = records
        self._pos = 0

    def respond(self, digest: str, payload: str) -> OracleResponse:
        if self._pos >= len(self._records):
            raise ReplayMismatchError(self._pos, "log exhausted: no recorded transition left")
        rec = self._records[self._pos]
        if payload != rec.payload:
            raise ReplayMismatchError(
                self._pos, f"query payload {payload!r} differs from recorded {rec.payload!r}"
            )
        if digest != rec.state:
            raise ReplayMismatchError(
                self._pos, "knowledge state differs from the recorded one"
            )
        self._pos += 1
        return rec.response


def record_session(spec: OracleSpec, sink: IO[str]) -> RecordingOracle:
    """Wrap *spec* so every transition is appended to *sink* as one JSONL record."""
    return RecordingOracle(spec, sink)


def replay_session(source: Union[str, Path, IO[str]], sig: Signature) -> ReplayOracle:
    """Build a replaying oracle from a session log (path or open stream)."""
    path, lines = _read_lines(source)
    records: list[_LogRecord] = []
    name: str | None = None
    expected_seq = 0
    for lineno, raw in lines:
        obj = _parse_json_line(path, lineno, raw)
        if "seq" not in obj:
            raise LoadError(path, lineno, "log record is missing its sequence number")
        if obj["seq"] != expected_seq:
            raise LoadError(
                path, lineno, f"log truncated or reordered: expected seq {expected_seq}, found {obj['seq']}"
            )
        expected_seq += 1
        entry_name = obj.get("oracle")
        if not isinstance(entry_name, str):
            raise LoadError(path, lineno, "log record is missing the oracle name")
        if name is None:
            name = entry_name
        elif entry_name != name:
            raise LoadError(path, lineno, f"log names two oracles: {name!r} and {entry_name!r}")
        match = obj.get("match")
        payload = match.get("payload") if isinstance(match, dict) else None
        state = match.get("state") if isinstance(match, dict) else None
        if not isinstance(payload, str) or not isinstance(state, str):
            raise LoadError(path, lineno, "log record needs match.payload and match.state")
        response = _parse_response(obj, sig, path, lineno)
        records.append(_LogRecord(payload, state, response))
    if name is None:
        name = "replay"
    return ReplayOracle(name, records)


def load_script(source: Union[str, Path, IO[str]], sig: Signature) -> ScriptedOracle:
    """Load a scripted oracle from JSONL text (path or open stream)."""
    path, lines = _read_lines(source)
    entries: list[ScriptEntry] = []
    allow_deletions = False
    name: str | None = None
    seen: dict[tuple, int] = {}
    first = True
    for lineno, raw in lines:
        obj = _parse_json_line(path, lineno, raw)
        if first and "oracle" not in obj:
            allow_deletions = bool(obj.get("allow_deletions", False))
            unknown = set(obj) - {"allow_deletions", "name"}
            if unknown:
                raise LoadError(path, lineno, f"unknown header fields {sorted(unknown)}")
            if "name" in obj:
                name = str(obj["name"])
            first = False
            continue
        first = False
        entry_name = obj.get("oracle")
        if not isinstance(entry_name, str):
            raise LoadError(path, lineno, "script entry is missing the oracle name")
        if name is None:
            name = entry_name
        elif entry_name != name:
            raise LoadError(path, lineno, f"script names two oracles: {name!r} and {entry_name!r}")
        match = obj.get("match")
        if not isinstance(match, dict) or "payload" not in match:
            raise LoadError(path, lineno, "script entry needs a match.payload field")
        state = match.get("state")
        if state is not None and not isinstance(state, str):
            raise LoadError(path, lineno, "match.state must be a string digest")
        response = _parse_response(obj, sig, path, lineno)
        if response.deletions and not allow_deletions:
            raise LoadError(
                path, lineno, "entry deletes assertions but the header does not set allow_deletions"
            )
        key = (state, str(match["payload"]))
        if key in seen:
            raise LoadError(
                path, lineno, f"duplicate entry for {key!r} (first at line {seen[key]})"
            )
        seen[key] = lineno
        entries.append(ScriptEntry(str(match["payload"]), state, response))
    if name is None:
        raise LoadError(path, 1, "script declares no oracle name")
    return ScriptedOracle(name, entries, allow_deletions)


def oracle_step(
    state: KnowledgeState, spec: OracleSpec, query: OracleQuery
) -> tuple[KnowledgeState, OracleResponse]:
    """Apply one externally justified transition to the fact set.

    The inclusions are never touched. Raises UnknownOracleError when the
    query names a different oracle than *spec* serves.
    """
    if query.oracle != spec.name:
        raise UnknownOracleError(
            f"unknown oracle {query.oracle!r}: this session serves {spec.name!r}"
        )
    response = spec.respond(state.digest, query.payload)
    return state.updated(response.additions, response.deletions), response


def run_session(
    state: KnowledgeState, spec: OracleSpec, queries: Iterable[OracleQuery]
) -> tuple[KnowledgeState, list[OracleResponse]]:
    """Apply a sequence of queries in order, returning the final state."""
    responses = []
    for query in queries:
        state, response = oracle_step(state, spec, query)
        responses.append(response)
    return state, responses


# ---------------------------------------------------------------------------
# Shared JSONL plumbing
# ---------------------------------------------------------------------------


def _read_lines(source: Union[str, Path, IO[str]]) -> tuple[str, list[tuple[int, str]]]:
    if isinstance(source, (str, Path)):
        path = str(source)
        text = Path(source).read_text(encoding="utf-8")
    else:
        path = getattr(source, "name", "<stream>")
        text = source.read()
    lines = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    return path, lines


def _parse_json_line(path: str, lineno: int, raw: str) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise LoadError(path, lineno, f"invalid JSON record: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise LoadError(path, lineno, "each record must be a JSON object")
    return obj


def _parse_response(obj: dict, sig: Signature, path: str, lineno: int) -> OracleResponse:
    def parse_list(key: str) -> frozenset[Assertion]:
        raw = obj.get(key, [])
        if not isinstance(raw, list):
            raise LoadError(path, lineno, f"{key!r} must be a list of assertion strings")
        out = set()
        for text in raw:
            try:
                out.add(parse_assertion(str(text), sig))
            except Exception as exc:
                raise LoadError(path, lineno, f"bad assertion {text!r}: {exc}") from exc
        return frozenset(out)

    additions = parse_list("add")
    deletions = parse_list("del")
    try:
        return OracleResponse(additions, deletions)
    except ValueError as exc:
        raise LoadError(path, lineno, str(exc)) from exc
