"""Externally justified state transitions: scripted oracles, record, replay.

An oracle maps (state digest, query payload) to a response of assertion
additions and deletions. The digest is the canonical sorted one-line
rendering of the fact set (see kb.abox_digest), so scripts can key on exact
states; entries may instead match on the payload alone, with ``fnmatch``
globbing. A lookup tries the exact entries of the payload first, then the
payload patterns in file order. ``ask`` runs queries on one
``WorkingState`` in place and splices a digest only when a query reads
it, from the digest its base keeps (see ``ctxdl.kb``), so a session
sorts its fact set once, not once per query; the digest format is
unchanged. ``run_session`` makes that working state from a
``KnowledgeState``, which copies nothing, and freezes it at the end,
which builds the fact set once, on the way out. ``oracle_step`` is
``run_session`` of one query, so each state of a chain of steps sorts
its own digest when the next step reads it; nothing in the library
calls it.

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

Both formats hold one entry shape, ``ScriptEntry``, and share one reader:
it decodes the file (``errors.read_text``), parses each nonblank line as a
JSON object, checks that every entry names the same oracle, and parses the
match and the response. ``load_script`` adds only the header, and
``replay_session`` only the ``seq`` check; ``ScriptedOracle`` alone rejects
deletions it does not allow and duplicate keys. Every failure is a
``LoadError`` at the file and line of the record, with the column of a
JSON syntax error.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from fnmatch import translate
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

from ctxdl.concepts import Signature
from ctxdl.errors import (
    LoadError,
    ParseError,
    ReplayMismatchError,
    ScriptLookupError,
    UnknownOracleError,
    json_limit,
    read_text,
)
from ctxdl.kb import Assertion, Digest, KnowledgeState, WorkingState, canonical_abox, parse_assertion
from ctxdl.values import Record

_set = object.__setattr__  # writes a field past Record's frozen __setattr__
_state = itemgetter(0)  # of a (state, response) pair


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
    the key even when patterns overlap. Exact entries are indexed by
    payload, each payload's sorted by state, and a lookup bisects them with
    the digest: a few string comparisons, which stop at the first
    differing character, and no hash of the digest, which a state splices
    afresh for each query and which would cost a pass over the whole
    string. The patterns are answered by one regex, the
    alternation of their ``fnmatch`` translations in file order, each
    inside a group of its own; it is compiled on the first lookup after a
    pattern is added.
    """

    def __init__(self, name: str, entries: Iterable[ScriptEntry], allow_deletions: bool = False):
        self.name = name
        self.allow_deletions = allow_deletions
        self._exact: dict[str, list[tuple[str, OracleResponse]]] = {}  # payload -> (state, response), by state
        self._patterns: dict[str, OracleResponse] = {}  # pattern -> response, in file order
        self._matcher: tuple[re.Pattern, dict[str, OracleResponse]] | None = None
        for entry in entries:
            self.add(entry)

    def add(self, entry: ScriptEntry) -> None:
        """Append an entry; a deletion not allowed or a repeated key is a ValueError."""
        if entry.response.deletions and not self.allow_deletions:
            raise ValueError("script contains deletions but does not set allow_deletions")
        if entry.state is not None:
            keyed = self._exact.setdefault(entry.payload, [])
            i = bisect_left(keyed, entry.state, key=_state)
            if i < len(keyed) and keyed[i][0] == entry.state:
                raise ValueError(f"duplicate script entry for state/payload {(entry.state, entry.payload)!r}")
            keyed.insert(i, (entry.state, entry.response))
        else:
            if entry.payload in self._patterns:
                raise ValueError(f"duplicate script entry for payload {entry.payload!r}")
            self._patterns[entry.payload] = entry.response
            self._matcher = None

    def respond(self, digest: str, payload: str) -> OracleResponse:
        keyed = self._exact.get(payload)
        if keyed is not None:
            i = bisect_left(keyed, digest, key=_state)
            if i < len(keyed) and keyed[i][0] == digest:
                return keyed[i][1]
        if self._matcher is None:
            self._matcher = _compile_patterns(self._patterns)
        pattern, responses = self._matcher
        hit = pattern.match(payload)
        if hit is not None:
            return responses[hit.lastgroup]
        raise ScriptLookupError(
            f"oracle {self.name!r} has no entry for payload {payload!r} in the current state"
        )


def _compile_patterns(patterns: dict[str, OracleResponse]) -> tuple[re.Pattern, dict[str, OracleResponse]]:
    """One regex for *patterns* and the response of each of its groups.

    Alternative i is ``(?P<_i>...)`` around the ``fnmatch`` translation of
    the i-th pattern, which ends in ``\\Z``: its group closes only when the
    whole payload matched, and it is the last group to close, so
    ``lastgroup`` names it. A translation's own groups (named ``g0``, ...
    on Python 3.10) cannot take that name.
    """
    names = [f"_{i}" for i in range(len(patterns))]
    regex = "|".join(f"(?P<{name}>{translate(p)})" for name, p in zip(names, patterns))
    return re.compile(regex or "(?!)"), dict(zip(names, patterns.values()))


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
                canonical_abox(response.additions),
                canonical_abox(response.deletions),
            )
        )
        self._seq += 1
        return response


def _log_line(
    seq: int, oracle: str, payload: str, state: str, additions: list[str], deletions: list[str]
) -> str:
    """One session record, byte for byte ``json.dumps(record, sort_keys=True)``
    plus a newline, with the keys written in sorted order.

    The state digest is most of the line. A ``kb.Digest`` is one that JSON
    leaves unchanged, so it is written as it is, with no scan; any other
    string, and each short field, goes through the encoder that
    ``json.dumps`` calls for a ``str``.
    """
    state_json = f'"{state}"' if isinstance(state, Digest) else _json_str(state)
    return (
        f'{{"add": {_json_list(additions)}, "del": {_json_list(deletions)}, '
        f'"match": {{"payload": {_json_str(payload)}, "state": {state_json}}}, '
        f'"oracle": {_json_str(oracle)}, "seq": {seq}}}\n'
    )


def _json_list(texts: list[str]) -> str:
    """``json.dumps(texts)`` for a list of strings."""
    return f"[{', '.join(map(_json_str, texts))}]"


class ReplayOracle(OracleSpec):
    """Replays a recorded session, verifying each query against the log."""

    def __init__(self, name: str, records: list[ScriptEntry]):
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
    path, records = _read_records(source)
    name: str | None = None
    entries: list[ScriptEntry] = []
    for expected_seq, (lineno, obj) in enumerate(records):
        if "seq" not in obj:
            raise LoadError(path, lineno, "log record is missing its sequence number")
        if type(obj["seq"]) is not int:  # not a bool, nor a float that equals an int
            raise LoadError(path, lineno, "log record's sequence number must be an integer")
        if obj["seq"] != expected_seq:
            raise LoadError(
                path, lineno, f"log truncated or reordered: expected seq {expected_seq}, found {obj['seq']}"
            )
        name, entry = _read_entry(path, lineno, obj, sig, "log", name)
        entries.append(entry)
    return ReplayOracle("replay" if name is None else name, entries)


def load_script(source: Union[str, Path, IO[str]], sig: Signature) -> ScriptedOracle:
    """Load a scripted oracle from JSONL text (path or open stream)."""
    path, records = _read_records(source)
    spec = ScriptedOracle(None, ())
    for index, (lineno, obj) in enumerate(records):
        if index == 0 and "oracle" not in obj:
            unknown = set(obj) - {"allow_deletions", "name"}
            if unknown:
                raise LoadError(path, lineno, f"unknown header fields {sorted(unknown)}")
            spec.allow_deletions = obj.get("allow_deletions", False)
            if not isinstance(spec.allow_deletions, bool):
                raise LoadError(path, lineno, "header field 'allow_deletions' must be true or false")
            spec.name = obj.get("name")
            if "name" in obj and not isinstance(spec.name, str):
                raise LoadError(path, lineno, "header field 'name' must be a string")
            continue
        spec.name, entry = _read_entry(path, lineno, obj, sig, "script", spec.name)
        try:
            spec.add(entry)
        except ValueError as exc:
            raise LoadError(path, lineno, str(exc)) from exc
    if spec.name is None:
        raise LoadError(path, 1, "script declares no oracle name")
    return spec


def oracle_step(
    state: KnowledgeState, spec: OracleSpec, query: OracleQuery
) -> tuple[KnowledgeState, OracleResponse]:
    """``run_session`` of the one *query*: the next state and the response.

    Nothing in the library calls it: a run of several queries asks one
    working state (``ask``) rather than copy the fact set per query. The
    benchmark's tracer (``perfbench/tracing.py``) wraps it by name.
    """
    state, (response,) = run_session(state, spec, (query,))
    return state, response


def run_session(
    state: KnowledgeState, spec: OracleSpec, queries: Iterable[OracleQuery]
) -> tuple[KnowledgeState, list[OracleResponse]]:
    """Apply a sequence of queries in order, returning the final state."""
    work = WorkingState(state)
    responses = ask(work, spec, queries)
    return work.freeze(), responses


def ask(work: WorkingState, spec: OracleSpec, queries: Iterable[OracleQuery]) -> list[OracleResponse]:
    """Apply a sequence of queries in order to *work*, in place.

    The inclusions are never touched. Raises UnknownOracleError when a
    query names a different oracle than *spec* serves.
    """
    responses = []
    for query in queries:
        if query.oracle != spec.name:
            raise UnknownOracleError(
                f"unknown oracle {query.oracle!r}: this session serves {spec.name!r}"
            )
        response = spec.respond(work.digest, query.payload)
        work.apply(response.additions, response.deletions)
        responses.append(response)
    return responses


# ---------------------------------------------------------------------------
# Shared JSONL plumbing
# ---------------------------------------------------------------------------


def _read_records(source: Union[str, Path, IO[str]]) -> tuple[str, Iterator[tuple[int, dict]]]:
    """The path of *source* and its nonblank lines as (line number, JSON object).

    The lines are parsed as they are iterated, so the first bad line in
    file order is the one reported. A line ends at '\n' alone, the line
    that the tokenizer and ``json`` count, not at U+2028 and the other
    breaks of ``str.splitlines``, which JSON allows raw in a string. A
    stream's CR LF leaves no CR on the line, where it would move a JSON
    error's column.
    """
    if isinstance(source, (str, Path)):
        path, text = str(source), read_text(source)
    else:
        path, text = getattr(source, "name", "<stream>"), source.read()
    lines = enumerate(text.split("\n"), start=1)
    return path, (
        (lineno, _parse_json_line(path, lineno, raw.removesuffix("\r"))) for lineno, raw in lines if raw.strip()
    )


def _parse_json_line(path: str, lineno: int, raw: str) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise LoadError(path, lineno, f"invalid JSON record: {exc.msg}", exc.colno) from exc
    except (RecursionError, ValueError) as exc:
        raise LoadError(path, lineno, f"invalid JSON record: {json_limit(exc)}") from exc
    if not isinstance(obj, dict):
        raise LoadError(path, lineno, "each record must be a JSON object")
    return obj


def _read_entry(
    path: str, lineno: int, obj: dict, sig: Signature, kind: str, name: str | None
) -> tuple[str, ScriptEntry]:
    """The oracle name and the entry of one record of a *kind* ("script" or
    "log") file; *name* is the oracle the file has named so far, if any.

    A log entry matches one exact state; a script entry may leave it out.
    """
    noun = "script entry" if kind == "script" else "log record"
    oracle = obj.get("oracle")
    if not isinstance(oracle, str):
        raise LoadError(path, lineno, f"{noun} is missing the oracle name")
    if name is not None and oracle != name:
        raise LoadError(path, lineno, f"{kind} names two oracles: {name!r} and {oracle!r}")
    match = obj.get("match")
    if not isinstance(match, dict):
        match = {}
    payload, state = match.get("payload"), match.get("state")
    if kind == "log":
        if not isinstance(payload, str) or not isinstance(state, str):
            raise LoadError(path, lineno, "log record needs match.payload and match.state")
    elif "payload" not in match:
        raise LoadError(path, lineno, "script entry needs a match.payload field")
    elif not isinstance(payload, str):
        raise LoadError(path, lineno, "match.payload must be a string pattern")
    elif state is not None and not isinstance(state, str):
        raise LoadError(path, lineno, "match.state must be a string digest")
    return oracle, ScriptEntry(payload, state, _parse_response(obj, sig, path, lineno))


def _parse_response(obj: dict, sig: Signature, path: str, lineno: int) -> OracleResponse:
    def parse_list(key: str) -> frozenset[Assertion]:
        raw = obj.get(key, [])
        if not isinstance(raw, list):
            raise LoadError(path, lineno, f"{key!r} must be a list of assertion strings")
        out = set()
        for text in raw:
            try:
                out.add(parse_assertion(str(text), sig))
            except ParseError as exc:
                raise LoadError(path, lineno, f"bad assertion {text!r}: {exc.message}") from exc
        return frozenset(out)

    additions = parse_list("add")
    deletions = parse_list("del")
    try:
        return OracleResponse(additions, deletions)
    except ValueError as exc:
        raise LoadError(path, lineno, str(exc)) from exc
