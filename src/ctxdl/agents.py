"""Agents: interpretation procedures over latent fact sets, and stability.

A fact is an assertion at no context (see ``ctxdl.kb``). An agent turns a
latent structure (a bag of facts) into a manifested fact set by: asserting
the latent facts at its input context (``f.at(U)``), optionally running an
oracle session (payload templates may mention ``{seed}`` and
``{parity}``), optionally running a program, and finally projecting the
resulting assertions through a list of fact patterns, each selected
assertion manifesting as its fact (``a.at(None)``).
The empty manifested set is a first-class outcome: it encodes that the
latent structure carries no information for this agent.

A run keeps the agent's base state as the base of a ``kb.WorkingState``
and copies nothing from it: the injection, every oracle step
(``oracle.ask``) and the program's writes (``programs.execute``) change
only the working state's two deltas, and the projection reads its view.
Its digest is spliced from the one the base state keeps, so a run costs
its changes, not its state.

Stability is exact: k independent runs (fresh state each run) under a seed
policy are Stable iff every run manifests the identical fact set.

Agent definition files are JSON::

    {
      "name": "sensor",
      "kb": "sensor.kb",
      "program": "sensor.p",
      "oracle": {"script": "stream.jsonl", "queries": ["{parity}"]},
      "input_context": "Obs",
      "projection": ["scene:Obstacle"],
      "fuel": 1000,
      "guards": "literal",
      "seed_policy": {"kind": "sequence", "start": 1}
    }

Relative paths are resolved against the file's directory. ``program`` and
``oracle`` are each optional; an agent with neither is the identity on its
injected facts (modulo projection).

A projection pattern is a fact of the fact-list grammar (``a:C`` or
``(a,b):r``) whose slots may be ``*`` (the concept slot then holds
``Atomic("*")``), then an optional ``@U`` or ``@*``.
Spaces between tokens are allowed, and every name is checked against the
signature as it is parsed. Loading rejects, with a ``LoadError`` at the
agent file, a pattern the parser rejects (``projection pattern '<text>':
<reason>``) and a query template with any replacement field other than a
plain ``{seed}`` or ``{parity}``, or with unbalanced braces. A loaded
agent's queries therefore always format. A bad field value is reported at
the line and column where the value starts (``errors.read_json``); a
missing field, at line 1.

Projection looks patterns up rather than scanning for them. A pattern whose
name slots are all concrete selects at most one fact, so it is decided by
membership probes into the final fact set: one when the pattern names its
context, else one per declared context. A pattern with ``*`` in a name slot
scans the fact set. Both give what matching every assertion against every
pattern gives, because every assertion of a run is at a declared context.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Iterable, Union

from ctxdl.concepts import Atomic, Signature, expect_name
from ctxdl.contexts import ContextPoset
from ctxdl.errors import InteractionError, LoadError, OracleError, ParseError, read_json
from ctxdl.kb import (
    GUARD_MODES, Assertion, ConceptAssertion, KnowledgeState, WorkingState, canonical_abox, parse_fact_stream
)
from ctxdl.lexer import TokenStream, tokenize
from ctxdl.oracle import OracleQuery, OracleSpec, ask, load_script
from ctxdl.programs import DEFAULT_FUEL, Program, execute, load_program
from ctxdl.sheaf import Fact, Section
from ctxdl.values import Record

_WILD = ("*", Atomic("*"))  # what a '*' name slot and a '*' concept slot hold


class FactPattern(Record):
    """A fact selector: a fact whose slots may be '*', which matches every
    name, and the context it is asserted at, or None for any context.

    Concept patterns ``a:C[@U]`` match atomic concept assertions; role
    patterns ``(a,b):r[@U]`` match role assertions. ``@*`` and no ``@``
    both leave the context unconstrained.
    """

    __slots__ = ("fact", "context")

    @staticmethod
    def parse(text: str, sig: Signature) -> "FactPattern":
        """Parse *text* with the fact grammar, every name declared in *sig*
        or '*'; a bad pattern is a positioned ParseError."""
        ts = TokenStream(tokenize(text))
        fact = parse_fact_stream(ts, sig, _slot)
        context = None
        if ts.peek().kind == "@":
            ts.next()
            context = _slot(ts, sig.context_names, "context")
        ts.expect_end()
        return FactPattern(fact, None if context == "*" else context)

    @property
    def wild(self) -> bool:
        """Whether a name slot is '*', so that the pattern selects by scanning."""
        return any(want in _WILD for want in self.fact._values(self.fact))

    def matches(self, assertion: Assertion) -> bool:
        if type(assertion) is not type(self.fact) or self.context not in (None, assertion.context):
            return False
        if isinstance(assertion, ConceptAssertion) and not isinstance(assertion.concept, Atomic):
            return False
        wanted, got = self.fact._values(self.fact)[:-1], assertion._values(assertion)[:-1]  # context aside
        return all(want in (*_WILD, field) for want, field in zip(wanted, got))


def _slot(ts: TokenStream, names: frozenset[str], kind: str) -> str:
    """A name declared in *names*, or '*'."""
    if ts.peek().kind == "*":
        return ts.next().text
    return expect_name(ts, names, kind)


class LatentStructure(Record):
    """An uninterpreted bundle of facts an agent may interpret."""

    __slots__ = ("name", "payload")

    @staticmethod
    def of(name: str, payload: Union[frozenset[Fact], Section]) -> "LatentStructure":
        facts = payload.facts if isinstance(payload, Section) else frozenset(payload)
        return LatentStructure(name, facts)


class Manifested(Record):
    """The fact set an interaction produced; empty means nothing manifested."""

    __slots__ = ("facts",)

    def render(self) -> list[str]:
        return canonical_abox(self.facts)


class SeedPolicy(Record):
    """constant: every run uses *value*; sequence: run i uses start + i."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int = 0):
        super().__init__(kind, value)

    def seeds(self, k: int) -> list[int]:
        """The seeds of *k* runs, in a list allocated whole before it is
        filled, so a *k* whose list cannot be held fails at once, as a
        ValueError, not after growing the list until memory runs out."""
        try:
            if self.kind == "constant":
                return [self.value] * k
            if self.kind == "sequence":
                return list(range(self.value, self.value + k))  # range gives list its exact length
        except (MemoryError, OverflowError):
            raise ValueError(f"{k} runs are too many: their seeds do not fit in memory") from None
        raise ValueError(f"unknown seed policy {self.kind!r}")


# The package's one dataclass: perfbench/update.py copies an agent with
# dataclasses.replace to swap its oracle.
@dataclass(frozen=True)
class Agent:
    name: str
    signature: Signature
    poset: ContextPoset
    base_state: KnowledgeState
    input_context: str
    program: Program | None
    oracle: OracleSpec | None
    queries: tuple[str, ...]
    projection: tuple[FactPattern, ...]
    fuel: int = DEFAULT_FUEL
    guard_mode: str = "literal"
    seed_policy: SeedPolicy = SeedPolicy("constant", 0)


def _project(
    abox: AbstractSet[Assertion], projection: tuple[FactPattern, ...], contexts: Iterable[str]
) -> frozenset[Fact]:
    """The facts the patterns select; every assertion must be at one of *contexts*."""
    out: set[Fact] = set()
    scanned = []
    for p in projection:
        if p.wild:
            scanned.append(p)
            continue
        cls, head = type(p.fact), p.fact._values(p.fact)[:-1]  # context aside
        for u in contexts if p.context is None else (p.context,):
            if cls.existing(*head, u) in abox:  # an absent fact makes no node
                out.add(p.fact)
                break
    if scanned:
        out.update(a.at(None) for a in abox if any(p.matches(a) for p in scanned))
    return frozenset(out)


def interact(agent: Agent, latent: LatentStructure, seed: int = 0) -> Manifested:
    """One interpretation run; a function of (agent, latent, seed)."""
    work = WorkingState(agent.base_state)
    work.apply(f.at(agent.input_context) for f in latent.payload)
    if agent.oracle is not None:
        queries = [
            OracleQuery(agent.oracle.name, template.format(seed=seed, parity=seed % 2))
            for template in agent.queries
        ]
        try:
            ask(work, agent.oracle, queries)
        except OracleError as exc:
            raise InteractionError(f"oracle failure: {exc}") from exc
    if agent.program is not None:
        steps, done, _ = execute(agent.program, work, agent.fuel, agent.guard_mode, agent.poset)
        if not done:
            raise InteractionError(
                f"agent program exhausted its fuel of {agent.fuel} after {steps} steps"
            )
    return Manifested(_project(work.abox, agent.projection, agent.signature.context_names))


class StabilityReport(Record):
    """Outcome of repeated interaction.

    stable is True iff all runs manifested the same fact set, in which case
    *outcome* holds it; otherwise *outcomes* lists the distinct manifested
    sets with their counts, in canonical order.
    """

    __slots__ = ("stable", "outcome", "outcomes", "runs", "seeds")


def stability_check(
    agent: Agent,
    latent: LatentStructure,
    k: int,
    seeds: list[int] | None = None,
) -> StabilityReport:
    """Run interact k times and compare the manifested sets exactly.

    Seeds default to the agent's seed policy. k must be at least 2: a single
    run cannot witness regeneration.
    """
    if k < 2:
        raise ValueError("stability needs at least 2 runs")
    if seeds is None:
        seeds = agent.seed_policy.seeds(k)
    if len(seeds) != k:
        raise ValueError(f"expected {k} seeds, got {len(seeds)}")
    results = [interact(agent, latent, seed) for seed in seeds]
    counts: dict[Manifested, int] = {}
    for m in results:
        counts[m] = counts.get(m, 0) + 1
    ordered = tuple(
        sorted(counts.items(), key=lambda item: (len(item[0].facts), item[0].render()))
    )
    if len(counts) == 1:
        return StabilityReport(True, results[0], ordered, k, tuple(seeds))
    return StabilityReport(False, None, ordered, k, tuple(seeds))


_QUERY_FIELDS = ("seed", "parity")


def _template_problem(template: str) -> str | None:
    """Why *template* cannot be formatted with seed and parity, or None."""
    try:
        parts = list(string.Formatter().parse(template))
    except ValueError as exc:
        return str(exc)
    for _, field, spec, conversion in parts:
        if field is not None and (field not in _QUERY_FIELDS or spec or conversion):
            shown = field + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "")
            return f"field {{{shown}}} is not a plain {{seed}} or {{parity}}"
    return None


def load_agent(path: Union[str, Path]) -> Agent:
    """Load an agent definition file and its referenced documents."""
    from ctxdl.kbfile import load_kb  # local import: kbfile imports nothing from here

    path = Path(path)
    raw, places = read_json(path)

    def fail(msg: str, *where: str | int) -> LoadError:
        """A LoadError at the value the keys *where* lead to, or at line 1."""
        line, col = places.get(where, (1, None)) if where else (1, None)
        return LoadError(str(path), line, msg, col)

    if not isinstance(raw, dict):
        raise fail("agent file must hold a JSON object")

    def integer(value: object, field: str, *where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise fail(f"{field} must be an integer", *where)
        return value

    for key in ("name", "kb", "input_context", "projection"):
        if key not in raw:
            raise fail(f"missing required field {key!r}")
    base = path.parent
    doc = load_kb(base / str(raw["kb"]))
    sig = doc.signature
    input_context = str(raw["input_context"])
    if input_context not in sig.context_names:
        raise fail(f"input_context {input_context!r} is not a declared context", "input_context")
    program = load_program(base / str(raw["program"]), sig) if "program" in raw else None
    oracle = None
    queries: tuple[str, ...] = ()
    if "oracle" in raw:
        spec = raw["oracle"]
        if not isinstance(spec, dict) or "script" not in spec:
            raise fail("oracle section needs a 'script' path", "oracle")
        oracle = load_script(base / str(spec["script"]), sig)
        qs = spec.get("queries", [])
        if not isinstance(qs, list):
            raise fail("oracle queries must be a list of payload templates", "oracle", "queries")
        queries = tuple(str(q) for q in qs)
        for i, template in enumerate(queries):
            problem = _template_problem(template)
            if problem is not None:
                raise fail(f"oracle query template {template!r}: {problem}", "oracle", "queries", i)
    if not isinstance(raw["projection"], list):
        raise fail("projection must be a list of fact patterns", "projection")
    projection = []
    for i, text in enumerate(map(str, raw["projection"])):
        try:
            projection.append(FactPattern.parse(text, sig))
        except ParseError as exc:
            raise fail(f"projection pattern {text!r}: {exc.message}", "projection", i) from exc
    policy_raw = raw.get("seed_policy", {"kind": "constant", "value": 0})
    if not isinstance(policy_raw, dict):
        raise fail("seed_policy must be an object", "seed_policy")
    kind = str(policy_raw.get("kind", "constant"))
    if kind not in ("constant", "sequence"):
        raise fail(f"unknown seed policy kind {kind!r}", "seed_policy", "kind")
    value_key = "value" if "value" in policy_raw else "start"
    value = integer(policy_raw.get(value_key, 0), "seed_policy value", "seed_policy", value_key)
    mode = str(raw.get("guards", "literal"))
    if mode not in GUARD_MODES:
        raise fail(f"unknown guard mode {mode!r}", "guards")
    fuel = integer(raw.get("fuel", DEFAULT_FUEL), "fuel", "fuel")
    if fuel < 1:
        raise fail("fuel must be at least 1", "fuel")
    return Agent(
        name=str(raw["name"]),
        signature=sig,
        poset=doc.poset,
        base_state=doc.state(),
        input_context=input_context,
        program=program,
        oracle=oracle,
        queries=queries,
        projection=tuple(projection),
        fuel=fuel,
        guard_mode=mode,
        seed_policy=SeedPolicy(kind, value),
    )
