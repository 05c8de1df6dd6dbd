"""Contextual assertions, knowledge states, saturation, and guard evaluation.

Assertions are written ``a : C @ U`` (individual, concept, context) and
``(a, b) : r @ U`` (role between two individuals, context). The canonical
rendering drops the optional whitespace: ``a:C@U`` / ``(a,b):r@U``; sorting
those strings gives the canonical order used by state dumps and digests.
Assertions are interned nodes (see ``ctxdl.values``): equal assertions
are one object. Each renders its text once, on first use, and keeps it
in a private slot, so a digest of a fact set whose assertions were
rendered before is a sort and join of stored strings.

A fact is an assertion at no context: ``a:C`` (C a concept name) or
``(a,b):r``, with context None and a text without ``@``. The presheaf
universes, sections, latent structures and manifested sets hold facts;
``f.at(U)`` is the fact asserted at U, and ``a.at(None)`` the fact an
assertion asserts. One reader parses the ``a:C`` / ``(a,b):r`` head of
both; an assertion's concept is any expression and ``@ U`` follows it.

A knowledge state keeps its digest the same way: one sort and join, the
first time it is needed. A change splices the next digest from the kept
string: it finds the place of each changed line by bisection over the
string and joins the untouched stretches with the added lines once, so a
run of small updates pays for its changes, not for the whole fact set.
The kept digest is exactly what ``abox_digest`` gives for the fact set,
and ``lines`` what ``canonical_abox`` gives; the digest format is
unchanged. A line that holds a ``;`` would make the kept string
ambiguous; only names built in the library can, and a state with such a
line sorts its fact set whenever it is asked.

``KnowledgeState.updated`` builds a new frozen state for each change. A
run that uses each of its intermediate states once (an agent's
interaction, an oracle session, a program evaluation) changes one
``WorkingState`` in place instead: it copies the fact set of the state it
starts from once, into a ``set``, and keeps its digest. ``apply`` changes
the set as ``updated`` does and splices the digest with the same code; a
program's one-assertion writes drop the digest, which a program never
reads. ``freeze`` gives the ``KnowledgeState`` at the end.

Guard satisfaction has two modes. ``literal`` checks raw membership of the
asserted fact in the current fact set. ``saturated`` additionally accepts a
fact at context V whenever it is asserted at some supercontext U >= V, i.e.
membership in the downward-closed saturation. Saturation is computed on
demand and never stored, so deletion stays plain set difference; a saturated
guard atom costs one membership lookup per declared supercontext of V, not a
scan of the fact set.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Iterable, Union

from ctxdl.concepts import Atomic, Signature, expect_name, parse_concept_stream, print_concept
from ctxdl.contexts import ContextPoset
from ctxdl.lexer import END, TokenStream, tokenize
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, TBox, subsumes
from ctxdl.values import Node, Record

GUARD_MODES = ("literal", "saturated")

_set = object.__setattr__  # writes a private slot past Record's frozen __setattr__


class ConceptAssertion(Node):
    __slots__ = ("individual", "concept", "context", "_text")

    @property
    def text(self) -> str:
        """Canonical rendering ``a:C@U``, or ``a:C`` for a fact, computed on first use."""
        if self._text is None:
            text = f"{self.individual}:{print_concept(self.concept)}"
            _set(self, "_text", text if self.context is None else f"{text}@{self.context}")
        return self._text

    def at(self, context: str | None) -> "ConceptAssertion":
        """The same assertion at *context*; at None, its fact."""
        return ConceptAssertion(self.individual, self.concept, context)


class RoleAssertion(Node):
    __slots__ = ("subject", "target", "role", "context", "_text")

    @property
    def text(self) -> str:
        """Canonical rendering ``(a,b):r@U``, or ``(a,b):r`` for a fact, computed on first use."""
        if self._text is None:
            text = f"({self.subject},{self.target}):{self.role}"
            _set(self, "_text", text if self.context is None else f"{text}@{self.context}")
        return self._text

    def at(self, context: str | None) -> "RoleAssertion":
        """The same assertion at *context*; at None, its fact."""
        return RoleAssertion(self.subject, self.target, self.role, context)


Assertion = Union[ConceptAssertion, RoleAssertion]


class KnowledgeState(Record):
    """The pair a program run transforms: fixed inclusions, current assertions."""

    __slots__ = ("tbox", "abox", "_digest")

    def __init__(self, tbox: TBox, abox: frozenset[Assertion]):
        _set(self, "tbox", tbox)
        _set(self, "abox", abox)
        _set(self, "_digest", None)

    def with_abox(self, abox: Iterable[Assertion]) -> "KnowledgeState":
        return KnowledgeState(self.tbox, frozenset(abox))

    @property
    def lines(self) -> tuple[str, ...]:
        """``canonical_abox(self.abox)``, the digest's lines."""
        return tuple(canonical_abox(self.abox))

    @property
    def digest(self) -> str:
        """``abox_digest(self.abox)``, joined on first use and kept unless a
        line holds a ';', which would make the kept string ambiguous."""
        return _kept_digest(self)

    def updated(
        self, additions: Iterable[Assertion], deletions: Iterable[Assertion] = ()
    ) -> "KnowledgeState":
        """The state whose fact set is ``(abox | additions) - deletions``.

        Its digest is spliced from this state's (``_spliced``), with no sort
        and no render of the rest.
        """
        removed, added = _change(self.abox, additions, deletions)
        if not removed and not added:
            return self
        abox = self.abox - removed if removed else self.abox  # each set operation copies
        child = KnowledgeState(self.tbox, abox | added if added else abox)
        self.digest  # kept unless a line holds a ';'
        _set(child, "_digest", _spliced(self._digest, removed, added))
        return child


class WorkingState:
    """A fact set that one run changes in place: the inclusions, a ``set``
    of assertions and the kept digest.

    It is made from a ``KnowledgeState`` with one copy of the fact set, and
    reads that state's digest, which the state then keeps, so every run
    made from one state splices from one sorted string. ``apply`` changes
    the set as ``KnowledgeState.updated`` does and splices the kept digest
    the same way; ``add`` and ``discard`` write one assertion and drop the
    kept digest, which the next ``digest`` sorts again. ``freeze`` gives
    the ``KnowledgeState`` of the set, with the digest kept so far.
    """

    __slots__ = ("tbox", "abox", "_digest")

    def __init__(self, state: KnowledgeState):
        state.digest  # kept unless a line holds a ';'
        self.tbox = state.tbox
        self.abox = set(state.abox)
        self._digest = state._digest

    @property
    def digest(self) -> str:
        """``abox_digest(self.abox)``, kept as ``KnowledgeState.digest`` is."""
        return _kept_digest(self)

    def apply(self, additions: Iterable[Assertion], deletions: Iterable[Assertion] = ()) -> None:
        """Make the fact set ``(abox | additions) - deletions``."""
        removed, added = _change(self.abox, additions, deletions)
        if removed or added:
            self.abox -= removed
            self.abox |= added
            self._digest = _spliced(self._digest, removed, added)

    def add(self, assertion: Assertion) -> bool:
        """Add one assertion; whether it was absent."""
        if assertion in self.abox:
            return False
        self.abox.add(assertion)
        self._digest = None
        return True

    def discard(self, assertion: Assertion) -> bool:
        """Remove one assertion; whether it was present."""
        if assertion not in self.abox:
            return False
        self.abox.remove(assertion)
        self._digest = None
        return True

    def freeze(self) -> KnowledgeState:
        """The state of the fact set as it is now, with the digest kept so far."""
        state = KnowledgeState(self.tbox, frozenset(self.abox))
        _set(state, "_digest", self._digest)
        return state


def _kept_digest(state: Union[KnowledgeState, WorkingState]) -> str:
    """``abox_digest(state.abox)``, kept in ``state._digest`` unless a line
    holds a ';' (the string then holds as many ';' as lines, or more)."""
    if state._digest is None:
        digest = abox_digest(state.abox)
        if digest.count(";") < max(len(state.abox), 1):
            _set(state, "_digest", digest)
        return digest
    return state._digest


def _change(
    abox: AbstractSet[Assertion], additions: Iterable[Assertion], deletions: Iterable[Assertion]
) -> tuple[frozenset[Assertion], frozenset[Assertion]]:
    """The assertions that ``(abox | additions) - deletions`` removes from
    *abox* and those it adds."""
    deletions = frozenset(deletions)
    return deletions & abox, frozenset(additions) - deletions - abox


def _spliced(digest: str | None, removed: Iterable[Assertion], added: Iterable[Assertion]) -> str | None:
    """The kept *digest* after the change: each removed line is found by
    bisection over the string, and so is the place of each added one; one
    join of the untouched stretches and the added lines builds the result.
    None when *digest* is, or when a changed line holds a ';' (only names
    built in the library can): its holder sorts its fact set when asked.
    """
    if digest is None:
        return None
    gone, new = [a.text for a in removed], [a.text for a in added]
    if any(";" in text for text in gone + new):
        return None
    return _splice(digest, gone, new)


def _line_start(digest: str, text: str) -> int:
    """The offset of the line *text* in *digest*, or of the line it would
    precede if absent (``len(digest) + 1`` past the last line); *digest* is
    sorted lines joined by ';', none of which holds a ';'."""
    lo, hi = 0, len(digest) + 1 if digest else 0  # lines before lo sort below text, from hi on not
    while lo < hi:
        mid = (lo + hi) // 2
        start = digest.rfind(";", lo, mid) + 1 or lo
        end = digest.find(";", start)
        if end < 0:
            end = len(digest)
        if digest[start:end] < text:
            lo = end + 1
        else:
            hi = start
    return lo


def _splice(digest: str, gone: list[str], new: list[str]) -> str:
    """*digest* without the lines *gone* and with the lines *new*, each put
    in place by ``_line_start``; one join builds the result."""
    edits = [(_line_start(digest, text), 1, text) for text in gone]
    edits += [(_line_start(digest, text), 0, text) for text in new]
    pieces, pos = [], 0
    for offset, removing, text in sorted(edits):  # at one offset: insertions, in order, then the removal
        if offset > pos:
            pieces.append(digest[pos : offset - 1])  # untouched lines, without the ';' after them
        if removing:
            pos = offset + len(text) + 1
        else:
            pieces.append(text)
            pos = offset
    if pos < len(digest):
        pieces.append(digest[pos:])
    return ";".join(pieces)


NameReader = Callable[[TokenStream, frozenset[str], str], str]


def _parse_head(ts: TokenStream, sig: Signature, name: NameReader, expression: bool) -> tuple[type, tuple]:
    """The class and the fields, all but the context, of the head ``a:C`` or
    ``(a,b):r``. C is any concept expression if *expression*, else a name;
    every name is read by ``name(ts, declared_names, kind)``."""
    if ts.peek().kind == "(":
        ts.next()
        subject = name(ts, sig.individual_names, "individual")
        ts.expect(",")
        target = name(ts, sig.individual_names, "individual")
        ts.expect(")")
        ts.expect(":")
        return RoleAssertion, (subject, target, name(ts, sig.role_names, "role"))
    individual = name(ts, sig.individual_names, "individual")
    ts.expect(":")
    if expression:
        return ConceptAssertion, (individual, parse_concept_stream(ts, sig))
    return ConceptAssertion, (individual, Atomic(name(ts, sig.concept_names, "concept")))


def parse_assertion(text: str, sig: Signature) -> Assertion:
    """Parse one assertion; contexts are validated against the signature."""
    ts = TokenStream(tokenize(text))
    a = parse_assertion_stream(ts, sig)
    ts.expect_end()
    return a


def parse_assertion_stream(ts: TokenStream, sig: Signature) -> Assertion:
    """The head with any concept expression, then ``@ U``."""
    cls, head = _parse_head(ts, sig, expect_name, True)
    ts.expect("@")
    return cls(*head, expect_name(ts, sig.context_names, "context"))


def parse_fact_stream(ts: TokenStream, sig: Signature, name: NameReader = expect_name) -> Assertion:
    """Parse the fact ``a:C`` or ``(a,b):r``, C a concept name: the head at context None.

    Each slot is read by ``name(ts, declared_names, kind)``, by default
    ``concepts.expect_name``; a reader that also accepts ``*`` parses
    projection patterns.
    """
    cls, head = _parse_head(ts, sig, name, False)
    return cls(*head, None)


def parse_fact_list_stream(ts: TokenStream, sig: Signature, stop: str = END) -> frozenset[Assertion]:
    """Parse comma-separated facts up to the *stop* token, which is left in
    the stream; none at all when the stream is already at it."""
    facts: set[Assertion] = set()
    if ts.peek().kind != stop:
        facts.add(parse_fact_stream(ts, sig))
        while ts.peek().kind == ",":
            ts.next()
            facts.add(parse_fact_stream(ts, sig))
    return frozenset(facts)


def parse_fact_list(text: str, sig: Signature) -> frozenset[Assertion]:
    """Parse a comma-separated fact list; the empty string is the empty set."""
    ts = TokenStream(tokenize(text))
    facts = parse_fact_list_stream(ts, sig)
    ts.expect_end()
    return facts


def canonical_abox(abox: Iterable[Assertion]) -> list[str]:
    """Canonical sorted rendering, one string per assertion."""
    return sorted(a.text for a in abox)


def abox_digest(abox: Iterable[Assertion]) -> str:
    """One-line digest of the fact set: canonical renderings joined by ';'."""
    return ";".join(canonical_abox(abox))


def signature_digest(sig: Signature) -> str:
    """Hex fingerprint of the signature, used by state-dump headers."""
    import hashlib  # local import: only state dumps need it, and it loads OpenSSL

    text = "|".join(
        kind + ":" + ",".join(sorted(names))
        for kind, names in (
            ("concepts", sig.concept_names),
            ("roles", sig.role_names),
            ("individuals", sig.individual_names),
            ("contexts", sig.context_names),
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def saturate(abox: Iterable[Assertion], poset: ContextPoset) -> frozenset[Assertion]:
    """Close a fact set downward: a fact at U also holds at every V <= U.

    One pass suffices because the poset order is already transitively closed;
    the result is a fixed point of further saturation.
    """
    out: set[Assertion] = set()
    for a in abox:
        out.update(a.at(v) for v in poset.below(a.context))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


# Guard nodes are interned like concept nodes (see ``ctxdl.values``), so
# comparing or hashing a long chain costs one step.


class Truth(Node):
    __slots__ = ()


class Falsity(Node):
    __slots__ = ()


class AssertGuard(Node):
    __slots__ = ("assertion",)


class SubsumeGuard(Node):
    __slots__ = ("lhs", "rhs")


class GuardNot(Node):
    __slots__ = ("child",)


class GuardAnd(Node):
    __slots__ = ("left", "right")


Guard = Union[Truth, Falsity, AssertGuard, SubsumeGuard, GuardNot, GuardAnd]

TRUE_GUARD = Truth()
FALSE_GUARD = Falsity()


def _holds_saturated(abox: AbstractSet[Assertion], wanted: Assertion, poset: ContextPoset) -> bool:
    # Membership in saturate(abox) without materializing the closure. Facts in
    # abox are live nodes, so a probe only looks up: making one costs ~4 us.
    head = wanted._values(wanted)[:-1]  # context is the last field
    return any(type(wanted).existing(*head, u) in abox for u in poset.above(wanted.context))


def guard_sat(
    state: KnowledgeState,
    guard: Guard,
    mode: str = "literal",
    poset: ContextPoset | None = None,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Decide whether *state* satisfies *guard*.

    *state* is read through its ``tbox`` and its ``abox``, which may be any
    set of assertions: program evaluation passes its working fact set.
    Assertion atoms test membership (literal mode) or saturated membership
    (saturated mode, which requires the context poset). Subsumption atoms
    consult the reasoner and may raise BudgetExceededError. When *state*
    also has a ``verdicts`` dict, as a program run does, a subsumption atom
    is decided once and then answered from it: the inclusions never change
    within a run, so the verdict cannot either.

    Negations and conjunctions wait on an explicit stack, so a long guard
    (``a | b`` is ``!(!a & !b)``, left-nested) costs no Python recursion.
    Atoms are decided left to right and ``&`` short-circuits, so the
    subsumption atoms run, and may exhaust the budget, in the order of
    the recursive definition.
    """
    if mode not in GUARD_MODES:
        raise ValueError(f"unknown guard mode {mode!r}")
    if mode == "saturated" and poset is None:
        raise ValueError("saturated guard mode requires a context poset")
    if isinstance(guard, Truth):
        return True
    if isinstance(guard, Falsity):
        return False
    if isinstance(guard, AssertGuard):
        if mode == "literal":
            return guard.assertion in state.abox
        return _holds_saturated(state.abox, guard.assertion, poset)
    if isinstance(guard, SubsumeGuard):
        verdicts = getattr(state, "verdicts", {})
        if guard not in verdicts:
            verdicts[guard] = subsumes(state.tbox, guard.lhs, guard.rhs, budget=budget)
        return verdicts[guard]
    if not isinstance(guard, (GuardNot, GuardAnd)):
        raise TypeError(f"not a guard: {guard!r}")
    pending: list[GuardNot | GuardAnd] = []
    while True:
        while isinstance(guard, (GuardNot, GuardAnd)):
            pending.append(guard)
            guard = guard.child if isinstance(guard, GuardNot) else guard.left
        # An atom: this call answers it above and never reaches the stack.
        value = guard_sat(state, guard, mode, poset, budget=budget)
        # Hand the value up to the innermost compound that needs more work.
        while pending:
            node = pending.pop()
            if isinstance(node, GuardNot):
                value = not value
            elif value:
                guard = node.right  # the conjunction is now its right side
                break
        else:
            return value
