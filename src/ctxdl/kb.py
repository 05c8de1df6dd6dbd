"""Contextual assertions, knowledge states, saturation, and guard evaluation.

Assertions are written ``a : C @ U`` (individual, concept, context) and
``(a, b) : r @ U`` (role between two individuals, context). The canonical
rendering drops the optional whitespace: ``a:C@U`` / ``(a,b):r@U``; sorting
those strings gives the canonical order used by state dumps and digests.
Assertions are interned nodes (see ``ctxdl.values``): equal assertions
are one object. Each renders its text once, on first use, and keeps it
in a private slot, so a digest of a fact set whose assertions were
rendered before is a sort and join of stored strings.

A knowledge state keeps its canonical lines the same way: one sort, the
first time they are needed. ``KnowledgeState.updated`` derives the next
state's lines from the current ones by bisection, so a run of small
updates pays for its changes, not for the whole fact set. The lines and
the digest read off them are exactly what ``canonical_abox`` and
``abox_digest`` give for the state's fact set; the digest format is
unchanged.

Guard satisfaction has two modes. ``literal`` checks raw membership of the
asserted fact in the current fact set. ``saturated`` additionally accepts a
fact at context V whenever it is asserted at some supercontext U >= V, i.e.
membership in the downward-closed saturation. Saturation is computed on
demand and never stored, so deletion stays plain set difference; a saturated
guard atom costs one membership lookup per declared supercontext of V, not a
scan of the fact set.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import AbstractSet, Iterable, Union

from ctxdl.concepts import Signature, parse_concept_stream, print_concept
from ctxdl.contexts import ContextPoset
from ctxdl.errors import UnknownNameError
from ctxdl.lexer import IDENT, TokenStream, tokenize
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, subsumes
from ctxdl.values import Node, Record

GUARD_MODES = ("literal", "saturated")

_set = object.__setattr__  # writes a private slot past Record's frozen __setattr__


class ConceptAssertion(Node):
    __slots__ = ("individual", "concept", "context", "_text")

    @property
    def text(self) -> str:
        """Canonical rendering ``a:C@U``, computed on first use."""
        if self._text is None:
            _set(self, "_text", f"{self.individual}:{print_concept(self.concept)}@{self.context}")
        return self._text

    def at(self, context: str) -> "ConceptAssertion":
        """The same assertion at *context*."""
        return ConceptAssertion(self.individual, self.concept, context)


class RoleAssertion(Node):
    __slots__ = ("subject", "target", "role", "context", "_text")

    @property
    def text(self) -> str:
        """Canonical rendering ``(a,b):r@U``, computed on first use."""
        if self._text is None:
            _set(self, "_text", f"({self.subject},{self.target}):{self.role}@{self.context}")
        return self._text

    def at(self, context: str) -> "RoleAssertion":
        """The same assertion at *context*."""
        return RoleAssertion(self.subject, self.target, self.role, context)


Assertion = Union[ConceptAssertion, RoleAssertion]


class KnowledgeState(Record):
    """The pair a program run transforms: fixed inclusions, current assertions."""

    __slots__ = ("tbox", "abox", "_lines")

    def with_abox(self, abox: Iterable[Assertion]) -> "KnowledgeState":
        return KnowledgeState(self.tbox, frozenset(abox))

    @property
    def lines(self) -> tuple[str, ...]:
        """``canonical_abox(self.abox)``, sorted on first use and kept."""
        if self._lines is None:
            _set(self, "_lines", tuple(canonical_abox(self.abox)))
        return self._lines

    @property
    def digest(self) -> str:
        """``abox_digest(self.abox)``, joined from the kept lines."""
        return ";".join(self.lines)

    def updated(
        self, additions: Iterable[Assertion], deletions: Iterable[Assertion] = ()
    ) -> "KnowledgeState":
        """The state whose fact set is ``(abox | additions) - deletions``.

        Its lines come from this state's: the text of each deletion that was
        present is removed and the text of each addition that was absent is
        inserted, by bisection, with no sort and no render of the rest.
        """
        deletions = frozenset(deletions)
        removed = deletions & self.abox
        added = frozenset(additions) - deletions - self.abox
        if not removed and not added:
            return self
        lines = list(self.lines)
        for a in removed:
            del lines[bisect_left(lines, a.text)]
        for a in added:
            insort(lines, a.text)
        abox = self.abox - removed if removed else self.abox  # each set operation copies
        child = KnowledgeState(self.tbox, abox | added if added else abox)
        _set(child, "_lines", tuple(lines))
        return child


def render_assertion(a: Assertion) -> str:
    return a.text


def parse_assertion(text: str, sig: Signature) -> Assertion:
    """Parse one assertion; contexts are validated against the signature."""
    ts = TokenStream(tokenize(text))
    a = parse_assertion_stream(ts, sig)
    ts.expect_end()
    return a


def parse_assertion_stream(ts: TokenStream, sig: Signature) -> Assertion:
    if ts.peek().kind == "(":
        ts.next()
        subject = _individual(ts, sig)
        ts.expect(",")
        target = _individual(ts, sig)
        ts.expect(")")
        ts.expect(":")
        role = ts.expect(IDENT, "a role name")
        if role.text not in sig.role_names:
            raise UnknownNameError(f"unknown role name {role.text!r}", role.line, role.col)
        ts.expect("@")
        return RoleAssertion(subject, target, role.text, _context(ts, sig))
    individual = _individual(ts, sig)
    ts.expect(":")
    concept = parse_concept_stream(ts, sig)
    ts.expect("@")
    return ConceptAssertion(individual, concept, _context(ts, sig))


def _individual(ts: TokenStream, sig: Signature) -> str:
    tok = ts.expect(IDENT, "an individual name")
    if tok.text not in sig.individual_names:
        raise UnknownNameError(f"unknown individual name {tok.text!r}", tok.line, tok.col)
    return tok.text


def _context(ts: TokenStream, sig: Signature) -> str:
    tok = ts.expect(IDENT, "a context name")
    if tok.text not in sig.context_names:
        raise UnknownNameError(f"unknown context name {tok.text!r}", tok.line, tok.col)
    return tok.text


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
    v, head = wanted.context, wanted._values(wanted)[:-1]  # context is the last field
    return any(poset.leq(v, u) and type(wanted).existing(*head, u) in abox for u in poset.contexts)


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
