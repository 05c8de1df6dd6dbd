"""Contextual assertions, knowledge states, saturation, and guard evaluation.

Assertions are written ``a : C @ U`` (individual, concept, context) and
``(a, b) : r @ U`` (role between two individuals, context). The canonical
rendering drops the optional whitespace: ``a:C@U`` / ``(a,b):r@U``; sorting
those strings gives the canonical order used by state dumps and digests.
Each assertion object renders its text once, on first use, and keeps it:
a digest of a fact set whose assertions were rendered before is a sort and
join of stored strings. The text is not a field, so equality, hashing and
``replace`` ignore it, and a ``replace`` copy renders its own.

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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import AbstractSet, Iterable, Union

from ctxdl.concepts import (
    ConceptExpr,
    Signature,
    parse_concept_stream,
    print_concept,
)
from ctxdl.contexts import ContextPoset
from ctxdl.errors import UnknownNameError
from ctxdl.lexer import IDENT, TokenStream, tokenize
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, TBox, subsumes

GUARD_MODES = ("literal", "saturated")


@dataclass(frozen=True)
class ConceptAssertion:
    individual: str
    concept: ConceptExpr
    context: str

    @cached_property
    def text(self) -> str:
        """Canonical rendering ``a:C@U``, computed on first use."""
        return f"{self.individual}:{print_concept(self.concept)}@{self.context}"


@dataclass(frozen=True)
class RoleAssertion:
    subject: str
    target: str
    role: str
    context: str

    @cached_property
    def text(self) -> str:
        """Canonical rendering ``(a,b):r@U``, computed on first use."""
        return f"({self.subject},{self.target}):{self.role}@{self.context}"


Assertion = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class KnowledgeState:
    """The pair a program run transforms: fixed inclusions, current assertions."""

    tbox: TBox
    abox: frozenset[Assertion]

    def with_abox(self, abox: Iterable[Assertion]) -> "KnowledgeState":
        return replace(self, abox=frozenset(abox))

    @cached_property
    def lines(self) -> tuple[str, ...]:
        """``canonical_abox(self.abox)``, sorted on first use and kept."""
        return tuple(canonical_abox(self.abox))

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
        child.__dict__["lines"] = tuple(lines)  # where cached_property keeps it
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
        out.update(replace(a, context=v) for v in poset.below(a.context))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class Falsity:
    pass


@dataclass(frozen=True)
class AssertGuard:
    assertion: Assertion


@dataclass(frozen=True)
class SubsumeGuard:
    lhs: ConceptExpr
    rhs: ConceptExpr


@dataclass(frozen=True)
class GuardNot:
    child: "Guard"


@dataclass(frozen=True)
class GuardAnd:
    left: "Guard"
    right: "Guard"


Guard = Union[Truth, Falsity, AssertGuard, SubsumeGuard, GuardNot, GuardAnd]

TRUE_GUARD = Truth()
FALSE_GUARD = Falsity()


def _holds_saturated(abox: AbstractSet[Assertion], wanted: Assertion, poset: ContextPoset) -> bool:
    # Membership in saturate(abox) without materializing the closure.
    v = wanted.context
    return any(poset.leq(v, u) and replace(wanted, context=u) in abox for u in poset.contexts)


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
