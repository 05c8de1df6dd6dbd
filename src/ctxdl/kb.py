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

A knowledge state keeps its digest the same way: the first time it is
needed, it sorts its fact set once (``canonical_abox``) and keeps the
digest together with the lines it sorted and their offsets. The kept
digest is exactly what ``abox_digest`` gives for the fact set, and
``lines`` what ``canonical_abox`` gives; the digest format is unchanged.
The lines are kept apart from the string, so a line that holds a ``;``
(only names built in the library can) leaves nothing ambiguous, and
every digest is kept. A digest that JSON writes unchanged is a
``Digest``, a ``str`` subclass: the sort checks the whole string once,
a splice only the lines it adds, and a session log writes it verbatim.

A ``KnowledgeState`` is never changed. Every change goes through a
``WorkingState``, which a run (an agent's interaction, an oracle session,
a program evaluation) changes in place: it copies the fact set of the
state it starts from once, into a ``set``, and notes each assertion it
writes, so ``apply``, ``add`` and ``discard`` each cost a set update. It
is the one kind of state that splices: it keeps a base, the state whose
digest it splices from, and the assertions touched since. When its
digest is read, each touched line that the base holds and the working
state does not is removed, each one it holds and the base does not is
added, and each is placed by ``bisect.bisect_left`` over the base's
lines. One join of the untouched stretches, sliced by offset, and the
added lines builds the result, so a run of small updates pays for its
changes, not for the whole fact set. Once the touched assertions
outnumber the square root of the fact set, the fact set becomes the
base, with the lines merged in that splice. ``freeze`` gives a plain
``KnowledgeState`` at the end, which sorts its own digest if it is read.

Guard satisfaction has two modes. ``literal`` checks raw membership of the
asserted fact in the current fact set. ``saturated`` additionally accepts a
fact at context V whenever it is asserted at some supercontext U >= V, i.e.
membership in the downward-closed saturation. Saturation is computed on
demand and never stored, so deletion stays plain set difference; a saturated
guard atom costs one membership lookup per declared supercontext of V, not a
scan of the fact set.

A subsumption atom ``C <= D`` is one call to ``reasoner.decide``, which
decides it over the state's TBox once and keeps the verdict there; this
module builds no concept for it and keeps nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import AbstractSet, Callable, Iterable, Union

from ctxdl.concepts import Atomic, Signature, expect_name, parse_concept_stream, print_concept
from ctxdl.contexts import ContextPoset
from ctxdl.lexer import END, TokenStream, parse_whole
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, TBox, decide
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


class Digest(str):
    """A digest that JSON writes unchanged: ASCII, with none of the 35
    characters JSON escapes (the controls, DEL, ``"`` and ``\\``).

    The type marks the text the way markupsafe's ``Markup`` marks text that
    needs no escaping: a session log writes a ``Digest`` as it is, without
    scanning it again. A sorted digest is checked once, when it is sorted,
    and a spliced one by its added lines only.
    """

    __slots__ = ()


def _json_plain(text: str) -> bool:
    """Whether ``json.dumps(text)`` is *text* in quotes; for ASCII text,
    ``isprintable`` rules out exactly the controls and DEL."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text



class KnowledgeState(Record):
    """The pair a program run transforms: fixed inclusions, current assertions."""

    __slots__ = ("tbox", "abox", "_digest", "_index")

    def __init__(self, tbox: TBox, abox: frozenset[Assertion]):
        _set(self, "tbox", tbox)
        _set(self, "abox", abox)
        _set(self, "_digest", None)
        _set(self, "_index", None)  # the kept digest's lines and offsets (_keep)

    def with_abox(self, abox: Iterable[Assertion]) -> "KnowledgeState":
        return KnowledgeState(self.tbox, frozenset(abox))

    @property
    def lines(self) -> tuple[str, ...]:
        """``canonical_abox(self.abox)``, the digest's lines, kept with it."""
        self.digest  # sorted on first use
        return self._index[0]

    @property
    def digest(self) -> str:
        """``abox_digest(self.abox)``, sorted on first use and kept with its lines."""
        if self._digest is None:
            lines = canonical_abox(self.abox)
            digest = ";".join(lines)
            _keep(self, Digest(digest) if _json_plain(digest) else digest, lines)
        return self._digest


def _keep(state: KnowledgeState, digest: str, lines: list[str]) -> KnowledgeState:
    """*state*, keeping *digest* and its index: its *lines*, in order, and
    the length of the lines before each, then of all. Line i starts at
    ``ahead[i] + i``, after i ';', whatever the lines hold."""
    _set(state, "_digest", digest)
    _set(state, "_index", (tuple(lines), tuple(accumulate(map(len, lines), initial=0))))
    return state


class WorkingState:
    """A fact set that one run changes in place: the inclusions, a ``set``
    of assertions, a base state and the assertions written since.

    It is made from a ``KnowledgeState``, its first base, with one copy of
    the fact set. ``apply``, ``add`` and ``discard`` change the set, note
    the written assertions and drop the digest read last; ``digest``
    splices the next one from the base's when it is read (``_spliced``).
    ``freeze`` gives a plain ``KnowledgeState`` of the set.
    """

    __slots__ = ("tbox", "abox", "_base", "_touched", "_digest")

    def __init__(self, state: KnowledgeState):
        self.tbox = state.tbox
        self.abox = set(state.abox)
        self._base = state
        self._touched = set()
        self._digest = state._digest

    @property
    def digest(self) -> str:
        """``abox_digest(self.abox)``, spliced when read and kept until the next write."""
        if self._digest is None:
            self._digest = self._spliced()
        return self._digest

    def apply(self, additions: Iterable[Assertion], deletions: Iterable[Assertion] = ()) -> None:
        """Make the fact set ``(abox | additions) - deletions``."""
        deletions = frozenset(deletions)
        removed, added = deletions & self.abox, frozenset(additions) - deletions - self.abox
        if removed or added:
            self.abox -= removed
            self.abox |= added
            self._touched |= removed | added
            self._digest = None

    def add(self, assertion: Assertion) -> bool:
        """Add one assertion; whether it was absent."""
        if assertion in self.abox:
            return False
        self.abox.add(assertion)
        self._touched.add(assertion)
        self._digest = None
        return True

    def discard(self, assertion: Assertion) -> bool:
        """Remove one assertion; whether it was present."""
        if assertion not in self.abox:
            return False
        self.abox.remove(assertion)
        self._touched.add(assertion)
        self._digest = None
        return True

    def freeze(self) -> KnowledgeState:
        """The state of the fact set as it is now; it sorts its own digest if read."""
        return KnowledgeState(self.tbox, frozenset(self.abox))

    def _spliced(self) -> str:
        """The digest of the fact set, spliced from the one the base keeps.

        The touched assertions that the base holds and the set does not are
        removed, those the set holds and the base does not are added. Each
        is placed by ``bisect_left`` over the base's lines; one join of the
        untouched stretches, sliced at their offsets, and the added lines
        builds the result. It is a ``Digest`` when the base's is and each
        added line is plain for JSON.

        A splice costs a bisection and two lookups per touched assertion.
        So once the touched assertions outnumber the square root of the
        fact set, the set becomes the base: a copy of it that keeps the
        spliced digest, and the lines merged in the same pass from the old
        base's and the added ones, with no split and no sort. That bounds a
        long session's cost per digest by the root, not by its length.
        """
        base = self._base
        digest, (lines, ahead) = base.digest, base._index  # sorted on the base's first use
        touched, before, abox = self._touched, base.abox, self.abox  # set algebra reuses the stored hashes
        gone = [a.text for a in (touched - abox) & before]
        new = [a.text for a in (touched & abox) - before]
        if not gone and not new:
            touched.clear()  # the set is the base's again
            return digest
        rebase = len(touched) ** 2 > len(abox)
        edits = [(bisect_left(lines, text), 1, text) for text in gone]
        edits += [(bisect_left(lines, text), 0, text) for text in new]
        pieces, merged, pos = [], [], 0  # the digest's pieces, the new base's lines; lines from pos on are not yet copied
        for i, removing, text in sorted(edits):  # at one line: insertions, in order, then its removal
            if i > pos:
                pieces.append(digest[ahead[pos] + pos : ahead[i] + i - 1])  # untouched lines, without the ';' after them
                if rebase:
                    merged += lines[pos:i]
            if not removing:
                pieces.append(text)
                merged.append(text)
            pos = i + removing
        if pos < len(lines):
            pieces.append(digest[ahead[pos] + pos :])
        spliced = ";".join(pieces)
        if isinstance(digest, Digest) and _json_plain("".join(new)):
            spliced = Digest(spliced)
        if rebase:
            merged += lines[pos:]
            self._base = _keep(KnowledgeState(self.tbox, frozenset(abox)), spliced, merged)
            self._touched = set()
        return spliced


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
    return parse_whole(text, parse_assertion_stream, sig)


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
    return parse_whole(text, parse_fact_list_stream, sig)


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
    state: Union[KnowledgeState, WorkingState],
    guard: Guard,
    mode: str = "literal",
    poset: ContextPoset | None = None,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Decide whether *state* satisfies *guard*.

    *state* is read through its ``tbox`` and its ``abox``, which may be any
    set of assertions: program evaluation passes its ``WorkingState``.
    Assertion atoms test membership (literal mode) or saturated membership
    (saturated mode, which requires the context poset). A subsumption atom
    is one call to ``reasoner.decide``, which may raise
    BudgetExceededError. The inclusions are immutable, so a TBox decides
    each atom once, and every later test of the atom over that TBox, in
    any run, replay or state, is answered from what it kept, exactly as a
    fresh decision at that budget would answer.

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
    pending: list[GuardNot | GuardAnd] = []
    while True:
        kind = type(guard)  # the most frequent kinds first
        if kind is AssertGuard:
            if mode == "literal":
                value = guard.assertion in state.abox
            else:
                value = _holds_saturated(state.abox, guard.assertion, poset)
        elif kind is GuardAnd or kind is GuardNot:
            pending.append(guard)
            guard = guard.left if kind is GuardAnd else guard.child
            continue
        elif kind is SubsumeGuard:
            value = decide(state.tbox, guard.lhs, guard.rhs, budget)
        elif kind is Truth:
            value = True
        elif kind is Falsity:
            value = False
        else:
            raise TypeError(f"not a guard: {guard!r}")
        # Hand the value up to the innermost compound that needs more work.
        while pending:
            node = pending.pop()
            if type(node) is GuardNot:
                value = not value
            elif value:
                guard = node.right  # the conjunction is now its right side
                break
        else:
            return value
