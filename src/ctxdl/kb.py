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
every digest is kept. Beside the digest, a state keeps whether JSON
writes it unchanged (a private flag, ``_plain``): the sort checks the
whole string once, a splice only the lines it adds, and a session log
writes a plain digest verbatim, with no scan and no copy.

A ``KnowledgeState`` is never changed. Every change goes through a
``WorkingState``, which a run (an agent's interaction, an oracle session,
a program evaluation) changes in place. It copies nothing from the state
it starts from, its base: it keeps two net deltas, the assertions present
now that the base lacks and the base's assertions absent now, so
``apply``, ``add`` and ``discard`` each cost a set update of their own
assertions, and a run pays for its changes, not for the base's fact set.
Its ``abox`` is a read-only view of ``(base - removed) | added``. It is
the one kind of state that splices: when its digest is read, the line of
each removed assertion is taken out of the base's lines and each added
one put in, each placed by ``bisect.bisect_left``. One join of the
untouched stretches, sliced by offset, and the added lines builds the
result. Once the deltas outnumber the square root of the fact set, the
fact set becomes the base, with the lines merged in that splice, and the
deltas are cleared. ``freeze`` gives a plain ``KnowledgeState`` at the
end, which sorts its own digest if it is read.

Guard satisfaction has two modes. ``literal`` checks raw membership of the
asserted fact in the current fact set. ``saturated`` additionally accepts a
fact at context V whenever it is asserted at some supercontext U >= V, i.e.
membership in the downward-closed saturation. Saturation is computed on
demand and never stored, so deletion stays plain set difference. A saturated
guard atom keeps its lifts on the guard node, for the last poset it was
tested under: the assertion at each declared supercontext of V. A test is
then one membership lookup per lift, with no node looked up or built, and
not a scan of the fact set; the lifts live exactly as long as the guard.

A subsumption atom ``C <= D`` is one call to ``reasoner.decide``, which
decides it over the state's TBox once and keeps the verdict there; this
module builds no concept for it and keeps nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Set
from itertools import accumulate, chain, filterfalse
from typing import AbstractSet, Callable, Iterable, Iterator, Union

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


def _json_plain(text: str) -> bool:
    """Whether ``json.dumps(text)`` is *text* in quotes: ASCII, with none of
    the 35 characters JSON escapes (the controls, DEL, ``"`` and ``\\``);
    for ASCII text, ``isprintable`` rules out exactly the controls and DEL."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


class KnowledgeState(Record):
    """The pair a program run transforms: fixed inclusions, current assertions."""

    __slots__ = ("tbox", "abox", "_digest", "_plain", "_index")

    def __init__(self, tbox: TBox, abox: frozenset[Assertion]):
        _set(self, "tbox", tbox)
        _set(self, "abox", abox)
        _set(self, "_digest", None)
        _set(self, "_plain", None)  # whether JSON writes the kept digest unchanged
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
            _keep(self, digest, _json_plain(digest), lines)
        return self._digest


def _keep(state: KnowledgeState, digest: str, plain: bool, lines: list[str]) -> KnowledgeState:
    """*state*, keeping *digest*, whether it is *plain* for JSON, and its
    index: its *lines*, in order, and the length of the lines before each,
    then of all. Line i starts at ``ahead[i] + i``, after i ';', whatever
    the lines hold."""
    _set(state, "_digest", digest)
    _set(state, "_plain", plain)
    _set(state, "_index", (tuple(lines), tuple(accumulate(map(len, lines), initial=0))))
    return state


class _Facts(Set):
    """The fact set of a ``WorkingState``, read-only: ``(base - removed) | added``.

    It holds the base's fact set and the two deltas, which the working
    state changes in place and keeps disjoint (``added`` outside the base,
    ``removed`` inside it), so the view is always current. Membership is at
    most three lookups, the length is arithmetic, and iteration walks the
    base, skipping the removed, then the added. ``collections.abc.Set``
    gives ``==`` and the other comparisons; its set operators return
    frozensets.
    """

    __slots__ = ("_base", "_added", "_removed")

    _from_iterable = frozenset

    def __init__(self, base: frozenset[Assertion], added: set[Assertion], removed: set[Assertion]):
        self._base, self._added, self._removed = base, added, removed

    def __contains__(self, assertion) -> bool:
        return assertion in self._added or (assertion in self._base and assertion not in self._removed)

    def __iter__(self) -> Iterator[Assertion]:
        return chain(filterfalse(self._removed.__contains__, self._base), self._added)

    def __len__(self) -> int:
        return len(self._base) - len(self._removed) + len(self._added)


class WorkingState:
    """A fact set that one run changes: the inclusions, a base state and
    two net deltas over the base's fact set.

    ``_added`` holds the assertions present now and absent from the base,
    ``_removed`` the base's assertions absent now. Making one from a
    ``KnowledgeState``, its first base, copies nothing; ``apply``, ``add``
    and ``discard`` update the deltas and drop the digest read last, and
    ``abox`` is a read-only view of ``(base.abox - removed) | added``.
    ``digest`` splices the next digest from the base's when it is read
    (``_spliced``), and ``_plain`` is whether JSON writes it unchanged;
    ``freeze`` gives a plain ``KnowledgeState``.
    """

    __slots__ = ("tbox", "abox", "_base", "_added", "_removed", "_digest", "_plain")

    def __init__(self, state: KnowledgeState):
        self.tbox = state.tbox
        self._base = state
        self._added: set[Assertion] = set()
        self._removed: set[Assertion] = set()
        self.abox: AbstractSet[Assertion] = _Facts(state.abox, self._added, self._removed)
        self._digest, self._plain = state._digest, state._plain

    @property
    def digest(self) -> str:
        """``abox_digest(self.abox)``, spliced when read and kept until the next write."""
        if self._digest is None:
            self._digest, self._plain = self._spliced()
        return self._digest

    def apply(self, additions: Iterable[Assertion], deletions: Iterable[Assertion] = ()) -> None:
        """Make the fact set ``(abox | additions) - deletions``."""
        deletions = frozenset(deletions)
        additions = frozenset(additions) - deletions
        base, added, removed = self._base.abox, self._added, self._removed
        new, back = additions - base - added, additions & removed
        gone, dropped = deletions & added, (deletions & base) - removed
        if new or back or gone or dropped:
            added -= gone
            added |= new
            removed -= back
            removed |= dropped
            self._digest = None

    def add(self, assertion: Assertion) -> bool:
        """Add one assertion; whether it was absent."""
        if assertion in self._removed:
            self._removed.remove(assertion)
        elif assertion in self._added or assertion in self._base.abox:
            return False
        else:
            self._added.add(assertion)
        self._digest = None
        return True

    def discard(self, assertion: Assertion) -> bool:
        """Remove one assertion; whether it was present."""
        if assertion in self._added:
            self._added.remove(assertion)
        elif assertion in self._removed or assertion not in self._base.abox:
            return False
        else:
            self._removed.add(assertion)
        self._digest = None
        return True

    def freeze(self) -> KnowledgeState:
        """The state of the fact set as it is now; it sorts its own digest if read."""
        return KnowledgeState(self.tbox, (self._base.abox - self._removed) | self._added)

    def _spliced(self) -> tuple[str, bool]:
        """The digest of the fact set, spliced from the one the base keeps,
        and whether it is plain for JSON: when the base's is and each added
        line is.

        The removed assertions' lines are taken out and the added ones'
        put in, each placed by ``bisect_left`` over the base's lines; one
        join of the untouched stretches, sliced at their offsets, and the
        added lines builds the result.

        A splice costs a bisection per assertion in the deltas. So once
        they outnumber the square root of the fact set, the fact set
        becomes the base: a new state that keeps the spliced digest, and
        the lines merged in the same pass from the old base's and the added
        ones, with no split and no sort; the deltas are cleared. That
        bounds a long session's cost per digest by the root, not by its
        length.
        """
        base, added, removed = self._base, self._added, self._removed
        digest, (lines, ahead) = base.digest, base._index  # sorted on the base's first use
        if not added and not removed:
            return digest, base._plain
        new = [a.text for a in added]
        rebase = (len(added) + len(removed)) ** 2 > len(self.abox)
        edits = [(bisect_left(lines, a.text), 1, a.text) for a in removed]
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
        plain = base._plain and _json_plain("".join(new))
        if rebase:
            merged += lines[pos:]
            self._base = _keep(self.freeze(), spliced, plain, merged)
            self.abox._base = self._base.abox
            added.clear()
            removed.clear()
        return spliced, plain


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
    __slots__ = ("assertion", "_lifts")  # _lifts: (poset, the assertion at each of its supercontexts)


class SubsumeGuard(Node):
    __slots__ = ("lhs", "rhs")


class GuardNot(Node):
    __slots__ = ("child",)


class GuardAnd(Node):
    __slots__ = ("left", "right")


Guard = Union[Truth, Falsity, AssertGuard, SubsumeGuard, GuardNot, GuardAnd]

TRUE_GUARD = Truth()
FALSE_GUARD = Falsity()


def _holds_saturated(abox: AbstractSet[Assertion], guard: AssertGuard, poset: ContextPoset) -> bool:
    # Membership in saturate(abox) without materializing the closure: whether
    # the assertion at some supercontext is in abox. The guard keeps those
    # lifts for the last poset it was tested under, so they live as long as
    # the guard does.
    kept = guard._lifts
    if kept is None or kept[0] is not poset:
        a = guard.assertion
        kept = (poset, frozenset(a.at(u) for u in poset.above(a.context)))
        _set(guard, "_lifts", kept)
    return any(map(abox.__contains__, kept[1]))


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
                value = _holds_saturated(state.abox, guard, poset)
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
