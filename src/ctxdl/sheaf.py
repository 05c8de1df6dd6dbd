"""Local fact sections over the context poset: restriction, gluing, stability.

A fact is an assertion at no context (``kb.ConceptAssertion`` or
``kb.RoleAssertion`` with context None, written ``a:C`` or ``(a,b):r``):
a section carries the context, so its facts do not. Each context carries
a finite universe of facts (the facts expressible there); a section over
a context is a subset of its universe.
Restricting a section to a subcontext intersects it with the subcontext's
universe. For that to compose along chains (restricting U->V->W must equal
restricting U->W), the universes have to interpolate: whenever W <= V <= U,
a fact expressible at both ends of the chain must be expressible in the
middle, i.e. universe(U) & universe(W) <= universe(V). Construction rejects
universe maps violating this, and the functor law then holds for every
constructible presheaf. Interpolation is weaker than monotonicity in either
direction: a fact may still be expressible in a subcontext but not in its
parent, or vice versa.

Gluing a compatible family over a covering looks for sections of the
target that restrict to every family member. Facts of the target universe
that some member universe can see are forced (present iff the member has
them, contradictions meaning no candidate exists at all); facts no member
can see are free, each subset of them giving one candidate. The result is
therefore Glued exactly when the family is compatible, every forced fact is
consistent, and no free facts remain; the brute-force check over all 2^n
subsets of the target universe agrees with this analysis and is kept in the
test suite as the independent oracle.

Overlaps of two covering members are their meet in the poset; a pair
without a meet imposes no compatibility constraint.

Refinement stability needs no gluing. By interpolation, the restrictions
of one section to the members of a covering always agree on meets and
never force a fact the section lacks, so they glue back to that section
exactly when the member universes jointly cover the target universe,
whatever its facts are.

Global sections and gluing candidates are listed in one canonical order:
with the facts sorted by their text, subset number ``code`` holds fact
i exactly when bit i of ``code`` is set. Listing costs one set union per
subset; the ``Section`` records are filled column by column
(``values.records``), with no Python call per subset.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Union

from ctxdl.contexts import ContextPoset, Covering, validate_covering
from ctxdl.errors import (
    RefinementChainError,
    SearchSpaceError,
    UnknownNameError,
)
from ctxdl.kb import Assertion, canonical_abox, parse_fact_list  # parse_fact_list: perfbench/ reads it from here
from ctxdl.values import Record, records

DEFAULT_MAX_UNIVERSE = 20

_set = object.__setattr__  # writes a field past Record's frozen __setattr__


Fact = Assertion  # a fact is an assertion at context None (see the module docstring)


class Section(Record):
    __slots__ = ("context", "facts")

    def __init__(self, context: str, facts: frozenset[Fact]):
        _set(self, "context", context)
        _set(self, "facts", facts)


class Presheaf:
    """Per-context fact universes over a poset; restriction is intersection.

    Raises ValueError when the universes fail the interpolation condition
    (see the module docstring): such data would break restriction
    composition and is not a presheaf under this encoding.
    """

    def __init__(self, poset: ContextPoset, universes: Mapping[str, Iterable[Fact]]):
        self.poset = poset
        for ctx in universes:
            if ctx not in poset.contexts:
                raise UnknownNameError(f"unknown context {ctx!r}")
        self._universes = {ctx: frozenset(facts) for ctx, facts in universes.items()}
        self._check_interpolation()

    def _check_interpolation(self) -> None:
        # Chains W < V < U in sorted order, so the reported chain is stable.
        for u in sorted(self.poset.contexts):
            for v in sorted(self.poset.below(u) - {u}):
                for w in sorted(self.poset.below(v) - {v}):
                    stranded = (self.universe(u) & self.universe(w)) - self.universe(v)
                    if stranded:
                        fact = min(f.text for f in stranded)
                        raise ValueError(
                            f"universes are not a presheaf: {fact} is expressible at "
                            f"{u!r} and at {w!r} but not at {v!r} in between"
                        )

    def universe(self, ctx: str) -> frozenset[Fact]:
        if ctx not in self.poset.contexts:
            raise UnknownNameError(f"unknown context {ctx!r}")
        return self._universes.get(ctx, frozenset())

    def section(self, ctx: str, facts: Iterable[Fact]) -> Section:
        """Build a validated section: its facts must be in the universe."""
        s = Section(ctx, frozenset(facts))
        _check_section(self, s)
        return s


def restrict(ps: Presheaf, s: Section, v: str) -> Section:
    """Restrict *s* down to subcontext *v*."""
    if not ps.poset.leq(v, s.context):
        raise ValueError(f"{v!r} is not a subcontext of {s.context!r}")
    return Section(v, s.facts & ps.universe(v))


class Conflict(Record):
    """Two family members disagree about *facts* visible at *overlap*."""

    __slots__ = ("left", "right", "overlap", "facts")


def compatible(
    ps: Presheaf, family: list[Section], cov: Covering
) -> tuple[bool, tuple[Conflict, ...]]:
    """Pairwise agreement of the family on overlaps (meets of member pairs)."""
    _check_family(ps, family, cov)
    conflicts: list[Conflict] = []
    for i, si in enumerate(family):
        for sj in family[i + 1 :]:
            m = ps.poset.meet(si.context, sj.context)
            if m is None:
                continue
            ri = restrict(ps, si, m).facts
            rj = restrict(ps, sj, m).facts
            if ri != rj:
                conflicts.append(Conflict(si.context, sj.context, m, ri ^ rj))
    return not conflicts, tuple(conflicts)


class Glued(Record):
    __slots__ = ("section",)


class Incompatible(Record):
    __slots__ = ("conflicts",)


class NonUnique(Record):
    __slots__ = ("candidates",)


GluingResult = Union[Glued, Incompatible, NonUnique]


def glue(
    ps: Presheaf,
    family: list[Section],
    cov: Covering,
    *,
    max_universe: int = DEFAULT_MAX_UNIVERSE,
) -> GluingResult:
    """Glue a family over a covering, checking existence and uniqueness.

    The candidates are exactly the sections of the target whose restriction
    to each member reproduces that member's section; zero, one, and several
    candidates map to Incompatible, Glued, and NonUnique (all candidates
    listed in canonical order). *max_universe* bounds only that listing:
    more free facts than that raise SearchSpaceError, whatever the size of
    the target universe. When the family is compatible but no candidate
    exists, Incompatible lists one conflict per obstructing fact, member by
    member in family order: those of a member's own facts first, then those
    of the facts it leaves out, each group sorted by text.
    """
    ok, conflicts = compatible(ps, family, cov)
    if not ok:
        return Incompatible(conflicts)
    target_univ = ps.universe(cov.target)
    forced_in: set[Fact] = set()
    forced_out: set[Fact] = set()
    first_seen: dict[Fact, str] = {}
    # The sets are walked in node-hash order, which follows addresses, so
    # each obstruction waits under its (member, group, text) key and only
    # the keys are compared.
    obstructions: list[tuple[tuple[int, int, str], Conflict]] = []
    for i, sec in enumerate(family):
        visible = ps.universe(sec.context)
        for f in sec.facts:
            if f not in target_univ:
                # No target section can restrict to contain f.
                conflict = Conflict(sec.context, cov.target, cov.target, frozenset({f}))
                obstructions.append(((i, 0, f.text), conflict))
            elif f in forced_out:
                conflict = Conflict(first_seen[f], sec.context, cov.target, frozenset({f}))
                obstructions.append(((i, 0, f.text), conflict))
            else:
                forced_in.add(f)
                first_seen.setdefault(f, sec.context)
        for f in (visible & target_univ) - sec.facts:
            if f in forced_in:
                conflict = Conflict(first_seen[f], sec.context, cov.target, frozenset({f}))
                obstructions.append(((i, 1, f.text), conflict))
            else:
                forced_out.add(f)
                first_seen.setdefault(f, sec.context)
    if obstructions:
        obstructions.sort(key=itemgetter(0))
        return Incompatible(tuple(map(itemgetter(1), obstructions)))
    free = target_univ - forced_in - forced_out
    base = frozenset(forced_in)
    if not free:
        return Glued(Section(cov.target, base))
    if len(free) > max_universe:
        raise SearchSpaceError(
            f"gluing over {cov.target!r} leaves {len(free)} facts free, so "
            f"2^{len(free)} candidates, above the listing limit of {max_universe}"
        )
    extras = _subsets_in_order(free)
    candidates = records(Section, len(extras), repeat(cov.target), map(base.__or__, extras))
    return NonUnique(tuple(candidates))


def _subsets_in_order(facts: Iterable[Fact]) -> list[frozenset[Fact]]:
    """All subsets in canonical order (see the module docstring), built by
    doubling: after fact i the list holds codes 0 to 2^(i+1) - 1 at their
    own index, and each subset costs one set union."""
    out = [frozenset()]
    for f in sorted(facts, key=attrgetter("text")):
        single = frozenset((f,))
        out += [s | single for s in out]
    return out


def _check_covering(ps: Presheaf, cov: Covering) -> None:
    bad = validate_covering(ps.poset, cov)
    if bad:
        raise ValueError(f"invalid covering of {cov.target!r}: " + "; ".join(bad))


def _check_section(ps: Presheaf, s: Section) -> None:
    stray = s.facts - ps.universe(s.context)
    if stray:
        names = ", ".join(canonical_abox(stray))
        raise ValueError(f"section at {s.context!r} leaves its universe: {names}")


def _check_family(ps: Presheaf, family: list[Section], cov: Covering) -> None:
    _check_covering(ps, cov)
    got = [s.context for s in family]
    if sorted(got) != sorted(cov.members):
        raise ValueError(
            f"family contexts {sorted(got)} do not match covering members "
            f"{sorted(cov.members)}"
        )
    for s in family:
        _check_section(ps, s)


def stable_under_refinement(
    ps: Presheaf, s: Section, refinements: list[Covering]
) -> tuple[bool, Covering | None]:
    """Check that *s* survives every refinement stage.

    Coverings are processed in order; each must cover the section's own
    context or a member context reached by an earlier stage. A stage glues
    its restrictions back to the reached section exactly when the member
    universes jointly cover the target universe (see the module docstring),
    so the verdict is the same for every section over ``s.context``: the
    first covering that fails is returned. A covering of an unreached
    context is a chain error; a section leaving its universe or an invalid
    covering is a ValueError.
    """
    _check_section(ps, s)
    reached = {s.context}
    for cov in refinements:
        if cov.target not in reached:
            raise RefinementChainError(
                f"covering of {cov.target!r} does not attach to any reached context"
            )
        _check_covering(ps, cov)
        covered = frozenset().union(*(ps.universe(m) for m in cov.members))
        if not ps.universe(cov.target) <= covered:
            return False, cov
        reached.update(cov.members)
    return True, None


def global_sections(
    ps: Presheaf,
    top: str,
    coverings: list[Covering],
    *,
    max_universe: int = DEFAULT_MAX_UNIVERSE,
) -> list[Section]:
    """All sections over *top* stable under the given refinement coverings.

    Stability does not depend on the section's facts, so the result is
    all-or-nothing: every subset of the top universe in canonical order, or
    none. *max_universe* bounds only that listing: an unstable top returns
    [] whatever the size of its universe.
    """
    stable, _ = stable_under_refinement(ps, Section(top, frozenset()), coverings)
    if not stable:
        return []
    univ = ps.universe(top)
    if len(univ) > max_universe:
        raise SearchSpaceError(
            f"universe of {top!r} has {len(univ)} facts, above the limit of {max_universe}"
        )
    subsets = _subsets_in_order(univ)
    return records(Section, len(subsets), repeat(top), subsets)


def chain_from(poset_coverings: list[Covering], top: str) -> list[Covering]:
    """The sub-list of coverings reachable from *top*, in declaration order.

    Convenience for drivers that keep one covering list per document: keeps
    exactly the coverings usable as refinement stages starting at *top*.
    """
    reached = {top}
    chain = []
    for cov in poset_coverings:
        if cov.target in reached:
            chain.append(cov)
            reached.update(cov.members)
    return chain
