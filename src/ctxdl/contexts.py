"""Finite partial orders of contexts and their declared covering families.

The order is declared as pairs ``(v, u)`` meaning "v is a subcontext of u"
and closed reflexively and transitively at construction. The poset is stored
as its down-sets, one per context: ``below(u)`` holds every subcontext of u,
u included, and every order query reads that map, except ``above(v)``,
which reads the up-sets derived from it once. Cycles between distinct names
violate antisymmetry and are rejected at load time.
"""

from __future__ import annotations

from typing import Iterable

from ctxdl.errors import UnknownNameError
from ctxdl.values import Record


class Covering(Record):
    """A declared covering family: *members* jointly cover *target*.

    Members are deduplicated preserving declaration order.
    """

    __slots__ = ("target", "members")

    def __init__(self, target: str, members: Iterable[str]):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "members", tuple(dict.fromkeys(members)))


class ContextPoset:
    """Immutable finite poset over declared context names."""

    def __init__(self, contexts: Iterable[str], leq_pairs: Iterable[tuple[str, str]] = ()):
        self._contexts = frozenset(contexts)
        declared = list(leq_pairs)
        for v, u in declared:
            self._check_declared(v, u)
        self._below = self._close(declared)
        self._check_antisymmetry()
        self._above = {v: frozenset(u for u, down in self._below.items() if v in down) for v in self._contexts}

    def _close(self, declared: list[tuple[str, str]]) -> dict[str, frozenset[str]]:
        below: dict[str, set[str]] = {u: {u} for u in self._contexts}
        for v, u in declared:
            below[u].add(v)
        # Warshall's transitive closure, one down-set row per context.
        for k in self._contexts:
            for u in self._contexts:
                if k in below[u]:
                    below[u] |= below[k]
        return {u: frozenset(down) for u, down in below.items()}

    def _check_antisymmetry(self) -> None:
        for v, u in sorted(self.leq_pairs):
            if v != u and u in self._below[v]:
                raise ValueError(f"order cycle between contexts {v!r} and {u!r}")

    @property
    def contexts(self) -> frozenset[str]:
        return self._contexts

    @property
    def leq_pairs(self) -> frozenset[tuple[str, str]]:
        """The reflexive-transitive closure of the declared pairs."""
        return frozenset((v, u) for u, down in self._below.items() for v in down)

    def _check_declared(self, *names: str) -> None:
        for name in names:
            if name not in self._contexts:
                raise UnknownNameError(f"unknown context {name!r}")

    def below(self, u: str) -> frozenset[str]:
        """Every subcontext of *u*, *u* included."""
        self._check_declared(u)
        return self._below[u]

    def above(self, v: str) -> frozenset[str]:
        """Every supercontext of *v*, *v* included."""
        self._check_declared(v)
        return self._above[v]

    def leq(self, v: str, u: str) -> bool:
        """True iff *v* is a subcontext of *u* (reflexive, transitive)."""
        self._check_declared(v, u)
        return v in self._below[u]

    def lower_bounds(self, u: str, v: str) -> frozenset[str]:
        return self.below(u) & self.below(v)

    def meet(self, u: str, v: str) -> str | None:
        """The greatest lower bound of *u* and *v*, or None if it does not exist.

        A finite poset has a greatest lower bound exactly when the set of
        common lower bounds has a unique maximal element.
        """
        bounds = self.lower_bounds(u, v)
        maximal = [
            w
            for w in bounds
            if not any(x != w and w in self._below[x] for x in bounds)
        ]
        if len(maximal) == 1:
            return maximal[0]
        return None


def validate_covering(poset: ContextPoset, cov: Covering) -> list[str]:
    """Check a covering against the poset; returns a list of violations (empty = ok)."""
    violations: list[str] = []
    if not cov.members:
        violations.append("empty covering")
        return violations
    if cov.target not in poset.contexts:
        violations.append(f"unknown target context {cov.target!r}")
        return violations
    for member in cov.members:
        if member not in poset.contexts:
            violations.append(f"unknown member context {member!r}")
        elif not poset.leq(member, cov.target):
            violations.append(f"member {member!r} is not a subcontext of {cov.target!r}")
    return violations
