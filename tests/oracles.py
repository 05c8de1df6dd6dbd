"""Independent brute-force implementations the engine is checked against.

These share no code with the engine paths they verify: the derivation
search walks the big-step rules as a nondeterministic proof search, the
gluing oracle tries all 2^n candidate subsets literally, and the stability
oracle re-glues every refinement stage with it.
"""

from __future__ import annotations

from itertools import chain, combinations

from ctxdl.errors import RefinementChainError
from ctxdl.kb import KnowledgeState, guard_sat
from ctxdl.programs import Add, Del, If, Program, Seq, Skip, While
from ctxdl.sheaf import Covering, Presheaf, Section, compatible


def derivations(prog: Program, state: KnowledgeState, depth: int, mode="literal", poset=None):
    """All (final_state, rule_applications) derivable within *depth* applications.

    Tries every big-step rule whose conclusion matches the program shape and
    checks its premises recursively; a deterministic semantics must make this
    set empty or a singleton.
    """
    results: set[tuple[KnowledgeState, int]] = set()
    if depth < 1:
        return results
    if isinstance(prog, Skip):
        results.add((state, 1))
    elif isinstance(prog, Add):
        results.add((state.with_abox(state.abox | {prog.assertion}), 1))
    elif isinstance(prog, Del):
        results.add((state.with_abox(state.abox - {prog.assertion}), 1))
    elif isinstance(prog, Seq):
        for mid, n1 in derivations(prog.first, state, depth - 1, mode, poset):
            for final, n2 in derivations(prog.second, mid, depth - 1 - n1, mode, poset):
                if 1 + n1 + n2 <= depth:
                    results.add((final, 1 + n1 + n2))
    elif isinstance(prog, If):
        # Both conditional rules, each gated by its guard premise.
        if guard_sat(state, prog.guard, mode, poset):
            for final, n in derivations(prog.then_branch, state, depth - 1, mode, poset):
                results.add((final, 1 + n))
        if not guard_sat(state, prog.guard, mode, poset):
            for final, n in derivations(prog.else_branch, state, depth - 1, mode, poset):
                results.add((final, 1 + n))
    elif isinstance(prog, While):
        if not guard_sat(state, prog.guard, mode, poset):
            results.add((state, 1))
        if guard_sat(state, prog.guard, mode, poset):
            for mid, n1 in derivations(prog.body, state, depth - 1, mode, poset):
                for final, n2 in derivations(prog, mid, depth - 1 - n1, mode, poset):
                    if 1 + n1 + n2 <= depth:
                        results.add((final, 1 + n1 + n2))
    return results


def brute_force_glue(ps: Presheaf, family: list[Section], cov: Covering):
    """Literal candidate enumeration over all subsets of the target universe.

    Returns ("incompatible", conflicts) / ("glued", section) /
    ("non-unique", candidates) mirroring the contract of glue().
    """
    ok, conflicts = compatible(ps, family, cov)
    if not ok:
        return ("incompatible", conflicts)
    univ = sorted(ps.universe(cov.target), key=repr)
    by_context = {s.context: s for s in family}
    candidates = []
    for k in range(len(univ) + 1):
        for picked in combinations(univ, k):
            t = Section(cov.target, frozenset(picked))
            if all(
                t.facts & ps.universe(m) == by_context[m].facts for m in cov.members
            ):
                candidates.append(t)
    if not candidates:
        return ("incompatible", None)
    if len(candidates) == 1:
        return ("glued", candidates[0])
    return ("non-unique", candidates)


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def brute_force_stable(ps: Presheaf, s: Section, refinements: list[Covering]):
    """Stage-by-stage stability: restrict, re-glue with brute_force_glue.

    Returns (True, None) or (False, first failing covering), mirroring the
    contract of stable_under_refinement(). Asserts that no context is
    reached twice with different sections, which restriction composing
    along chains rules out.
    """
    reached = {s.context: s}
    for cov in refinements:
        parent = reached.get(cov.target)
        if parent is None:
            raise RefinementChainError(f"covering of {cov.target!r} is unreached")
        family = [Section(m, parent.facts & ps.universe(m)) for m in cov.members]
        if brute_force_glue(ps, family, cov) != ("glued", parent):
            return False, cov
        for member in family:
            assert reached.setdefault(member.context, member) == member
    return True, None
