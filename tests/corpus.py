"""Seeded random corpora shared by the property and acceptance tests.

Everything here is driven by an explicit random.Random so the suites are
reproducible run to run; nothing depends on hash order.
"""

from __future__ import annotations

import random

from ctxdl.concepts import (
    And,
    Atomic,
    BOT,
    ConceptExpr,
    Exists,
    Forall,
    Not,
    Or,
    Signature,
    TOP,
    subconcepts,
)
from ctxdl.contexts import ContextPoset, Covering
from ctxdl.kb import (
    AssertGuard,
    ConceptAssertion,
    Guard,
    GuardAnd,
    GuardNot,
    FALSE_GUARD,
    RoleAssertion,
    TRUE_GUARD,
)
from ctxdl.programs import Add, Del, If, Program, Seq, SKIP, While
from ctxdl.reasoner import DEFAULT_MAX_BITS, TBox
from ctxdl.sheaf import Presheaf, Section

SIG = Signature(
    concept_names=("A", "B", "C"),
    role_names=("r", "s"),
    individual_names=("a", "b"),
    context_names=("U", "V", "W"),
)


def random_concept(rng: random.Random, depth: int, concepts=("A", "B", "C"), roles=("r", "s")) -> ConceptExpr:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([TOP, BOT] + [Atomic(n) for n in concepts])
    kind = rng.choice(["not", "and", "or"] + (["exists", "forall"] if roles else []))
    if kind == "not":
        return Not(random_concept(rng, depth - 1, concepts, roles))
    if kind in ("and", "or"):
        left = random_concept(rng, depth - 1, concepts, roles)
        right = random_concept(rng, depth - 1, concepts, roles)
        return And(left, right) if kind == "and" else Or(left, right)
    role = rng.choice(list(roles))
    child = random_concept(rng, depth - 1, concepts, roles)
    return Exists(role, child) if kind == "exists" else Forall(role, child)


def random_conjunction(
    rng: random.Random, depth: int, max_conjuncts=4, concepts=("A", "B", "C"), roles=("r", "s")
) -> ConceptExpr:
    """1..max_conjuncts random concepts joined by ``&``, so that the choices
    of several disjunctions meet in one label, as in a clause set."""
    c = random_concept(rng, depth, concepts, roles)
    for _ in range(rng.randint(0, max_conjuncts - 1)):
        c = And(c, random_concept(rng, depth, concepts, roles))
    return c


def random_tbox(rng: random.Random, max_inclusions=2, depth=3, concepts=("A", "B", "C"), roles=("r", "s")) -> TBox:
    n = rng.randint(0, max_inclusions)
    return TBox(
        (random_concept(rng, depth, concepts, roles), random_concept(rng, depth, concepts, roles))
        for _ in range(n)
    )


def random_absorbable_tbox(
    rng: random.Random, max_inclusions=4, depth=3, concepts=("A", "B", "C"), roles=("r", "s")
) -> TBox:
    """Inclusions of which at least half have an atomic left side: the
    first, third, ... one always, each other one on a coin flip.

    Those are the inclusions the tableau unfolds lazily; the rest have a
    random left side of depth 2 and are internalized.
    """
    inclusions = []
    for i in range(rng.randint(0, max_inclusions)):
        if i % 2 == 0 or rng.random() < 0.5:
            lhs = Atomic(rng.choice(concepts))
        else:
            lhs = random_concept(rng, 2, concepts, roles)
        inclusions.append((lhs, random_concept(rng, depth, concepts, roles)))
    return TBox(inclusions)


def witness_space(tbox: TBox, concept: ConceptExpr) -> tuple[Signature, int]:
    """The names occurring in the instance and the largest domain size, at
    most 3, that the 24-bit enumeration guard allows for them (0 if none).

    A model of the sub-signature extends to the full one with empty
    extensions and back, leaving satisfaction untouched.
    """
    names = set(subconcepts(concept))
    for lhs, rhs in tbox.inclusions:
        names |= subconcepts(lhs) | subconcepts(rhs)
    concepts = sorted(n.name for n in names if isinstance(n, Atomic))
    roles = sorted({n.role for n in names if isinstance(n, (Exists, Forall))})
    k = max(
        (
            size
            for size in (1, 2, 3)
            if len(concepts) * size + len(roles) * size * size <= DEFAULT_MAX_BITS
        ),
        default=0,
    )
    return Signature(concept_names=concepts, role_names=roles), k


def random_poset(rng: random.Random, size: int) -> ContextPoset:
    names = [f"K{i}" for i in range(size)]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                edges.append((names[i], names[j]))  # lower index below higher
    return ContextPoset(names, edges)


def concept_fact(individual: str, concept: str) -> ConceptAssertion:
    """The fact ``individual:concept``: a concept assertion at no context."""
    return ConceptAssertion(individual, Atomic(concept), None)


def role_fact(subject: str, target: str, role: str) -> RoleAssertion:
    """The fact ``(subject,target):role``: a role assertion at no context."""
    return RoleAssertion(subject, target, role, None)


def random_assertion(rng: random.Random, sig: Signature, contexts: list[str]):
    ctx = rng.choice(contexts)
    if rng.random() < 0.6:
        return ConceptAssertion(
            rng.choice(sorted(sig.individual_names)),
            rng.choice([Atomic(n) for n in sorted(sig.concept_names)]),
            ctx,
        )
    inds = sorted(sig.individual_names)
    return RoleAssertion(rng.choice(inds), rng.choice(inds), rng.choice(sorted(sig.role_names)), ctx)


def random_abox(rng: random.Random, sig: Signature, contexts: list[str], max_size=6):
    return frozenset(random_assertion(rng, sig, contexts) for _ in range(rng.randint(0, max_size)))


def random_guard(rng: random.Random, depth: int, universe, subsumptions=()) -> Guard:
    """A random guard over assertion atoms from *universe*; when
    *subsumptions* is given, some atoms are drawn from it instead."""
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.3:
            return TRUE_GUARD
        if roll < 0.5:
            return FALSE_GUARD
        if subsumptions and roll < 0.7:
            return rng.choice(subsumptions)
        return AssertGuard(rng.choice(universe))
    if rng.random() < 0.5:
        return GuardNot(random_guard(rng, depth - 1, universe, subsumptions))
    return GuardAnd(
        random_guard(rng, depth - 1, universe, subsumptions),
        random_guard(rng, depth - 1, universe, subsumptions),
    )


def random_program(rng: random.Random, size: int, universe, subsumptions=()) -> Program:
    """A random program of AST size (command count) at most *size*; guards
    are drawn as by random_guard."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.3:
            return SKIP
        if roll < 0.7:
            return Add(rng.choice(universe))
        return Del(rng.choice(universe))
    kind = rng.choice(["seq", "if", "while", "leaf"])
    if kind == "leaf":
        return random_program(rng, 1, universe)
    if kind == "seq":
        split = rng.randint(1, size - 1)
        return Seq(
            random_program(rng, split, universe, subsumptions),
            random_program(rng, size - split, universe, subsumptions),
        )
    if kind == "if":
        split = max(1, (size - 1) // 2)
        return If(
            random_guard(rng, 2, universe, subsumptions),
            random_program(rng, split, universe, subsumptions),
            random_program(rng, max(1, size - 1 - split), universe, subsumptions),
        )
    return While(
        random_guard(rng, 2, universe, subsumptions),
        random_program(rng, size - 1, universe, subsumptions),
    )


def assertion_universe(sig: Signature = SIG, contexts=("U", "V")) -> list:
    """A small fixed pool of assertions for program generation."""
    return [
        ConceptAssertion("a", Atomic("A"), contexts[0]),
        ConceptAssertion("b", Atomic("B"), contexts[1 % len(contexts)]),
    ]


# Hand-proved unsatisfiable (TBox, concept) pairs. Each comment is the
# one-line refutation.
A_, B_, C_ = Atomic("A"), Atomic("B"), Atomic("C")
CURATED_UNSAT = [
    # bot is empty in every interpretation
    (TBox(), BOT),
    # x in A and x not in A is impossible
    (TBox(), And(A_, Not(A_))),
    # resolution: A, A->B, not B
    (TBox(), And(A_, And(Or(Not(A_), B_), Not(B_)))),
    # an instance of A & !B violates the only axiom
    (TBox([(A_, B_)]), And(A_, Not(B_))),
    # chain: A <= B <= C forces any A-instance into C
    (TBox([(A_, B_), (B_, C_)]), And(A_, Not(C_))),
    # everything is A, so !A is empty
    (TBox([(TOP, A_)]), Not(A_)),
    # A is contained in the empty concept
    (TBox([(A_, BOT)]), A_),
    # the r-successor required by exists violates the forall
    (TBox(), And(Exists("r", A_), Forall("r", Not(A_)))),
    # the existential witness would satisfy a contradiction
    (TBox(), Exists("r", And(A_, Not(A_)))),
    # an r-successor must exist (exists top) yet satisfy both A and !A
    (TBox(), And(Forall("r", A_), And(Forall("r", Not(A_)), Exists("r", TOP)))),
    # axiom pushes forall r.B onto x; its witness clashes with exists r.!B
    (TBox([(A_, Forall("r", B_))]), And(A_, Exists("r", Not(B_)))),
    # everything is B, so a !B-successor cannot exist
    (TBox([(TOP, B_)]), Exists("r", Not(B_))),
    # A <= B and A <= C, so A & (!B | !C) is empty
    (TBox([(A_, And(B_, C_))]), And(A_, Or(Not(B_), Not(C_)))),
    # both disjuncts land in C
    (TBox([(A_, C_), (B_, C_)]), And(Or(A_, B_), Not(C_))),
    # nnf of !(A | !A) is !A & A
    (TBox(), Not(Or(A_, Not(A_)))),
    # negated top
    (TBox(), Not(TOP)),
    # axiom names the existential pattern itself
    (TBox([(Exists("r", A_), B_)]), And(Exists("r", A_), Not(B_))),
    # A requires an r.B successor, but B is globally empty
    (TBox([(A_, Exists("r", B_)), (B_, BOT)]), A_),
    # nested quantifiers: forall r.forall s.!A meets exists r.exists s.A
    (TBox(), And(Exists("r", Exists("s", A_)), Forall("r", Forall("s", Not(A_))))),
]


def random_presheaf(rng: random.Random, max_contexts=5, max_facts=12):
    """A random poset, universes over a small fact pool, and one covering."""
    size = rng.randint(2, max_contexts)
    poset = random_poset(rng, size)
    names = sorted(poset.contexts)
    pool = [concept_fact("a", "A"), concept_fact("a", "B"), concept_fact("b", "A"),
            concept_fact("b", "C"), role_fact("a", "b", "r"), role_fact("b", "a", "r"),
            concept_fact("a", "C"), role_fact("a", "a", "s"), concept_fact("b", "B"),
            role_fact("b", "b", "s"), role_fact("a", "b", "s"), role_fact("b", "a", "s")]
    pool = pool[:max_facts]
    universes = {
        ctx: set(f for f in pool if rng.random() < 0.5) for ctx in names
    }
    # Repair to the interpolation closure Presheaf construction demands:
    # along every chain W <= V <= U, lift universe(U) & universe(W) into V.
    changed = True
    while changed:
        changed = False
        for w, v in poset.leq_pairs:
            for v2, u in poset.leq_pairs:
                if v2 != v or w == v or v == u:
                    continue
                missing = (universes[u] & universes[w]) - universes[v]
                if missing:
                    universes[v] |= missing
                    changed = True
    ps = Presheaf(poset, universes)
    # Covering: pick a target with at least one strictly-lower context when
    # possible; fall back to the identity cover.
    target = rng.choice(names)
    below = [c for c in names if poset.leq(c, target)]
    members = sorted(rng.sample(below, rng.randint(1, len(below))))
    cov = Covering(target, members)
    return ps, cov


def random_family(rng: random.Random, ps: Presheaf, cov: Covering) -> list[Section]:
    """Half the time restrict a random target section (gluable), else random."""
    if rng.random() < 0.5:
        base = frozenset(f for f in ps.universe(cov.target) if rng.random() < 0.5)
        target_section = Section(cov.target, base)
        from ctxdl.sheaf import restrict

        return [restrict(ps, target_section, m) for m in cov.members]
    return [
        Section(m, frozenset(f for f in ps.universe(m) if rng.random() < 0.5))
        for m in cov.members
    ]


def random_chain(rng: random.Random, ps: Presheaf, max_stages=4) -> tuple[str, list[Covering]]:
    """A top context and 1..max_stages coverings, each of a reached context.

    The top is a context with the most subcontexts, and members are drawn
    from strict subcontexts when there are any, so that stages whose
    members cover the target only jointly are common.
    """
    leq = ps.poset.leq
    names = sorted(ps.poset.contexts)
    top = max(names, key=lambda u: sum(leq(v, u) for v in names))
    chain: list[Covering] = []
    reached = [top]
    for _ in range(rng.randint(1, max_stages)):
        target = rng.choice(reached)
        below = [c for c in names if leq(c, target) and (c != target or rng.random() < 0.2)]
        below = below or [target]
        members = sorted(rng.sample(below, rng.randint(1, len(below))))
        chain.append(Covering(target, members))
        reached += [m for m in members if m not in reached]
    return top, chain
