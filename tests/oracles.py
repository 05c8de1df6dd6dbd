"""Independent brute-force implementations the engine is checked against.

These share no code with the engine paths they verify: the derivation
search walks the big-step rules as a nondeterministic proof search, the
gluing oracle tries all 2^n candidate subsets literally, the stability
oracle re-glues every refinement stage with it, the plain tableau
internalizes every inclusion and backtracks chronologically, the scan
projection matches every assertion against every pattern, the plain
digest renders every assertion afresh, the plain session answers each
query from the plain digest and rebuilds the fact set as a plain set,
and the reference evaluator recurses over the program, copies the fact
set on every write and runs the tableau for every subsumption guard it
tests. The per-code subset listing builds each subset from its bit code,
the recursive guard evaluator recurses once per guard node, the
recursive printers recurse once per program and guard node, the
whole-space witness search evaluates every code of a domain size in one
int, and the per-code model enumerator decodes every code into an
explicit model and checks each inclusion on it with the recursive model
evaluator. The forking tableau labels nodes with concept nodes, not the
engine's ids, copies the label at each disjunction and recurses into the
left branch, the recursive ``nnf`` builds a fresh tree
without reading any node's cache, the recursive concept printer and the
recursive model evaluator recurse once per concept node, and the
recursive repr once per record. The pattern regexes read a projection
pattern without the fact parser. Type elimination decides satisfiability
over models of every size, by pruning bit-sliced sets of atom
valuations.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import chain, combinations
from operator import and_, or_

from ctxdl.concepts import (
    And,
    Atomic,
    Bot,
    Exists,
    Forall,
    Not,
    Or,
    Top,
    nnf,
    print_concept,
    print_concept_operand,
)
from ctxdl.errors import BudgetExceededError, EvalAborted, RefinementChainError, UnknownNameError, UnknownOracleError
from ctxdl.kb import (
    GUARD_MODES,
    AssertGuard,
    ConceptAssertion,
    Falsity,
    GuardAnd,
    GuardNot,
    KnowledgeState,
    RoleAssertion,
    SubsumeGuard,
    Truth,
    _holds_saturated,
    guard_sat,
)
from ctxdl.programs import (
    Add,
    Del,
    FuelExhausted,
    If,
    Program,
    Seq,
    Skip,
    Terminated,
    TraceEntry,
    While,
)
from ctxdl.reasoner import (
    DEFAULT_MAX_BITS,
    DEFAULT_NODE_BUDGET,
    _bit_layout,
    _decode_model,
    _guard_bits,
    subsumes,
)
from ctxdl.sheaf import Covering, Presheaf, Section, compatible
from ctxdl.values import Record


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


def per_code_subsets(facts):
    """All subsets, ordered by the ascending bit encoding over sorted facts,
    each built from its code, mirroring the contract of
    sheaf._subsets_in_order().
    """
    ordered = sorted(facts, key=plain_fact_text)
    out = []
    for code in range(1 << len(ordered)):
        out.append(frozenset(f for i, f in enumerate(ordered) if code >> i & 1))
    return out


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


def plain_satisfiable(tbox, concept, *, budget=DEFAULT_NODE_BUDGET):
    """Tableau with every inclusion internalized as nnf(!lhs | rhs) in every
    node and chronological backtracking, mirroring the contract of
    is_satisfiable(): True, False, or BudgetExceededError once *budget* units
    (nodes, conjunctions and disjuncts tried) are spent.
    """
    constraints = tuple(dict.fromkeys(nnf(Or(Not(lhs), rhs)) for lhs, rhs in tbox.inclusions))
    spent = 0

    def spend():
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetExceededError(budget)

    def add(c, items, present):
        if isinstance(c, Top) or c in present:
            return True
        if isinstance(c, Bot) or (isinstance(c, Atomic) and Not(c) in present):
            return False
        if isinstance(c, Not) and c.child in present:
            return False
        present.add(c)
        items.append(c)
        return True

    def sat(label, ancestors):
        spend()
        items, present = [], set()
        return all(add(c, items, present) for c in label) and expand(items, present, 0, ancestors)

    def expand(items, present, i, ancestors):
        while i < len(items):
            c = items[i]
            i += 1
            if isinstance(c, And):
                spend()
                if not (add(c.left, items, present) and add(c.right, items, present)):
                    return False
            elif isinstance(c, Or) and c.left not in present and c.right not in present:
                for branch in (c.left, c.right):
                    spend()
                    forked_items, forked_present = items[:], set(present)
                    if add(branch, forked_items, forked_present) and expand(
                        forked_items, forked_present, i, ancestors
                    ):
                        return True
                return False
        snapshot = frozenset(present)
        if any(snapshot <= ancestor for ancestor in ancestors):
            return True
        deeper = ancestors + (snapshot,)
        for c in items:
            if isinstance(c, Exists):
                foralls = [d.child for d in items if isinstance(d, Forall) and d.role == c.role]
                if not sat([c.child, *foralls, *constraints], deeper):
                    return False
        return True

    return sat([nnf(concept), *constraints], ())


def scan_project(abox, projection):
    """Projection by matching every assertion against every pattern,
    mirroring the contract of agents._project().
    """
    out = set()
    for a in abox:
        if any(p.matches(a) for p in projection):
            if isinstance(a, ConceptAssertion):
                out.add(ConceptAssertion(a.individual, a.concept, None))
            else:
                out.add(RoleAssertion(a.subject, a.target, a.role, None))
    return frozenset(out)


_CONCEPT_PATTERN = re.compile(
    r"^(?P<ind>\*|[A-Za-z]\w*):(?P<con>\*|[A-Za-z]\w*)(?:@(?P<ctx>\*|[A-Za-z]\w*))?$"
)
_ROLE_PATTERN = re.compile(
    r"^\((?P<sub>\*|[A-Za-z]\w*),(?P<tgt>\*|[A-Za-z]\w*)\):(?P<role>\*|[A-Za-z]\w*)"
    r"(?:@(?P<ctx>\*|[A-Za-z]\w*))?$"
)


def regex_pattern(text, sig):
    """(fact, context) of a space-free projection pattern, or None when it
    is malformed or names an undeclared name, mirroring the contract of
    agents.FactPattern.parse(). The fact is ``(a,b):r`` or ``a:C`` with
    ``Atomic(C)`` as its concept, each slot a name or '*', at context None;
    a context of '*' is given as None.
    """
    m = _ROLE_PATTERN.match(text)
    if m:
        slots = (m["sub"], m["tgt"], m["role"])
        kinds = (sig.individual_names, sig.individual_names, sig.role_names)
    else:
        m = _CONCEPT_PATTERN.match(text)
        if not m:
            return None
        slots = (m["ind"], m["con"])
        kinds = (sig.individual_names, sig.concept_names)
    for name, declared in ((m["ctx"], sig.context_names), *zip(slots, kinds)):
        if name not in (None, "*") and name not in declared:
            return None
    if len(slots) == 3:
        fact = RoleAssertion(*slots, None)
    else:
        fact = ConceptAssertion(slots[0], Atomic(slots[1]), None)
    return fact, None if m["ctx"] == "*" else m["ctx"]


def plain_digest(abox):
    """Every assertion rendered afresh, sorted and joined by ';', mirroring
    the contract of kb.abox_digest().
    """

    def render(a):
        if isinstance(a, ConceptAssertion):
            return f"{a.individual}:{print_concept(a.concept)}@{a.context}"
        return f"({a.subject},{a.target}):{a.role}@{a.context}"

    return ";".join(sorted(render(a) for a in abox))


def plain_fact_text(f):
    """A fact (an assertion at context None) rendered afresh, ``a:C`` or
    ``(a,b):r``, mirroring the contract of the text of a fact.
    """
    assert f.context is None, f
    if isinstance(f, ConceptAssertion):
        return f"{f.individual}:{print_concept(f.concept)}"
    return f"({f.subject},{f.target}):{f.role}"


def plain_session(state, spec, queries):
    """Each query answered from ``plain_digest`` of a plain set, which is
    rebuilt as ``(abox | additions) - deletions``, mirroring the contract
    of oracle.run_session(): the final state and the responses.
    """
    abox, responses = set(state.abox), []
    for query in queries:
        if query.oracle != spec.name:
            raise UnknownOracleError(f"unknown oracle {query.oracle!r}: this session serves {spec.name!r}")
        response = spec.respond(plain_digest(abox), query.payload)
        abox = (abox | response.additions) - response.deletions
        responses.append(response)
    return KnowledgeState(state.tbox, frozenset(abox)), responses


def reference_evaluate_trace(prog, state, fuel, mode="literal", poset=None, *, budget=DEFAULT_NODE_BUDGET):
    """Recursive evaluation that builds a new state on every write and
    keeps no verdict (guards go to ``recursive_guard_sat``), mirroring the
    contract of programs.evaluate_trace(): the same outcome, steps, final
    state and trace, and EvalAborted with the partial trace when a guard
    exhausts *budget*. Deep ``Seq`` chains exceed Python's
    recursion limit here.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    trace = []

    def record(rule, guard, added=frozenset(), removed=frozenset()):
        trace.append(TraceEntry(rule, guard, frozenset(added), frozenset(removed)))

    def holds(state, guard):
        return recursive_guard_sat(state, guard, mode, poset, budget=budget)

    def run(prog, state, fuel):
        # (state, fuel left, completed); not completed means the fuel hit
        # zero before the next rule application.
        if fuel == 0:
            return state, 0, False
        if isinstance(prog, Skip):
            record("skip", None)
            return state, fuel - 1, True
        if isinstance(prog, Add):
            beta = prog.assertion
            record("add", None, added=() if beta in state.abox else (beta,))
            return state.with_abox(state.abox | {beta}), fuel - 1, True
        if isinstance(prog, Del):
            beta = prog.assertion
            record("del", None, removed=(beta,) if beta in state.abox else ())
            return state.with_abox(state.abox - {beta}), fuel - 1, True
        if isinstance(prog, Seq):
            state, fuel, done = run(prog.first, state, fuel - 1)
            if not done:
                return state, 0, False
            return run(prog.second, state, fuel)
        if isinstance(prog, If):
            taken = holds(state, prog.guard)
            record("if-true" if taken else "if-false", taken)
            return run(prog.then_branch if taken else prog.else_branch, state, fuel - 1)
        if isinstance(prog, While):
            while True:
                if fuel == 0:
                    return state, 0, False
                looping = holds(state, prog.guard)
                fuel -= 1
                if not looping:
                    record("while-false", False)
                    return state, fuel, True
                record("while-true", True)
                state, fuel, done = run(prog.body, state, fuel)
                if not done:
                    return state, 0, False
        raise TypeError(f"not a program: {prog!r}")

    try:
        final, left, done = run(prog, state, fuel)
    except BudgetExceededError as exc:
        raise EvalAborted(exc, tuple(trace)) from exc
    outcome = (Terminated if done else FuelExhausted)(final, fuel - left)
    return outcome, tuple(trace)


def recursive_guard_sat(state, guard, mode="literal", poset=None, *, budget=DEFAULT_NODE_BUDGET):
    """One Python call per guard node and one ``subsumes`` call per
    subsumption atom tested, mirroring the contract of kb.guard_sat(): the
    same verdicts, and BudgetExceededError at the same atom. On a TBox that
    has decided none of them, guard_sat decides the atoms this asks, in
    this order, each at its first test. A long ``|`` chain exceeds Python's
    recursion limit here.
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
        return subsumes(state.tbox, guard.lhs, guard.rhs, budget=budget)
    if isinstance(guard, GuardNot):
        return not recursive_guard_sat(state, guard.child, mode, poset, budget=budget)
    if isinstance(guard, GuardAnd):
        return recursive_guard_sat(state, guard.left, mode, poset, budget=budget) and recursive_guard_sat(
            state, guard.right, mode, poset, budget=budget
        )
    raise TypeError(f"not a guard: {guard!r}")


def type_elimination_satisfiable(tbox, concept, *, max_atoms=16):
    """Pratt's type elimination (1979), mirroring the verdict of
    is_satisfiable() with no budget: whether *concept* has an instance in
    some model of *tbox*, of any size. None when the closure has more than
    *max_atoms* atoms.

    The atoms are the concept names and one ``exists r.C`` per existential
    of the closure, with ``forall r.C`` read as ``!exists r.!C``; a type
    gives each atom a value, and every concept is a Boolean function of
    them. The sets of types are bit-sliced: bit t of an int stands for the
    type whose atom j is bit j of t. Starting from the types that satisfy
    every inclusion, a type dies when one of its true existentials
    ``exists r.C`` has no live witness: a type in C that is in no D with
    ``exists r.D`` false in it. When nothing more dies, the live types,
    each an element with an r-edge to every witness it allows, form a
    model, and every element of any model has a live type.
    """
    atoms: dict = {}  # a concept name, or (role, filler) for exists role.filler -> its bit

    def atom(c):
        if isinstance(c, Atomic):
            return c.name
        return (c.role, c.child if isinstance(c, Exists) else Not(c.child))

    inclusions = [Or(Not(lhs), rhs) for lhs, rhs in tbox.inclusions]
    pending = [concept, *inclusions]
    while pending:
        c = pending.pop()
        if isinstance(c, (Atomic, Exists, Forall)) and atom(c) not in atoms:
            atoms[atom(c)] = len(atoms)
            if not isinstance(c, Atomic):
                pending.append(atom(c)[1])
        elif isinstance(c, Not):
            pending.append(c.child)
        elif isinstance(c, (And, Or)):
            pending += (c.left, c.right)
    if len(atoms) > max_atoms:
        return None
    ones = (1 << (1 << len(atoms))) - 1
    # Bit t of column j is bit j of t: blocks of 2^(j+1) types, the upper half set.
    column = [ones // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j)) for j in range(len(atoms))]

    def value(c):
        if isinstance(c, (Top, Bot)):
            return ones if isinstance(c, Top) else 0
        if isinstance(c, (Atomic, Exists)):
            return column[atoms[atom(c)]]
        if isinstance(c, Forall):
            return ones ^ column[atoms[atom(c)]]
        if isinstance(c, Not):
            return ones ^ value(c.child)
        return (and_ if isinstance(c, And) else or_)(value(c.left), value(c.right))

    successors: dict = {}  # role -> (column, filler's value) of each of its existentials
    for key, j in atoms.items():
        if not isinstance(key, str):
            successors.setdefault(key[0], []).append((column[j], value(key[1])))
    alive = reduce(and_, map(value, inclusions), ones)
    while True:
        before = alive
        for existentials in successors.values():
            # Split the live types by the existentials of this role they
            # make true: (those types, the witnesses they allow, the fillers they need).
            groups = [(alive, alive, [])]
            for col, filler in existentials:
                groups = [
                    group
                    for types, allowed, needed in groups
                    for group in ((types & col, allowed, needed + [filler]), (types & ~col, allowed & ~filler, needed))
                    if group[0]
                ]
            for types, allowed, needed in groups:
                if not all(allowed & filler for filler in needed):
                    alive &= ~types
        if alive == before:
            return bool(alive & value(concept))


class WholeCodeSpace:
    """Every interpretation over {1..k} at once: bit c of an int stands for code c.

    Bit c of ``columns[j]`` is bit j of code c, a repeated byte pattern that
    overhangs a 1- or 2-bit space; bits past the codes are never read, as
    every result is cut by the TBox filter, which starts from ``ones``.
    """

    def __init__(self, sig, k):
        concepts, roles, bits = _bit_layout(sig, k)
        self.offsets = {**concepts, **roles}
        self.k = k
        self.ones = (1 << (1 << bits)) - 1
        self.columns = []
        for j in range(bits):
            run = (1 << j) // 8
            pattern = bytes(run) + b"\xff" * run if run else bytes([(0xAA, 0xCC, 0xF0)[j]])
            repeats = max(1, (1 << bits) // (8 * len(pattern)))
            self.columns.append(int.from_bytes(pattern * repeats, "little"))

    def extension(self, c):
        """Extension of *c* at every code: bit c of entry i says element i+1 is in it."""
        if isinstance(c, (Top, Bot)):
            return [self.ones if isinstance(c, Top) else 0] * self.k
        if isinstance(c, Atomic):
            if c.name not in self.offsets:
                raise UnknownNameError(f"signature does not declare concept {c.name!r}")
            return self.columns[self.offsets[c.name] : self.offsets[c.name] + self.k]
        if isinstance(c, Not):
            return [x ^ self.ones for x in self.extension(c.child)]
        if isinstance(c, And):
            return [x & y for x, y in zip(self.extension(c.left), self.extension(c.right))]
        if isinstance(c, Or):
            return [x | y for x, y in zip(self.extension(c.left), self.extension(c.right))]
        if isinstance(c, Forall):
            return self.extension(Not(Exists(c.role, Not(c.child))))
        if isinstance(c, Exists):
            if c.role not in self.offsets:
                raise UnknownNameError(f"signature does not declare role {c.role!r}")
            child = self.extension(c.child)
            edges, k = self.columns[self.offsets[c.role] :], self.k
            return [reduce(or_, (edges[i * k + j] & y for j, y in enumerate(child))) for i in range(k)]
        raise TypeError(f"not a concept expression: {c!r}")


def whole_space_witness(sig, tbox, concept, max_size, *, max_bits=DEFAULT_MAX_BITS):
    """First model of *tbox* (in per_code_models order) where *concept* is
    nonempty, with every code of a domain size evaluated in one int,
    mirroring the contract of reasoner.find_witness().
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _guard_bits(sig, max_size, max_bits)
    for k in range(1, max_size + 1):
        space = WholeCodeSpace(sig, k)
        models = space.ones
        for lhs, rhs in tbox.inclusions:
            models &= reduce(and_, space.extension(Or(Not(lhs), rhs)))
            if not models:
                break
        else:
            witness = models & reduce(or_, space.extension(concept))
            if witness:
                return _decode_model((witness & -witness).bit_length() - 1, sig, k)
    return None


def per_code_models(sig, tbox, max_size, *, max_bits=DEFAULT_MAX_BITS):
    """Every model of *tbox* over {1..k}, k = 1..max_size, one code at a
    time in ascending order: the order in which reasoner.find_witness()
    searches. Each inclusion is checked on the decoded model with
    recursive_extension, stopping at the first that fails.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _guard_bits(sig, max_size, max_bits)
    for k in range(1, max_size + 1):
        _, _, bits = _bit_layout(sig, k)
        for code in range(1 << bits):
            model = _decode_model(code, sig, k)
            if all(
                recursive_extension(model, lhs) <= recursive_extension(model, rhs)
                for lhs, rhs in tbox.inclusions
            ):
                yield model


def recursive_print_program(prog):
    """One Python call per program node, mirroring the contract of
    programs.print_program(). A long ``;`` chain exceeds Python's recursion
    limit here.
    """
    if isinstance(prog, Skip):
        return "skip"
    if isinstance(prog, Add):
        return f"add {prog.assertion.text}"
    if isinstance(prog, Del):
        return f"del {prog.assertion.text}"
    if isinstance(prog, Seq):
        return f"{recursive_print_program(prog.first)}; {recursive_print_program(prog.second)}"
    if isinstance(prog, If):
        return (
            f"if {recursive_print_guard(prog.guard)} then {recursive_print_program(prog.then_branch)} "
            f"else {recursive_print_program(prog.else_branch)} fi"
        )
    if isinstance(prog, While):
        return f"while {recursive_print_guard(prog.guard)} do {recursive_print_program(prog.body)} od"
    raise TypeError(f"not a program: {prog!r}")


def recursive_print_guard(g):
    """One Python call per guard node, mirroring the contract of
    programs.print_guard(). A long ``|`` chain exceeds Python's recursion
    limit here.
    """
    if isinstance(g, Truth):
        return "true"
    if isinstance(g, Falsity):
        return "false"
    if isinstance(g, AssertGuard):
        return g.assertion.text
    if isinstance(g, SubsumeGuard):
        lhs = print_concept_operand(g.lhs)
        if isinstance(g.lhs, Not):
            # A leading '!' would re-parse as guard negation.
            lhs = f"({print_concept(g.lhs)})"
        return f"{lhs} <= {print_concept_operand(g.rhs)}"
    if isinstance(g, GuardNot):
        if isinstance(g.child, GuardAnd):
            return "!(" + recursive_print_guard(g.child) + ")"
        return "!" + recursive_print_guard(g.child)
    if isinstance(g, GuardAnd):
        left = recursive_print_guard(g.left)
        right = (
            "(" + recursive_print_guard(g.right) + ")"
            if isinstance(g.right, GuardAnd)
            else recursive_print_guard(g.right)
        )
        return f"{left} & {right}"
    raise TypeError(f"not a guard: {g!r}")


class ForkingTableau:
    """The node-based tableau with the choice points of reasoner._Tableau,
    mirroring its contract down to the budget units spent and the branch
    points numbered: labels hold concept nodes and their branch points
    are frozensets, and a disjunction copies the label and recurses into
    its left branch. A label with more than about 950 disjunctions exceeds
    Python's recursion limit here.

    *constraints* and *unfold* are as ``absorb`` gives them. ``sat`` takes
    a label of (concept, branch points) pairs and the ancestors' labels.
    """

    def __init__(self, constraints, unfold, budget):
        self.constraints = constraints
        self.unfold = unfold
        self.budget = budget
        self.spent = 0
        self.points = 0

    def _spend(self):
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceededError(self.budget)

    def sat(self, label, ancestors):
        """None when *label* is satisfiable, else the branch points its clash depends on."""
        self._spend()
        items, present = [], {}
        for c, dep in label:
            clash = _add_node(c, dep, items, present)
            if clash is not None:
                return clash
        return self._expand(items, present, ancestors)

    def _expand(self, items, present, ancestors, i=0):
        while i < len(items):
            c = items[i]
            i += 1
            dep = present[c]
            if isinstance(c, Or):
                if c.left in present or c.right in present:
                    continue
                self.points += 1
                point = self.points
                self._spend()
                forked_items, forked_present = items[:], dict(present)
                clash = _add_node(c.left, dep | {point}, forked_items, forked_present)
                if clash is None:
                    clash = self._expand(forked_items, forked_present, ancestors, i)
                if clash is None or point not in clash:
                    return clash
                parts, dep = (c.right,), dep | (clash - {point})
            elif isinstance(c, And):
                parts = (c.left, c.right)
            elif isinstance(c, Atomic) and c.name in self.unfold:
                parts = self.unfold[c.name]
            else:
                continue
            self._spend()
            for part in parts:
                clash = _add_node(part, dep, items, present)
                if clash is not None:
                    return clash
        return self._successors(items, present, ancestors)

    def _successors(self, items, present, ancestors):
        snapshot = frozenset(present)
        if any(snapshot <= ancestor for ancestor in ancestors):
            return None
        deeper = ancestors + (snapshot,)
        for c in items:
            if isinstance(c, Exists):
                # The successor exists only through c, so its whole label depends on c.
                dep = present[c]
                child = [(c.child, dep)]
                child.extend(
                    (d.child, present[d] | dep) for d in items if isinstance(d, Forall) and d.role == c.role
                )
                child.extend((k, dep) for k in self.constraints)
                clash = self.sat(child, deeper)
                if clash is not None:
                    return clash
        return None


def _add_node(c, dep, items, present):
    """Insert a concept into a node label; on a clash return both sides' branch points."""
    if isinstance(c, Top) or c in present:
        return None
    if isinstance(c, Bot):
        return dep
    if isinstance(c, Atomic):
        # Nodes are interned: when no node Not(c) exists, no label holds one.
        negated = Not.existing(c)
        if negated is not None and negated in present:
            return dep | present[negated]
    elif isinstance(c, Not) and c.child in present:
        return dep | present[c.child]
    present[c] = dep
    items.append(c)
    return None


def absorb(tbox):
    """The unfold map (concept name -> the NNF right sides of its
    inclusions ``A <= D``) and the deduplicated constraints ``nnf(!C | D)``
    of every other inclusion, in first-occurrence order."""
    unfold, constraints = {}, {}
    for lhs, rhs in tbox.inclusions:
        if isinstance(lhs, Atomic):
            unfold[lhs.name] = unfold.get(lhs.name, ()) + (nnf(rhs),)
        else:
            constraints[nnf(Or(Not(lhs), rhs))] = None
    return unfold, tuple(constraints)


def forking_subsumption(tbox, c, d, budget=DEFAULT_NODE_BUDGET):
    """Whether *c* <= *d* holds in every model of *tbox*, and the units
    spent, by ForkingTableau on ``c & !d``: what a fresh
    ``reasoner.decide`` keeps. Raises BudgetExceededError."""
    unfold, constraints = absorb(tbox)
    tableau = ForkingTableau(constraints, unfold, budget)
    label = [(k, frozenset()) for k in (nnf(And(c, Not(d))), *constraints)]
    return tableau.sat(label, ()) is not None, tableau.spent


def recursive_nnf(c):
    """One Python call per node and no cache, mirroring the contract of
    concepts.nnf(). A long flat chain exceeds Python's recursion limit here.
    """
    if isinstance(c, (Top, Bot, Atomic)):
        return c
    if isinstance(c, And):
        return And(recursive_nnf(c.left), recursive_nnf(c.right))
    if isinstance(c, Or):
        return Or(recursive_nnf(c.left), recursive_nnf(c.right))
    if isinstance(c, Exists):
        return Exists(c.role, recursive_nnf(c.child))
    if isinstance(c, Forall):
        return Forall(c.role, recursive_nnf(c.child))
    if isinstance(c, Not):
        x = c.child
        if isinstance(x, Top):
            return Bot()
        if isinstance(x, Bot):
            return Top()
        if isinstance(x, Atomic):
            return c
        if isinstance(x, Not):
            return recursive_nnf(x.child)
        if isinstance(x, And):
            return Or(recursive_nnf(Not(x.left)), recursive_nnf(Not(x.right)))
        if isinstance(x, Or):
            return And(recursive_nnf(Not(x.left)), recursive_nnf(Not(x.right)))
        if isinstance(x, Exists):
            return Forall(x.role, recursive_nnf(Not(x.child)))
        if isinstance(x, Forall):
            return Exists(x.role, recursive_nnf(Not(x.child)))
    raise TypeError(f"not a concept expression: {c!r}")


def recursive_print_concept(c, min_prec=1):
    """One Python call per concept node, mirroring the contract of
    concepts.print_concept(). A long flat chain exceeds Python's recursion
    limit here.
    """
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bot):
        return "bot"
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, Not):
        s = "!" + recursive_print_concept(c.child, 3)
        return s if min_prec <= 3 else f"({s})"
    if isinstance(c, (Exists, Forall)):
        word = "exists" if isinstance(c, Exists) else "forall"
        s = f"{word} {c.role}.{recursive_print_concept(c.child, 3)}"
        return s if min_prec <= 3 else f"({s})"
    if isinstance(c, And):
        s = f"{recursive_print_concept(c.left, 2)} & {recursive_print_concept(c.right, 3)}"
        return s if min_prec <= 2 else f"({s})"
    if isinstance(c, Or):
        s = f"{recursive_print_concept(c.left, 1)} | {recursive_print_concept(c.right, 2)}"
        return s if min_prec <= 1 else f"({s})"
    raise TypeError(f"not a concept expression: {c!r}")


def recursive_extension(model, c):
    """One Python call per concept node, mirroring the contract of
    reasoner.extension(). A long flat chain exceeds Python's recursion
    limit here.
    """
    if isinstance(c, Top):
        return model.domain
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Atomic):
        if c.name not in model.concept_ext:
            raise UnknownNameError(f"model does not interpret concept {c.name!r}")
        return model.concept_ext[c.name]
    if isinstance(c, Not):
        return model.domain - recursive_extension(model, c.child)
    if isinstance(c, And):
        return recursive_extension(model, c.left) & recursive_extension(model, c.right)
    if isinstance(c, Or):
        return recursive_extension(model, c.left) | recursive_extension(model, c.right)
    if isinstance(c, (Exists, Forall)):
        if c.role not in model.role_ext:
            raise UnknownNameError(f"model does not interpret role {c.role!r}")
        pairs = model.role_ext[c.role]
        child = recursive_extension(model, c.child)
        test = any if isinstance(c, Exists) else all
        return frozenset(x for x in model.domain if test(y in child for (a, y) in pairs if a == x))
    raise TypeError(f"not a concept expression: {c!r}")


def recursive_repr(value):
    """One Python call per record, mirroring the contract of
    values.Record.__repr__(): the dataclass repr. Records inside other
    containers are shown by their own repr.
    """
    if type(value).__repr__ is not Record.__repr__:
        return repr(value)
    shown = ", ".join(f"{name}={recursive_repr(getattr(value, name))}" for name in value._fields)
    return f"{type(value).__qualname__}({shown})"
