"""Concept satisfiability and subsumption, plus a brute-force model oracle.

The decision procedure is a tableau with the usual four expansion rules.
An axiom ``A <= D`` whose left side is a concept name is unfolded lazily:
D joins a label when A does. That is enough, because the model read off a
completed tableau puts an element in A only when A is in its label. Every
other axiom ``C <= D`` is internalized as the global constraint ``!C | D``
added to every node label. Termination comes from subset blocking: a node
whose saturated label is contained in an ancestor's label is not expanded
further (sound here because the language has no inverse roles, so the
blocked node can be folded onto its blocker when reading off a model).

Labels hold ints, not nodes. On the first decision over a TBox, its
compiled table (``_Table``) numbers every node that the unfold map and the
constraints reach, and keeps per id the rule the tableau applies to it
and, for a literal, the id of its complement, so that the clash test is
one lookup. The table is kept on the immutable ``TBox`` and never grows:
the nodes of a query that it lacks are numbered after its ids, for that
decision alone. Ids follow the structure of the inclusions and the query,
never the order of a set or dict of nodes, and they decide no output
order: labels keep insertion order, and blocking compares sets of ids.
The tableau has one way in: ``_Tableau`` computes the root label once,
as (id, branch points) pairs, and ``run`` seeds it by the loop that
seeds every successor. ``subsumes`` and ``decide`` ask whether
``c & !d`` is satisfiable without building that node: the root label is
what the conjunction's expansion would leave, after its unit is spent.
This is the numbered concept form of Horrocks and Patel-Schneider (J.
Logic Comput. 1999) and of FaCT++ (Tsarkov and Horrocks, IJCAR 2006).

The tableau is one loop over a stack of waiting nodes, as Baader and
Sattler (Studia Logica 2001) present it: completion rules applied until
none applies. ``run`` opens, seeds, expands and closes the root and every
successor by the same code. A saturated node that is not blocked opens its
existential successors one at a time and waits on the stack; a
successor's verdict resumes it. The waiting nodes are exactly the path
from the root, so the blocking test reads their labels there, and a model
deeper than Python's recursion limit costs node budget, not frames.

Backjumping: each label entry carries the branch points (disjunction
choices) it depends on, as a bit set, and a clash returns the union of
its two sides' sets. An unfolded concept depends on its name, a
successor's whole label on the existential that made it. When the left
disjunct's clash does not depend on its own choice, the right disjunct
would meet the same clash, so it is skipped and the clash passed up;
otherwise the right disjunct depends on the rest of that clash. The node
budget counts nodes, conjunctions decomposed, names unfolded and
disjuncts tried.

Determinism: labels are processed in insertion order, disjunctions explore
the left branch first, branch points are numbered in the order the choices
are made, and successors are expanded in label order. Two things outlive
a call, both kept on the immutable ``TBox``. Its compiled table is a pure
function of the inclusions and no call mutates it, so repeated calls
return identical results and spend identical budgets, whether they share
one TBox object or use equal ones. Its ``_guards`` keeps, per pair
(c, d), the verdict on ``c <= d`` and the units that decision spent, and
only ``decide`` reads or fills it, for the P-Box's guard atoms (through
``kb.guard_sat``): from the units it answers any later budget exactly.
``is_satisfiable`` and ``subsumes`` read no verdict and keep none.

The brute-force side exists as an independent check on the tableau; it
shares nothing with it but the concept semantics, which one evaluator,
``_CodeSpace.extension``, computes in many interpretations at once,
bit-sliced over Python integers. An explicit ``FiniteModel`` is a space of
one code: ``extension`` and ``check_interpretation`` evaluate there.
``find_witness`` walks the codes of each domain size 2^BLOCK_BITS at a
time (bit c of a block stands for the model with code
``block << BLOCK_BITS | c``), block after block in ascending order, and
returns the lowest code of the first block where the concept is nonempty
in some model. A block's ints are 32 KiB and stay in cache, where a whole
24-bit space made every temporary 2 MiB of freshly faulted pages; and a
sat search stops at the first block that holds a witness.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Iterator, Mapping

from ctxdl.concepts import (
    BOT,
    TOP,
    And,
    Atomic,
    Bot,
    ConceptExpr,
    Exists,
    Forall,
    Not,
    Or,
    Signature,
    Top,
    nnf,
)
from ctxdl.errors import BudgetExceededError, SearchSpaceError, UnknownNameError
from ctxdl.values import Record

DEFAULT_NODE_BUDGET = 100_000
DEFAULT_MAX_BITS = 24
# find_witness evaluates the codes of a domain size in blocks of 2^BLOCK_BITS.
BLOCK_BITS = 18

# A label entry's or a clash's branch points (disjunction choices), as a
# bit set: bit p stands for branch point p.
NO_DEPS = 0

# The ids of Top and Bot in every compiled table.
_TOP, _BOT = 0, 1
# The kinds of rule the tableau applies to an id (see _compile).
_AND, _OR, _EXISTS, _FORALL = range(4)


class TBox(Record):
    """A finite list of concept inclusions (lhs <= rhs).

    Duplicates collapse under set semantics; first-occurrence order is kept
    so derived data (the compiled table, the witness search) is stable.
    """

    __slots__ = ("inclusions", "_compiled", "_guards")

    def __init__(self, inclusions: Iterable[tuple[ConceptExpr, ConceptExpr]] = ()):
        super().__init__(tuple(dict.fromkeys(inclusions)))
        object.__setattr__(self, "_guards", {})  # (c, d) -> (c <= d, units spent), by decide

    @property
    def compiled(self) -> _Table:
        """The table the tableau reads, built on first use and kept.

        Not a field, so equality, hashing and the repr ignore it. Readers
        never mutate it.
        """
        if self._compiled is None:
            object.__setattr__(self, "_compiled", _Table(self.inclusions))
        return self._compiled


EMPTY_TBOX = TBox()


class FiniteModel(Record):
    """An explicit interpretation over a domain of small positive integers.

    Fields: domain (a frozenset of ints), concept_ext (concept name ->
    frozenset of elements) and role_ext (role name -> frozenset of pairs).
    """

    __slots__ = ("domain", "concept_ext", "role_ext")


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------


class _Table:
    """A TBox compiled for the tableau: its nodes numbered by dense ints.

    An inclusion ``A <= D`` whose left side is a concept name unfolds A to
    ``nnf(D)``; every other ``C <= D`` becomes the constraint
    ``nnf(!C | D)``. ``_compile`` numbers Top and Bot (ids 0 and 1), the
    concept names on the left, the concepts they unfold to and the
    constraints, inclusion by inclusion, and then every node these reach.
    Each concept name's negation is numbered with it, so a literal that a
    query brings is never the complement of one in the table.

    ``ids`` maps each node to its id; ``comp`` and ``rules`` are indexed by
    id, as ``_compile`` fills them, except that the rule of a name that
    unfolds decomposes it into the ids it unfolds to, in the order of the
    inclusions. ``seeds`` holds the constraints' ids in first-occurrence
    order, each paired with no branch points, as every label is seeded
    with them, and ``ands`` maps the operand ids of each conjunction to
    its id.
    """

    __slots__ = ("ids", "comp", "rules", "seeds", "ands")

    def __init__(self, inclusions: tuple[tuple[ConceptExpr, ConceptExpr], ...]):
        unfold: dict[ConceptExpr, list[ConceptExpr]] = {}
        constraints = []
        roots = [TOP, BOT]
        for lhs, rhs in inclusions:
            if isinstance(lhs, Atomic):
                unfold.setdefault(lhs, []).append(nnf(rhs))
                roots += (lhs, unfold[lhs][-1])
            else:
                constraints.append(nnf(Or(Not(lhs), rhs)))
                roots.append(constraints[-1])
        ids: dict[ConceptExpr, int] = {}
        self.comp: list[int] = []
        self.rules: list[tuple | None] = []
        _compile(roots, {}, ids, self.comp, self.rules, pair=True)
        for atom, parts in unfold.items():
            self.rules[ids[atom]] = (_AND, tuple(ids[part] for part in parts), None)
        self.ids = ids
        self.seeds = tuple((k, NO_DEPS) for k in dict.fromkeys(ids[k] for k in constraints))
        self.ands = {self.rules[i][1]: i for node, i in ids.items() if type(node) is And}


def _compile(
    roots: Iterable[ConceptExpr],
    known: Mapping[ConceptExpr, int],
    ids: dict[ConceptExpr, int],
    comp: list[int],
    rules: list[tuple | None],
    pair: bool = False,
) -> tuple[int, ...]:
    """Number the NNF nodes reachable from *roots* that neither *known*
    nor *ids* holds, into *ids*, and return the roots' ids.

    A new node takes the next id, the length of *comp* and *rules*, which
    grow with *ids*. ``comp`` gives a literal's complement when that is
    numbered, else 0, Top's id, which no label holds. ``rules`` gives what
    the tableau does with the node: ``(_AND, ids, None)`` adds the ids,
    ``(_OR, left, right)`` chooses a disjunct, ``(_EXISTS, role, id)`` and
    ``(_FORALL, role, id)`` make and constrain successors, and None does
    nothing. With *pair*, a concept name's negation is numbered with it.

    The roots take the next ids in order, and the new nodes are visited
    in the order of their ids: each gives its operands that lack an id the
    next ones, left first. So the ids follow the roots' structure alone,
    never the order of a set or dict of nodes, and each node's entries are
    appended when it is visited.
    """
    base = len(rules)
    nodes: list[ConceptExpr] = []  # the new nodes, in the order of their ids
    links: list[tuple[int, int]] = []  # (negation, concept name) pairs

    def number(node: ConceptExpr) -> int:
        i = known.get(node)
        if i is None:
            i = ids.setdefault(node, base + len(nodes))
            if i == base + len(nodes):
                nodes.append(node)
        return i

    roots_ids = tuple(map(number, roots))
    for i, node in enumerate(nodes, base):  # the list grows as the walk goes
        kind = type(node)
        rule = None
        if kind is And:
            rule = (_AND, (number(node.left), number(node.right)), None)
        elif kind is Or:
            rule = (_OR, number(node.left), number(node.right))
        elif kind is Exists:
            rule = (_EXISTS, node.role, number(node.child))
        elif kind is Forall:
            rule = (_FORALL, node.role, number(node.child))
        elif kind is Not:
            links.append((i, number(node.child)))
        elif pair and kind is Atomic:
            number(Not(node))
        comp.append(_TOP)
        rules.append(rule)
    for i, j in links:
        comp[i], comp[j] = j, i
    return roots_ids


class _Tableau:
    """One decision: is the conjunction of *roots*, one concept or ``c``
    and ``!d``, satisfiable in a model of *tbox*?

    Labels hold ids of the TBox's compiled table. The roots' nodes that the
    table lacks are numbered for this decision alone, in copies of the
    table's lists, so the table never grows. The root label is computed
    here, as (id, branch points) pairs like every label ``run`` seeds, and
    ``units`` counts what is spent before the root node's own unit: for c
    and !d, when the table lacks their conjunction, that conjunction's
    unit, else nothing.
    """

    __slots__ = ("budget", "spent", "points", "seeds", "comp", "rules", "label", "units")

    def __init__(self, tbox: TBox, budget: int, roots: tuple[ConceptExpr, ...]):
        table = tbox.compiled
        self.budget = budget
        self.spent = 0
        self.points = 0
        self.seeds = table.seeds
        self.comp, self.rules = table.comp, table.rules
        ids = tuple(map(table.ids.get, roots))
        if None in ids:
            self.comp, self.rules = table.comp.copy(), table.rules.copy()
            ids = _compile(roots, table.ids, {}, self.comp, self.rules)
        root = ids[0] if len(ids) == 1 else table.ands.get(ids)
        if root is None:
            # What the expansion of c & !d would leave. Only a conjunction
            # that the table holds can reach a successor's label and a
            # blocking test, so leaving this one out changes no outcome.
            # The constraints are disjunctions and never clash when seeded,
            # so the conjunction's unit may be spent before them.
            self.label, self.units = (*self.seeds, (ids[0], NO_DEPS), (ids[1], NO_DEPS)), 1
        else:
            self.label, self.units = ((root, NO_DEPS), *self.seeds), 0

    def run(self) -> bool:
        """The verdict: whether the root label is satisfiable.

        One loop opens, expands and closes the root and every successor
        alike. A disjunction tries its left disjunct on the same label. Its
        choice point keeps the label's length, so trying the right disjunct
        drops what the left one added: entries are only ever appended, and
        each is one key of ``present``. A saturated node that is not
        blocked opens its existential successors one at a time, and waits
        on ``stack`` for each one's verdict: None sends it on to its next
        successor, a clash back through its own choices. The waiting nodes
        are the path from the root, so blocking compares a node's label
        with theirs. Neither a deep model nor a label with thousands of
        disjunctions costs Python recursion or a copy of a label.
        """
        comp, rules, seeds = self.comp, self.rules, self.seeds
        label = self.label
        # The nodes waiting for a successor's verdict, innermost first, as
        # nested tuples: each one's entries, present, quantifiers, choices,
        # next quantifier and snapshot, and the node it waits on in turn.
        stack = None
        if self.units:  # the conjunction's unit, before the root's own
            self.spent += 1
            if self.spent > self.budget:
                raise BudgetExceededError(self.budget)
        while True:
            if label is not None:  # open a node: spend its unit and seed its label
                self.spent += 1
                if self.spent > self.budget:
                    raise BudgetExceededError(self.budget)
                items: list[int] = []
                present: dict[int, int] = {}
                # The rules of the quantifiers among the entries before i, in label order.
                quantifiers: list[tuple[int, tuple]] = []
                # (label length, next item, quantifiers, deps, branch point, right disjunct) per open choice
                choices: list[tuple[int, int, int, int, int, int]] = []
                i = k = 0
                snapshot = None
                for c, dep in label:
                    clash = _add(c, dep, items, present, comp)
                    if clash is not None:
                        break
                label = None
            if clash is None:
                while i < len(items):
                    c = items[i]
                    i += 1
                    rule = rules[c]
                    if rule is None:
                        continue
                    kind, parts, right = rule
                    if kind == _OR:
                        if parts in present or right in present:
                            continue
                        self.points += 1
                        choices.append((len(items), i, len(quantifiers), present[c], self.points, right))
                        parts, dep = (parts,), present[c] | 1 << self.points
                    elif kind == _AND:
                        dep = present[c]
                    else:
                        quantifiers.append((c, rule))
                        continue
                    self.spent += 1
                    if self.spent > self.budget:
                        raise BudgetExceededError(self.budget)
                    for part in parts:  # _add, inlined on the hottest path
                        if part in present:
                            continue
                        if part <= _BOT:
                            if part == _TOP:
                                continue
                            clash = dep
                            break
                        partner = comp[part]
                        if partner in present:
                            clash = dep | present[partner]
                            break
                        present[part] = dep
                        items.append(part)
                    if clash is not None:
                        break
            if clash is None:
                if quantifiers:  # saturated: block, or open the next successor
                    if snapshot is None:
                        snapshot = frozenset(present)
                        waiting = stack
                        while waiting is not None:
                            if snapshot <= waiting[5]:
                                k = len(quantifiers)  # blocked: no successor opens
                                break
                            waiting = waiting[6]
                    while k < len(quantifiers) and quantifiers[k][1][0] != _EXISTS:
                        k += 1
                    if k < len(quantifiers):
                        c, (_, role, child) = quantifiers[k]
                        k += 1
                        # The successor exists only through c, so its whole label depends on c.
                        dep = present[c]
                        label = [(child, dep)]
                        label += [
                            (only, present[d] | dep) for d, (q, by, only) in quantifiers if q == _FORALL and by == role
                        ]
                        label += [(seed, dep) for seed, _ in seeds]
                        stack = (items, present, quantifiers, choices, k, snapshot, stack)
                        continue
            else:
                # Hand the clash to the innermost choice whose disjunct it depends on.
                while choices:
                    size, i, scanned, dep, point, right = choices.pop()
                    if not clash >> point & 1:
                        continue  # the right disjunct would meet the same clash
                    for c in items[size:]:
                        del present[c]
                    del items[size:]
                    del quantifiers[scanned:]
                    # No choice is left here, so the right disjunct goes on in place.
                    dep |= clash ^ 1 << point
                    self.spent += 1
                    if self.spent > self.budget:
                        raise BudgetExceededError(self.budget)
                    clash = _add(right, dep, items, present, comp)
                    if clash is None:
                        break
                if clash is None:
                    k, snapshot = 0, None
                    continue
            # Close the node: its verdict goes to the node waiting for it.
            if stack is None:
                return clash is None
            items, present, quantifiers, choices, k, snapshot, stack = stack
            i = len(items)


def _add(c: int, dep: int, items: list[int], present: dict[int, int], comp: list[int]) -> int | None:
    """Insert an id into a node label; on a clash return both sides' branch points."""
    if c in present:
        return None
    if c <= _BOT:
        return None if c == _TOP else dep
    partner = comp[c]
    if partner in present:
        return dep | present[partner]
    present[c] = dep
    items.append(c)
    return None


def is_satisfiable(tbox: TBox, concept: ConceptExpr, *, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Decide whether *concept* can have a nonempty extension in a model of *tbox*.

    Raises BudgetExceededError when the node budget runs out; the exception
    is the third outcome, never folded into True or False.
    """
    return _Tableau(tbox, budget, (nnf(concept),)).run()


def subsumes(tbox: TBox, c: ConceptExpr, d: ConceptExpr, *, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff every model of *tbox* interprets *c* within *d*: whether
    ``c & !d`` is unsatisfiable, decided without building that node, at
    the same cost."""
    return not _Tableau(tbox, budget, (nnf(c), nnf(Not(d)))).run()


def decide(tbox: TBox, c: ConceptExpr, d: ConceptExpr, budget: int) -> bool:
    """``subsumes``, decided once per TBox: the verdict and the units the
    decision spent are kept in its ``_guards``, and every later call at a
    budget from those units up gives that verdict, and below them raises
    the BudgetExceededError that a fresh decision would raise. A decision
    that exhausts its budget is not kept."""
    known = tbox._guards.get((c, d))
    if known is None:  # an exhausted budget raises here, so it is never kept
        known = tbox._guards[c, d] = _subsumption(tbox, c, d, budget)
    if known[1] > budget:
        raise BudgetExceededError(budget)
    return known[0]


def _subsumption(tbox: TBox, c: ConceptExpr, d: ConceptExpr, budget: int) -> tuple[bool, int]:
    """A fresh decision of ``decide``: the verdict and the units it spent."""
    tableau = _Tableau(tbox, budget, (nnf(c), nnf(Not(d))))
    return not tableau.run(), tableau.spent


# ---------------------------------------------------------------------------
# Finite models: evaluation and witness search
# ---------------------------------------------------------------------------


def extension(model: FiniteModel, c: ConceptExpr) -> frozenset[int]:
    """The extension of *c* in *model* under the standard semantics.

    A model whose extensions leave its domain, or that gives a name both
    as a concept and as a role, is a ValueError.
    """
    elements, space = _model_space(model)
    return frozenset(compress(elements, space.extension(c)))


def _post_order(c: ConceptExpr, roles: Mapping, unknown: str) -> Iterator[ConceptExpr]:
    """The nodes of *c*, each after its operands, left operand first.

    An evaluator keeps one value per operand on its own stack and pops
    them when it meets their parent, so no subterm's value outlives its
    use. A quantifier whose role is not in *roles* raises UnknownNameError
    (*unknown*, "role" and the name) before its operand is visited, in the
    order a recursive evaluator would raise.
    """
    pending: list[tuple[ConceptExpr, bool]] = [(c, False)]
    while pending:
        c, ready = pending.pop()
        if not ready:
            if isinstance(c, (And, Or)):
                pending += ((c, True), (c.right, False), (c.left, False))
                continue
            if isinstance(c, (Exists, Forall)) and c.role not in roles:
                raise UnknownNameError(f"{unknown} role {c.role!r}")
            if isinstance(c, (Not, Exists, Forall)):
                pending += ((c, True), (c.child, False))
                continue
        yield c


def check_interpretation(
    model: FiniteModel, tbox: TBox, concept: ConceptExpr
) -> tuple[bool, frozenset[int]]:
    """Evaluate *concept* in *model* and check the inclusions of *tbox* in
    order, stopping at the first that fails. A malformed model is a
    ValueError, as in ``extension``."""
    elements, space = _model_space(model)
    holds = all(all(space.extension(Or(Not(lhs), rhs))) for lhs, rhs in tbox.inclusions)
    return holds, frozenset(compress(elements, space.extension(concept)))


def _bit_layout(sig: Signature, k: int) -> tuple[dict[str, int], dict[str, int], int]:
    """Fixed bit positions for extensions over the domain {1..k}: the
    concept offsets, the role offsets and the bit count.

    Concept names (sorted) come first, k bits each; role names (sorted)
    follow, k*k bits each. Concept bit for element i: offset + (i-1).
    Role bit for pair (i, j): offset + (i-1)*k + (j-1).
    """
    concepts: dict[str, int] = {}
    roles: dict[str, int] = {}
    pos = 0
    for name in sorted(sig.concept_names):
        concepts[name] = pos
        pos += k
    for name in sorted(sig.role_names):
        roles[name] = pos
        pos += k * k
    return concepts, roles, pos


def _decode_model(code: int, sig: Signature, k: int) -> FiniteModel:
    concepts, roles, _ = _bit_layout(sig, k)
    domain = frozenset(range(1, k + 1))
    concept_ext = {
        name: frozenset(i for i in range(1, k + 1) if code >> (offset + i - 1) & 1)
        for name, offset in concepts.items()
    }
    role_ext = {
        name: frozenset(
            (i, j)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if code >> (offset + (i - 1) * k + (j - 1)) & 1
        )
        for name, offset in roles.items()
    }
    return FiniteModel(domain, concept_ext, role_ext)


def _guard_bits(sig: Signature, max_size: int, max_bits: int) -> None:
    bits = len(sig.concept_names) * max_size + len(sig.role_names) * max_size * max_size
    if bits > max_bits:
        raise SearchSpaceError(
            f"enumeration space needs {bits} extension bits for domain size "
            f"{max_size}, above the limit of {max_bits}"
        )


def _low_columns(low_bits: int) -> list[int]:
    """Bit c of column j is bit j of c, for the codes c below 2^low_bits.

    Column j repeats 2^j zeros then 2^j ones; it is built from one period
    by shift-and-or doubling.
    """
    width = 1 << low_bits
    columns = []
    for j in range(low_bits):
        run = 1 << j
        column, period = ((1 << run) - 1) << run, 2 * run
        while period < width:
            column |= column << period
            period *= 2
        columns.append(column)
    return columns


class _CodeSpace(Record):
    """Interpretations over k elements, one per bit of an int: the one
    concept evaluator.

    Fields: concepts and roles (name -> offset into columns), k, ones (the
    int with every code's bit set), columns and unknown. Bit c of
    ``columns[concepts[A] + i]`` says element i+1 is in A at code c, and
    of ``columns[roles[r] + i*k + j]`` that (i+1, j+1) is an r-edge. In a
    block of the search, bit c stands for code ``block << BLOCK_BITS | c``:
    the low columns are a periodic pattern shared by every block of the
    domain size, and a high column is ``ones`` or 0, as the block index
    fixes. An explicit model is a space of one code (``ones == 1``). A
    name missing from its map raises UnknownNameError whose message opens
    with *unknown*.

    A block holds at most 2^BLOCK_BITS codes, so every int the search
    makes is at most 32 KiB and stays in cache. Over a whole 24-bit space
    each temporary was 2 MiB of fresh pages: about 40,000 minor page
    faults for one search that finds no witness, against under 200 in
    blocks.
    """

    __slots__ = ("concepts", "roles", "k", "ones", "columns", "unknown")

    def extension(self, c: ConceptExpr) -> list[int]:
        """Extension of *c* at every code: bit c of entry i says element i+1 is in it.

        Evaluated in post order on an explicit stack (see ``_post_order``),
        so a long chain costs no Python recursion.
        """
        values: list[list[int]] = []
        ones, k = self.ones, self.k
        for c in _post_order(c, self.roles, self.unknown):
            if isinstance(c, (Top, Bot)):
                values.append([ones if isinstance(c, Top) else 0] * k)
            elif isinstance(c, Atomic):
                if c.name not in self.concepts:
                    raise UnknownNameError(f"{self.unknown} concept {c.name!r}")
                values.append(self.columns[self.concepts[c.name] : self.concepts[c.name] + k])
            elif isinstance(c, Not):
                values.append([x ^ ones for x in values.pop()])
            elif isinstance(c, (And, Or)):
                right, left = values.pop(), values.pop()
                combine = and_ if isinstance(c, And) else or_
                values.append(list(map(combine, left, right)))
            elif isinstance(c, (Exists, Forall)):
                # forall r.C is !exists r.!C
                child = values.pop()
                if isinstance(c, Forall):
                    child = [y ^ ones for y in child]
                edges = self.columns[self.roles[c.role] :]
                some = [reduce(or_, (edges[i * k + j] & y for j, y in enumerate(child))) for i in range(k)]
                values.append(some if isinstance(c, Exists) else [x ^ ones for x in some])
            else:
                raise TypeError(f"not a concept expression: {c!r}")
        return values.pop()


def _model_space(model: FiniteModel) -> tuple[list[int], _CodeSpace]:
    """*model*'s elements in ascending order, and the space of its one code.

    Raises ValueError for an extension that leaves the domain, or a name
    given both as a concept and as a role.
    """
    both = model.concept_ext.keys() & model.role_ext.keys()
    if both:
        raise ValueError(f"model interprets {min(both)!r} both as a concept and as a role")
    elements = sorted(model.domain)
    pairs = [(x, y) for x in elements for y in elements]
    columns: list[int] = []
    concepts: dict[str, int] = {}
    roles: dict[str, int] = {}
    for kind, ext, offsets, cells in (
        ("concept", model.concept_ext, concepts, elements),
        ("role", model.role_ext, roles, pairs),
    ):
        for name, members in ext.items():
            stray = members.difference(cells)
            if stray:
                raise ValueError(f"{kind} {name!r} holds {min(stray)!r}, outside the model's domain")
            offsets[name] = len(columns)
            columns += [int(cell in members) for cell in cells]
    return elements, _CodeSpace(concepts, roles, len(elements), 1, columns, "model does not interpret")


def find_witness(
    sig: Signature,
    tbox: TBox,
    concept: ConceptExpr,
    max_size: int,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> FiniteModel | None:
    """The first model of *tbox* over {1..k}, k = 1..max_size, where
    *concept* is nonempty, or None when there is none.

    Models are ordered by domain size, then by the integer encoding of
    their extension bits (see ``_bit_layout``). The codes of each domain
    size are searched block by block; a block that the inclusions empty is
    left before the rest are evaluated, *concept* is evaluated only in a
    block that some model survives, and the search stops at the first
    block with a witness. Intended for desk-scale signatures; the bit
    guard refuses larger spaces.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _guard_bits(sig, max_size, max_bits)
    for k in range(1, max_size + 1):
        concepts, roles, bits = _bit_layout(sig, k)
        low_bits = min(bits, BLOCK_BITS)
        ones = (1 << (1 << low_bits)) - 1
        low = _low_columns(low_bits)
        for block in range(1 << (bits - low_bits)):
            high = [ones if block >> j & 1 else 0 for j in range(bits - low_bits)]
            space = _CodeSpace(concepts, roles, k, ones, low + high, "signature does not declare")
            models = ones
            for lhs, rhs in tbox.inclusions:
                models &= reduce(and_, space.extension(Or(Not(lhs), rhs)))
                if not models:
                    break
            else:
                models &= reduce(or_, space.extension(concept))
                if models:
                    return _decode_model(block << low_bits | (models & -models).bit_length() - 1, sig, k)
    return None
