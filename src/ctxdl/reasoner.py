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

Backjumping: each label entry carries the branch points (disjunction
choices) it depends on, and a clash returns the union of its two sides'
sets. An unfolded concept depends on its name, a successor's whole label
on the existential that made it. When the left disjunct's clash does not
depend on its own choice, the right disjunct would meet the same clash, so
it is skipped and the clash passed up; otherwise the right disjunct
depends on the rest of that clash. The node budget counts nodes,
conjunctions decomposed, names unfolded and disjuncts tried.

Determinism: labels are processed in insertion order, disjunctions explore
the left branch first, branch points are numbered in the order the choices
are made, and successors are expanded in label order. The one thing that
outlives a call is the TBox's absorbed form (the unfold map and the
constraints), kept on the immutable ``TBox`` after its first use. It is a
pure function of the inclusions and no call mutates it, so repeated calls
return identical results and spend identical budgets, whether they share
one TBox object or use equal ones.

The brute-force side exists as an independent check on the tableau; it
shares nothing with it but the concept semantics, which one evaluator,
``_CodeSpace.extension``, computes in many interpretations at once,
bit-sliced over Python integers. An explicit ``FiniteModel`` is a space of
one code: ``extension`` and ``check_interpretation`` evaluate there.
``enumerate_models`` and ``find_witness`` share one loop over the codes of
each domain size, 2^BLOCK_BITS at a time (bit c of a block stands for the
model with code ``block << BLOCK_BITS | c``), block after block in
ascending order. ``find_witness`` takes the first code that loop yields
with the concept nonempty, so it returns the first such model that
``enumerate_models`` would yield. A block's ints are 32 KiB and stay in
cache, where a whole 24-bit space made every temporary 2 MiB of freshly
faulted pages; and a sat search stops at the first block that holds a
witness.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Iterator, Mapping

from ctxdl.concepts import (
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

# The branch points (disjunction choices) a label entry or a clash depends on.
Deps = frozenset[int]
NO_DEPS: Deps = frozenset()


class TBox(Record):
    """A finite list of concept inclusions (lhs <= rhs).

    Duplicates collapse under set semantics; first-occurrence order is kept
    so derived data (internalized constraints, model enumeration) is stable.
    """

    __slots__ = ("inclusions", "_absorbed")

    def __init__(self, inclusions: Iterable[tuple[ConceptExpr, ConceptExpr]] = ()):
        super().__init__(tuple(dict.fromkeys(inclusions)))

    @property
    def absorbed(self) -> tuple[Mapping[str, tuple[ConceptExpr, ...]], tuple[ConceptExpr, ...]]:
        """The form the tableau reads, computed on first use and kept.

        The unfold map sends each concept name A to the NNF right sides of
        the inclusions ``A <= D``; the constraints are the deduplicated
        ``nnf(!C | D)`` of every other inclusion, in first-occurrence order.
        Not a field, so equality, hashing and the repr ignore it. Readers
        never mutate it.
        """
        if self._absorbed is None:
            unfold: dict[str, tuple[ConceptExpr, ...]] = {}
            constraints: dict[ConceptExpr, None] = {}
            for lhs, rhs in self.inclusions:
                if isinstance(lhs, Atomic):
                    unfold[lhs.name] = unfold.get(lhs.name, ()) + (nnf(rhs),)
                else:
                    constraints[nnf(Or(Not(lhs), rhs))] = None
            object.__setattr__(self, "_absorbed", (unfold, tuple(constraints)))
        return self._absorbed


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


class _Tableau:
    def __init__(
        self,
        constraints: tuple[ConceptExpr, ...],
        unfold: Mapping[str, tuple[ConceptExpr, ...]],
        budget: int,
    ):
        self.constraints = constraints
        self.unfold = unfold
        self.budget = budget
        self.spent = 0
        self.points = 0

    def _spend(self) -> None:
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceededError(self.budget)

    def sat(self, label: list[tuple[ConceptExpr, Deps]], ancestors: tuple[frozenset, ...]) -> Deps | None:
        """None when *label* is satisfiable, else the branch points its clash depends on."""
        self._spend()
        items: list[ConceptExpr] = []
        present: dict[ConceptExpr, Deps] = {}
        for c, dep in label:
            clash = _add(c, dep, items, present)
            if clash is not None:
                return clash
        return self._expand(items, present, ancestors)

    def _expand(
        self,
        items: list[ConceptExpr],
        present: dict[ConceptExpr, Deps],
        ancestors: tuple[frozenset, ...],
    ) -> Deps | None:
        """Expand one node's label in place; the result is as for ``sat``.

        A disjunction tries its left disjunct on the same label. Its choice
        point keeps the label's length, so trying the right disjunct first
        drops what the left one added: entries are only ever appended, and
        each is one key of *present*. Open choice points wait on a stack, so
        a label with thousands of disjunctions costs neither Python
        recursion nor a copy of the label per choice.
        """
        # (label length, next item, deps, branch point, right disjunct) per open choice
        choices: list[tuple[int, int, Deps, int, ConceptExpr]] = []
        i = 0
        while True:
            clash = None
            while i < len(items):
                c = items[i]
                i += 1
                dep = present[c]
                if isinstance(c, Or):
                    if c.left in present or c.right in present:
                        continue
                    self.points += 1
                    self._spend()
                    choices.append((len(items), i, dep, self.points, c.right))
                    clash = _add(c.left, dep | {self.points}, items, present)
                    if clash is not None:
                        break
                    continue
                if isinstance(c, And):
                    parts = (c.left, c.right)
                elif isinstance(c, Atomic) and c.name in self.unfold:
                    parts = self.unfold[c.name]
                else:
                    continue
                self._spend()
                for part in parts:
                    clash = _add(part, dep, items, present)
                    if clash is not None:
                        break
                if clash is not None:
                    break
            else:
                clash = self._successors(items, present, ancestors)
            if clash is None:
                return None
            # Hand the clash to the innermost choice whose disjunct it depends on.
            while choices:
                size, i, dep, point, right = choices.pop()
                if point not in clash:
                    continue  # the right disjunct would meet the same clash
                for c in items[size:]:
                    del present[c]
                del items[size:]
                # No choice is left here, so the right disjunct goes on in place.
                dep = dep | (clash - {point})
                self._spend()
                clash = _add(right, dep, items, present)
                if clash is None:
                    break
            else:
                return clash

    def _successors(
        self, items: list[ConceptExpr], present: dict[ConceptExpr, Deps], ancestors: tuple[frozenset, ...]
    ) -> Deps | None:
        """Propositionally saturated: block, or expand the existential successors."""
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


def _add(
    c: ConceptExpr, dep: Deps, items: list[ConceptExpr], present: dict[ConceptExpr, Deps]
) -> Deps | None:
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


def is_satisfiable(tbox: TBox, concept: ConceptExpr, *, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Decide whether *concept* can have a nonempty extension in a model of *tbox*.

    Raises BudgetExceededError when the node budget runs out; the exception
    is the third outcome, never folded into True or False.
    """
    unfold, constraints = tbox.absorbed
    tableau = _Tableau(constraints, unfold, budget)
    return tableau.sat([(c, NO_DEPS) for c in (nnf(concept), *constraints)], ()) is None


def subsumes(tbox: TBox, c: ConceptExpr, d: ConceptExpr, *, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff every model of *tbox* interprets *c* within *d*."""
    return not is_satisfiable(tbox, And(c, Not(d)), budget=budget)


# ---------------------------------------------------------------------------
# Finite models: evaluation, enumeration, witness search
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


def enumerate_models(
    sig: Signature, tbox: TBox, max_size: int, *, max_bits: int = DEFAULT_MAX_BITS
) -> Iterator[FiniteModel]:
    """Yield every model of *tbox* over domains {1..k}, k = 1..max_size.

    Order is deterministic: domain size ascending, then the integer encoding
    of the extension bits ascending (see _bit_layout). Intended for
    desk-scale signatures; the bit guard refuses larger spaces.
    """
    for k, code in _model_codes(sig, tbox, max_size, max_bits):
        yield _decode_model(code, sig, k)


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


def _model_codes(
    sig: Signature, tbox: TBox, max_size: int, max_bits: int, concept: ConceptExpr | None = None
) -> Iterator[tuple[int, int]]:
    """(k, code) of every model of *tbox* over {1..k}, k = 1..max_size, in
    ascending order; with *concept*, only the models where it is nonempty.

    The codes of each domain size are searched block by block. A block
    that the inclusions empty is left before the rest are evaluated, and
    *concept* is evaluated only in a block that some model survives.
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
                if concept is not None:
                    models &= reduce(or_, space.extension(concept))
                while models:
                    lowest = models & -models
                    yield k, block << low_bits | lowest.bit_length() - 1
                    models ^= lowest


def find_witness(
    sig: Signature,
    tbox: TBox,
    concept: ConceptExpr,
    max_size: int,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> FiniteModel | None:
    """First model of *tbox* (in enumerate_models order) where *concept* is nonempty.

    Returns None when no such model exists up to *max_size*. The search
    stops at the first block with a witness.
    """
    for k, code in _model_codes(sig, tbox, max_size, max_bits, concept):
        return _decode_model(code, sig, k)
    return None
