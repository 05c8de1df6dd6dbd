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
shares nothing with it but the concept semantics. ``enumerate_models`` and
``extension`` evaluate explicit finite interpretations one at a time.
``find_witness`` evaluates 2^BLOCK_BITS interpretations at once,
bit-sliced over Python integers (bit c of a block stands for the model
with code ``block << BLOCK_BITS | c``), block after block in ascending
order, and returns the first model that ``enumerate_models`` would yield.
A block's ints are 32 KiB and stay in cache, where a whole 24-bit space
made every temporary 2 MiB of freshly faulted pages; and a sat search
stops at the first block that holds a witness.
"""

from __future__ import annotations

from functools import reduce
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

    Evaluated in post order on an explicit stack (see ``_post_order``), so
    a long chain costs no Python recursion.
    """
    values: list[frozenset[int]] = []
    for c in _post_order(c, model.role_ext, "model does not interpret role"):
        if isinstance(c, Top):
            values.append(model.domain)
        elif isinstance(c, Bot):
            values.append(frozenset())
        elif isinstance(c, Atomic):
            if c.name not in model.concept_ext:
                raise UnknownNameError(f"model does not interpret concept {c.name!r}")
            values.append(model.concept_ext[c.name])
        elif isinstance(c, Not):
            values.append(model.domain - values.pop())
        elif isinstance(c, (And, Or)):
            right, left = values.pop(), values.pop()
            values.append(left & right if isinstance(c, And) else left | right)
        elif isinstance(c, (Exists, Forall)):
            child, pairs = values.pop(), model.role_ext[c.role]
            test = any if isinstance(c, Exists) else all
            values.append(frozenset(x for x in model.domain if test(y in child for (a, y) in pairs if a == x)))
        else:
            raise TypeError(f"not a concept expression: {c!r}")
    return values.pop()


def _post_order(c: ConceptExpr, roles: Mapping, unknown_role: str) -> Iterator[ConceptExpr]:
    """The nodes of *c*, each after its operands, left operand first.

    An evaluator keeps one value per operand on its own stack and pops
    them when it meets their parent, so no subterm's value outlives its
    use. A quantifier whose role is not in *roles* raises UnknownNameError
    (*unknown_role* and the name) before its operand is visited, in the
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
                raise UnknownNameError(f"{unknown_role} {c.role!r}")
            if isinstance(c, (Not, Exists, Forall)):
                pending += ((c, True), (c.child, False))
                continue
        yield c


def satisfies_tbox(model: FiniteModel, tbox: TBox) -> bool:
    """True iff every inclusion of *tbox* holds in *model*."""
    return all(extension(model, lhs) <= extension(model, rhs) for lhs, rhs in tbox.inclusions)


def check_interpretation(
    model: FiniteModel, tbox: TBox, concept: ConceptExpr
) -> tuple[bool, frozenset[int]]:
    """Evaluate *concept* in *model* and check every inclusion of *tbox*."""
    return satisfies_tbox(model, tbox), extension(model, concept)


def _bit_layout(sig: Signature, k: int) -> tuple[list[str], list[str], dict[str, int], int]:
    """Fixed bit positions for extensions over the domain {1..k}.

    Concept names (sorted) come first, k bits each; role names (sorted)
    follow, k*k bits each. Concept bit for element i: offset + (i-1).
    Role bit for pair (i, j): offset + (i-1)*k + (j-1).
    """
    concepts = sorted(sig.concept_names)
    roles = sorted(sig.role_names)
    offsets: dict[str, int] = {}
    pos = 0
    for name in concepts:
        offsets[name] = pos
        pos += k
    for name in roles:
        offsets[name] = pos
        pos += k * k
    return concepts, roles, offsets, pos


def _decode_model(code: int, sig: Signature, k: int) -> FiniteModel:
    concepts, roles, offsets, _ = _bit_layout(sig, k)
    domain = frozenset(range(1, k + 1))
    concept_ext = {
        name: frozenset(i for i in range(1, k + 1) if code >> (offsets[name] + i - 1) & 1)
        for name in concepts
    }
    role_ext = {
        name: frozenset(
            (i, j)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if code >> (offsets[name] + (i - 1) * k + (j - 1)) & 1
        )
        for name in roles
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
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _guard_bits(sig, max_size, max_bits)
    for k in range(1, max_size + 1):
        _, _, _, bits = _bit_layout(sig, k)
        for code in range(1 << bits):
            model = _decode_model(code, sig, k)
            if satisfies_tbox(model, tbox):
                yield model


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


class _CodeSpace:
    """One block of interpretations over {1..k}: bit c of an int stands for
    code ``block << BLOCK_BITS | c``.

    ``columns[j]`` gives code bit j at every code of the block: a periodic
    pattern for the low bits, shared by every block of the domain size,
    and ``ones`` or 0 for a high bit, which the block index fixes. A block
    holds at most 2^BLOCK_BITS codes, so every int the search makes is at
    most 32 KiB and stays in cache. Over a whole 24-bit space each
    temporary was 2 MiB of fresh pages: about 40,000 minor page faults for
    one search that finds no witness, against under 200 in blocks.
    """

    def __init__(self, offsets: Mapping[str, int], k: int, ones: int, columns: list[int]):
        self.offsets = offsets
        self.k = k
        self.ones = ones
        self.columns = columns

    def extension(self, c: ConceptExpr) -> list[int]:
        """Extension of *c* at every code: bit c of entry i says element i+1 is in it."""
        values: list[list[int]] = []
        ones, k = self.ones, self.k
        for c in _post_order(c, self.offsets, "signature does not declare role"):
            if isinstance(c, (Top, Bot)):
                values.append([ones if isinstance(c, Top) else 0] * k)
            elif isinstance(c, Atomic):
                if c.name not in self.offsets:
                    raise UnknownNameError(f"signature does not declare concept {c.name!r}")
                values.append(self.columns[self.offsets[c.name] : self.offsets[c.name] + k])
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
                edges = self.columns[self.offsets[c.role] :]
                some = [reduce(or_, (edges[i * k + j] & y for j, y in enumerate(child))) for i in range(k)]
                values.append(some if isinstance(c, Exists) else [x ^ ones for x in some])
            else:
                raise TypeError(f"not a concept expression: {c!r}")
        return values.pop()


def find_witness(
    sig: Signature,
    tbox: TBox,
    concept: ConceptExpr,
    max_size: int,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> FiniteModel | None:
    """First model of *tbox* (in enumerate_models order) where *concept* is nonempty.

    Bit-sliced equivalent of filtering enumerate_models by a nonempty
    extension; returns None when no such model exists up to *max_size*.
    The codes of each domain size are searched block by block in ascending
    order, and the search stops at the first block with a witness.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    _guard_bits(sig, max_size, max_bits)
    for k in range(1, max_size + 1):
        _, _, offsets, bits = _bit_layout(sig, k)
        low_bits = min(bits, BLOCK_BITS)
        ones = (1 << (1 << low_bits)) - 1
        low = _low_columns(low_bits)
        for block in range(1 << (bits - low_bits)):
            high = [ones if block >> j & 1 else 0 for j in range(bits - low_bits)]
            space = _CodeSpace(offsets, k, ones, low + high)
            models = ones
            for lhs, rhs in tbox.inclusions:
                models &= reduce(and_, space.extension(Or(Not(lhs), rhs)))
                if not models:
                    break
            else:
                witness = models & reduce(or_, space.extension(concept))
                if witness:
                    code = block << low_bits | (witness & -witness).bit_length() - 1
                    return _decode_model(code, sig, k)
    return None
