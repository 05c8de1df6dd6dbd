"""Signature and concept expressions: parsing, printing, and normal forms.

Concept grammar (one-token lookahead, ``!`` and the quantifiers are prefix
operators binding tighter than ``&``, which binds tighter than ``|``)::

    disjunction ::= conjunction ('|' conjunction)*
    conjunction ::= unary ('&' unary)*
    unary       ::= '!' unary
                  | 'exists' ROLE '.' unary
                  | 'forall' ROLE '.' unary
                  | 'top' | 'bot' | CONCEPT
                  | '(' disjunction ')'

Every name must be declared in the signature before use; undeclared names
are rejected with a positioned error. ``expect_name`` is that check for
every parser that reads declared names from a token stream: concepts,
assertions, facts, projection patterns and ``glue --section``. Each
``!``, quantifier and parenthesis opens a nesting level, and input nested
deeper than ``lexer.MAX_NESTING`` levels is rejected the same way.
"""

from __future__ import annotations

from functools import partial

from ctxdl.errors import ParseError, UnknownNameError
from ctxdl.lexer import IDENT, TokenStream, chain, is_identifier, parse_whole
from ctxdl.values import Node, Record, render

_set = object.__setattr__  # writes a field past Record's frozen __setattr__

# Words with a fixed meaning in the concept/guard/program grammars or the
# document format; they can never be declared as names of any kind.
RESERVED_WORDS = frozenset(
    {
        "top", "bot", "exists", "forall",
        "true", "false",
        "skip", "add", "del", "if", "then", "else", "fi", "while", "do", "od",
        "signature", "contexts", "covers", "tbox", "abox", "facts",
        "concept", "role", "individual", "context", "cover", "by",
    }
)


class ConceptExpr(Node):
    """Base class for concept expression AST nodes.

    Nodes are interned (see ``ctxdl.values``): structurally equal
    expressions are the same object, so ``==`` and ``hash`` cost one step
    whatever the size of the tree. Each node also keeps its negation
    normal form once ``nnf`` has computed it.
    """

    __slots__ = ("_nnf",)


class Top(ConceptExpr):
    __slots__ = ()


class Bot(ConceptExpr):
    __slots__ = ()


class Atomic(ConceptExpr):
    __slots__ = ("name",)


class Not(ConceptExpr):
    __slots__ = ("child",)


class And(ConceptExpr):
    __slots__ = ("left", "right")


class Or(ConceptExpr):
    __slots__ = ("left", "right")


class Exists(ConceptExpr):
    __slots__ = ("role", "child")


class Forall(ConceptExpr):
    __slots__ = ("role", "child")


TOP = Top()
BOT = Bot()


class Signature(Record):
    """The four pairwise-disjoint name sets every document is checked against.

    Attributes:
        concept_names: atomic concept names.
        role_names: role names usable under the quantifiers.
        individual_names: individual names usable in assertions.
        context_names: names of the contextual domains.
    """

    __slots__ = ("concept_names", "role_names", "individual_names", "context_names")

    def __init__(self, concept_names=(), role_names=(), individual_names=(), context_names=()):
        object.__setattr__(self, "concept_names", frozenset(concept_names))
        object.__setattr__(self, "role_names", frozenset(role_names))
        object.__setattr__(self, "individual_names", frozenset(individual_names))
        object.__setattr__(self, "context_names", frozenset(context_names))
        self._validate()

    def _validate(self) -> None:
        kinds = [
            ("concept", self.concept_names),
            ("role", self.role_names),
            ("individual", self.individual_names),
            ("context", self.context_names),
        ]
        seen: dict[str, str] = {}
        for kind, names in kinds:
            for name in names:
                if not is_identifier(name):
                    raise ValueError(f"invalid {kind} name {name!r}")
                if name in RESERVED_WORDS:
                    raise ValueError(f"{kind} name {name!r} is a reserved word")
                if name in seen:
                    raise ValueError(
                        f"name {name!r} declared both as {seen[name]} and as {kind}"
                    )
                seen[name] = kind


def expect_name(ts: TokenStream, names: frozenset[str], kind: str) -> str:
    """Read one name declared in *names*; *kind* ("concept", ...) names it
    in the positioned ParseError or UnknownNameError raised otherwise.

    The one declared-name check of every parser. It runs for every name of
    every document, so on success it formats no string.
    """
    tok = ts.next()
    if tok.text in names:  # declared names are identifiers, so tok is one
        return tok.text
    if tok.kind != IDENT:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ParseError(f"expected {article} {kind} name, found {tok.found}", tok.line, tok.col)
    raise UnknownNameError(f"unknown {kind} name {tok.text!r}", tok.line, tok.col)


def parse_concept(text: str, sig: Signature) -> ConceptExpr:
    """Parse *text* into a concept expression over *sig*."""
    return parse_whole(text, parse_concept_stream, sig)


def parse_concept_stream(ts: TokenStream, sig: Signature) -> ConceptExpr:
    """Parse a concept expression starting at the stream cursor.

    Stops at the first token that cannot continue the expression, leaving it
    in the stream (used by the guard and statement parsers).
    """
    return _parse_or(ts, sig)


def parse_concept_operand(ts: TokenStream, sig: Signature) -> ConceptExpr:
    """Parse a unary-level concept (no bare '&'/'|' spine).

    Used where concept syntax is embedded in guard syntax and the binary
    operators belong to the guard level; compound operands take parentheses.
    """
    return _parse_unary(ts, sig)


def print_concept_operand(c: ConceptExpr) -> str:
    """Render *c* for a unary-level position: '&'/'|' spines get parentheses."""
    return render(c, _parts_unary)


def _parse_unary(ts: TokenStream, sig: Signature) -> ConceptExpr:
    tok = ts.peek()
    if tok.kind == "!":
        ts.next()
        ts.descend(tok)
        child = _parse_unary(ts, sig)
        ts.ascend()
        return Not(child)
    if tok.kind == IDENT and tok.text in ("exists", "forall"):
        ts.next()
        role = expect_name(ts, sig.role_names, "role")
        ts.expect(".")
        ts.descend(tok)
        child = _parse_unary(ts, sig)
        ts.ascend()
        return Exists(role, child) if tok.text == "exists" else Forall(role, child)
    if tok.kind == IDENT and tok.text in ("top", "bot"):
        ts.next()
        return TOP if tok.text == "top" else BOT
    if tok.kind == IDENT:
        return Atomic(expect_name(ts, sig.concept_names, "concept"))
    if tok.kind == "(":
        ts.next()
        ts.descend(tok)
        expr = _parse_or(ts, sig)
        ts.expect(")")
        ts.ascend()
        return expr
    raise ParseError(f"expected a concept expression, found {tok.found}", tok.line, tok.col)


_parse_and = partial(chain, "&", _parse_unary, And)
_parse_or = partial(chain, "|", _parse_and, Or)


# Printing precedence levels: higher binds tighter.
_PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def print_concept(c: ConceptExpr) -> str:
    """Render *c* so that parsing the result rebuilds the same tree."""
    return c.name if isinstance(c, Atomic) else render(c, _parts_or)


def _concept_parts(c: ConceptExpr) -> tuple[int, list]:
    """The precedence of *c* and its text for ``values.render``: strings
    and (operand, parts) pairs, the parts function of the precedence the
    operand must bind at."""
    if isinstance(c, Top):
        return _PREC_ATOM, ["top"]
    if isinstance(c, Bot):
        return _PREC_ATOM, ["bot"]
    if isinstance(c, Atomic):
        return _PREC_ATOM, [c.name]
    if isinstance(c, Not):
        return _PREC_UNARY, ["!", (c.child, _parts_unary)]
    if isinstance(c, (Exists, Forall)):
        word = "exists" if isinstance(c, Exists) else "forall"
        return _PREC_UNARY, [f"{word} {c.role}.", (c.child, _parts_unary)]
    if isinstance(c, And):
        # Right operand printed one level tighter to preserve associativity.
        return _PREC_AND, [(c.left, _parts_and), " & ", (c.right, _parts_unary)]
    if isinstance(c, Or):
        return _PREC_OR, [(c.left, _parts_or), " | ", (c.right, _parts_and)]
    raise TypeError(f"not a concept expression: {c!r}")


def _binding(need: int):
    """The parts function of an operand that must bind at least *need*:
    a looser one gets parentheses."""

    def parts(c: ConceptExpr) -> list:
        prec, text = _concept_parts(c)
        return text if prec >= need else ["(", *text, ")"]

    return parts


_parts_or, _parts_and, _parts_unary = _binding(_PREC_OR), _binding(_PREC_AND), _binding(_PREC_UNARY)


# What a node's _nnf holds when the node is its own NNF: a reference to
# itself would be a cycle, and keep the node alive after its last user.
_IS_NNF = False


def nnf(c: ConceptExpr) -> ConceptExpr:
    """Negation normal form: push negation down to atomic concepts.

    Each node keeps its NNF once computed, so asking again costs one
    lookup. Nodes whose NNF is pending wait on an explicit stack, so a
    long flat chain costs no Python recursion.
    """
    known = getattr(c, "_nnf", None)
    if known is None:
        _fill_nnf(c)
        known = c._nnf
    return c if known is _IS_NNF else known


def _fill_nnf(root: ConceptExpr) -> None:
    """Compute and keep the NNF of *root* and of every node it needs."""
    stack = [(root, _nnf_needs(root))]
    while stack:
        node, needs = stack[-1]
        subs = []
        for sub in needs:
            known = getattr(sub, "_nnf", None)
            if known is None:
                stack.append((sub, _nnf_needs(sub)))
                break
            subs.append(sub if known is _IS_NNF else known)
        else:
            stack.pop()
            if subs == needs and not isinstance(node, Not):
                result = node  # the operands are in NNF already
            else:
                result = _nnf_build(node, subs)
            _set(node, "_nnf", _IS_NNF if result is node else result)


def _nnf_needs(c: ConceptExpr) -> list[ConceptExpr]:
    """The nodes whose NNFs ``_nnf_build`` combines into the NNF of *c*."""
    if isinstance(c, (And, Or)):
        return [c.left, c.right]
    if isinstance(c, Not):
        x = c.child
        if isinstance(x, (Atomic, Top, Bot)):
            return []
        if isinstance(x, Not):
            return [x.child]
        if isinstance(x, (And, Or)):
            return [Not(x.left), Not(x.right)]
        if isinstance(x, (Exists, Forall)):
            return [Not(x.child)]
    elif isinstance(c, (Exists, Forall)):
        return [c.child]
    elif isinstance(c, (Atomic, Top, Bot)):
        return []
    raise TypeError(f"not a concept expression: {c!r}")


def _nnf_build(c: ConceptExpr, subs: list[ConceptExpr]) -> ConceptExpr:
    """The NNF of *c*, given the NNFs of ``_nnf_needs(c)``."""
    if isinstance(c, And):
        return And(*subs)
    if isinstance(c, Or):
        return Or(*subs)
    if isinstance(c, Exists):
        return Exists(c.role, *subs)
    if isinstance(c, Forall):
        return Forall(c.role, *subs)
    x = c.child
    if isinstance(x, Top):
        return BOT
    if isinstance(x, Bot):
        return TOP
    if isinstance(x, Atomic):
        return c
    if isinstance(x, Not):
        return subs[0]
    if isinstance(x, And):
        return Or(*subs)
    if isinstance(x, Or):
        return And(*subs)
    if isinstance(x, Exists):
        return Forall(x.role, *subs)
    return Exists(x.role, *subs)


def subconcepts(c: ConceptExpr) -> frozenset[ConceptExpr]:
    """All subtrees of *c*, including *c* itself."""
    out: set[ConceptExpr] = set()
    stack = [c]
    while stack:
        node = stack.pop()
        if node in out:
            continue
        out.add(node)
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Exists, Forall)):
            stack.append(node.child)
    return frozenset(out)
