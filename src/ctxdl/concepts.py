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
are rejected with a positioned error. Each ``!``, quantifier and
parenthesis opens a nesting level, and input nested deeper than
``lexer.MAX_NESTING`` levels is rejected the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ctxdl.errors import ParseError, UnknownNameError
from ctxdl.lexer import IDENT, Token, TokenStream, tokenize

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

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


class ConceptExpr:
    """Base class for concept expression AST nodes (structural equality)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(ConceptExpr):
    pass


@dataclass(frozen=True, slots=True)
class Bot(ConceptExpr):
    pass


@dataclass(frozen=True, slots=True)
class Atomic(ConceptExpr):
    name: str


@dataclass(frozen=True, slots=True)
class Not(ConceptExpr):
    child: ConceptExpr


@dataclass(frozen=True, slots=True)
class And(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True, slots=True)
class Or(ConceptExpr):
    left: ConceptExpr
    right: ConceptExpr


@dataclass(frozen=True, slots=True)
class Exists(ConceptExpr):
    role: str
    child: ConceptExpr


@dataclass(frozen=True, slots=True)
class Forall(ConceptExpr):
    role: str
    child: ConceptExpr


TOP = Top()
BOT = Bot()


@dataclass(frozen=True)
class Signature:
    """The four pairwise-disjoint name sets every document is checked against.

    Attributes:
        concept_names: atomic concept names.
        role_names: role names usable under the quantifiers.
        individual_names: individual names usable in assertions.
        context_names: names of the contextual domains.
    """

    concept_names: frozenset[str]
    role_names: frozenset[str]
    individual_names: frozenset[str]
    context_names: frozenset[str]

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
                if not IDENT_RE.match(name):
                    raise ValueError(f"invalid {kind} name {name!r}")
                if name in RESERVED_WORDS:
                    raise ValueError(f"{kind} name {name!r} is a reserved word")
                if name in seen:
                    raise ValueError(
                        f"name {name!r} declared both as {seen[name]} and as {kind}"
                    )
                seen[name] = kind


def parse_concept(text: str, sig: Signature) -> ConceptExpr:
    """Parse *text* into a concept expression over *sig*."""
    ts = TokenStream(tokenize(text))
    expr = parse_concept_stream(ts, sig)
    ts.expect_end()
    return expr


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
    return _fmt(c, _PREC_UNARY)


def _parse_or(ts: TokenStream, sig: Signature) -> ConceptExpr:
    left = _parse_and(ts, sig)
    while ts.peek().kind == "|":
        ts.next()
        left = Or(left, _parse_and(ts, sig))
    return left


def _parse_and(ts: TokenStream, sig: Signature) -> ConceptExpr:
    left = _parse_unary(ts, sig)
    while ts.peek().kind == "&":
        ts.next()
        left = And(left, _parse_unary(ts, sig))
    return left


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
        role = ts.expect(IDENT, "a role name")
        if role.text not in sig.role_names:
            raise UnknownNameError(f"unknown role name {role.text!r}", role.line, role.col)
        ts.expect(".")
        ts.descend(tok)
        child = _parse_unary(ts, sig)
        ts.ascend()
        return Exists(role.text, child) if tok.text == "exists" else Forall(role.text, child)
    if tok.kind == IDENT:
        ts.next()
        if tok.text == "top":
            return TOP
        if tok.text == "bot":
            return BOT
        if tok.text not in sig.concept_names:
            raise UnknownNameError(f"unknown concept name {tok.text!r}", tok.line, tok.col)
        return Atomic(tok.text)
    if tok.kind == "(":
        ts.next()
        ts.descend(tok)
        expr = _parse_or(ts, sig)
        ts.expect(")")
        ts.ascend()
        return expr
    found = "end of input" if tok.kind == "end" else f"{tok.text!r}"
    raise ParseError(f"expected a concept expression, found {found}", tok.line, tok.col)


# Printing precedence levels: higher binds tighter.
_PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def print_concept(c: ConceptExpr) -> str:
    """Render *c* so that parsing the result rebuilds the same tree."""
    return _fmt(c, _PREC_OR)


def _fmt(c: ConceptExpr, min_prec: int) -> str:
    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bot):
        return "bot"
    if isinstance(c, Atomic):
        return c.name
    if isinstance(c, Not):
        s = "!" + _fmt(c.child, _PREC_UNARY)
        return s if _PREC_UNARY >= min_prec else f"({s})"
    if isinstance(c, (Exists, Forall)):
        word = "exists" if isinstance(c, Exists) else "forall"
        s = f"{word} {c.role}.{_fmt(c.child, _PREC_UNARY)}"
        return s if _PREC_UNARY >= min_prec else f"({s})"
    if isinstance(c, And):
        # Right operand printed one level tighter to preserve associativity.
        s = f"{_fmt(c.left, _PREC_AND)} & {_fmt(c.right, _PREC_UNARY)}"
        return s if _PREC_AND >= min_prec else f"({s})"
    if isinstance(c, Or):
        s = f"{_fmt(c.left, _PREC_OR)} | {_fmt(c.right, _PREC_AND)}"
        return s if _PREC_OR >= min_prec else f"({s})"
    raise TypeError(f"not a concept expression: {c!r}")


def nnf(c: ConceptExpr) -> ConceptExpr:
    """Negation normal form: push negation down to atomic concepts."""
    if isinstance(c, (Top, Bot, Atomic)):
        return c
    if isinstance(c, And):
        return And(nnf(c.left), nnf(c.right))
    if isinstance(c, Or):
        return Or(nnf(c.left), nnf(c.right))
    if isinstance(c, Exists):
        return Exists(c.role, nnf(c.child))
    if isinstance(c, Forall):
        return Forall(c.role, nnf(c.child))
    if isinstance(c, Not):
        x = c.child
        if isinstance(x, Top):
            return BOT
        if isinstance(x, Bot):
            return TOP
        if isinstance(x, Atomic):
            return c
        if isinstance(x, Not):
            return nnf(x.child)
        if isinstance(x, And):
            return Or(nnf(Not(x.left)), nnf(Not(x.right)))
        if isinstance(x, Or):
            return And(nnf(Not(x.left)), nnf(Not(x.right)))
        if isinstance(x, Exists):
            return Forall(x.role, nnf(Not(x.child)))
        if isinstance(x, Forall):
            return Exists(x.role, nnf(Not(x.child)))
    raise TypeError(f"not a concept expression: {c!r}")


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
