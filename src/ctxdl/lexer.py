"""Tokenizer shared by the concept, guard, program, KB-file, fact-list and
projection-pattern parsers.

The token grammar is one compiled pattern, ``_TOKEN``: blanks (space, tab,
CR), a newline, a ``#`` comment running to end of line, a token, or any
other character, which is a positioned ParseError. A token is an
identifier, ``[A-Za-z][A-Za-z0-9_]*``, written once as ``_IDENTIFIER``, or
a symbol: one character, or the two-character ``<=``. ``is_identifier``
matches a declared name against the same expression, so a name is valid
exactly when it lexes as one identifier. Every token carries a 1-based
(line, col) position, and ``tokenize`` fills its tokens column by column
with ``values.records``. Only projection patterns read ``*``, as a name
slot that matches any name; every other parser meets it where a name or an
operator belongs and rejects it there. A syntax error names the token it
met by ``Token.found``. ``parse_whole`` reads a whole text with one of
their stream readers, and rejects any input left after it. ``chain`` is
the one loop of the left-associative infix operators (``|``, ``&``, ``;``).

The concept, guard and program parsers share one nesting limit,
``MAX_NESTING``. Each ``!``, ``exists``/``forall``, parenthesis, ``if`` and
``while`` opens a level, counted across the three grammars together, and
the token that would open a level past the limit is a positioned
ParseError. Only the parsers take Python frames per level, at most four,
so the limit keeps them well inside the default recursion limit of 1,000
frames. At ``MAX_NESTING`` levels under CPython 3.11 the CLI needs a
recursion limit of 312 for concept parentheses (three frames a level),
112 for ``exists`` and for ``!`` (one), 417 for guard parentheses (four:
the guard levels, with the concept reading tried first at each), 219 for
``if`` and 213 for ``while`` in ``if`` (two), against 30 for the same
commands on input that opens no level. ``chain`` is bound with
``functools.partial``, which adds no frame; called as a plain function it
would add one per operator level, and the limits for concept
parentheses, guard parentheses and ``while`` in ``if`` would be 514, 620
and 315. ``values.render``
(behind the concept, guard and program printers and ``repr``), ``nnf``,
the tableau, program evaluation, ``guard_sat`` and the finite-model
evaluator ``_CodeSpace.extension`` (behind ``extension``,
``check_interpretation`` and the witness search) take none, so neither
a deeply nested concept nor a deep model costs them frames.
Long flat chains (``A & B & ...``, ``c1; c2; ...``) open no levels, and
all of these walk them without recursion. Nodes are interned, so
comparing or hashing a chain costs one step.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Callable

from ctxdl.errors import ParseError
from ctxdl.values import Record, records

END = "end"
IDENT = "ident"
MAX_NESTING = 100

_IDENTIFIER = "[A-Za-z][A-Za-z0-9_]*"
_SYMBOLS = "(){}.,:;@&|!*"  # and "<="
# The token grammar, one alternative per kind of match: blanks, a newline,
# a comment, a token (identifier or symbol), or a character no token
# starts with.
_TOKEN = re.compile(
    rf"[ \t\r]+|(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<token>{_IDENTIFIER}|<=|[{re.escape(_SYMBOLS)}])|(?P<bad>.)"
)
_KINDS = {symbol: symbol for symbol in ("<=", *_SYMBOLS)} | {"": END}  # any other token text is an IDENT
_is_identifier = re.compile(_IDENTIFIER).fullmatch


class Token(Record):
    # kind is IDENT, END, or the symbol text itself ("(", "<=", ...)
    __slots__ = ("kind", "text", "line", "col")

    @property
    def found(self) -> str:
        """The token as a syntax error names it: ``end of input`` or its quoted text."""
        return "end of input" if self.kind == END else repr(self.text)


def is_identifier(text: str) -> bool:
    """Whether *text* is one whole identifier token; names are checked with it."""
    return _is_identifier(text) is not None


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, ending with a synthetic END token."""
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    line, newline = 1, -1  # newline: the offset of the newline that opened the line
    m = None
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group == "token":
            texts.append(m[0])
            lines.append(line)
            cols.append(m.start() - newline)
        elif group == "newline":
            line += 1
            newline = m.start()
        elif group == "bad":
            message = "expected '=' after '<'" if m[0] == "<" else f"unexpected character {m[0]!r}"
            raise ParseError(message, line, m.start() - newline)
    # END follows the last character, or sits at the '#' of a comment that ends the text.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    texts.append("")
    lines.append(line)
    cols.append(end - newline)
    return records(Token, len(texts), map(_KINDS.get, texts, repeat(IDENT)), texts, lines, cols)


class TokenStream:
    """Cursor over a token list with save/restore for bounded backtracking."""

    def __init__(self, tokens: list[Token]):
        self._toks = tokens
        self._i = 0
        self._depth = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self._i + ahead, len(self._toks) - 1)
        return self._toks[j]

    def next(self) -> Token:
        tok = self._toks[self._i]
        if tok.kind != END:
            self._i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what or repr(kind)}, found {tok.found}", tok.line, tok.col)
        return self.next()

    def expect_word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != IDENT or tok.text != word:
            raise ParseError(f"expected '{word}', found {tok.found}", tok.line, tok.col)
        return self.next()

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == IDENT and tok.text == word

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != END:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    def descend(self, tok: Token) -> None:
        """Open one nesting level at *tok*; one past MAX_NESTING is an error."""
        if self._depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)
        self._depth += 1

    def ascend(self) -> None:
        """Close the innermost nesting level."""
        self._depth -= 1

    @property
    def pos(self) -> int:
        return self._i

    def mark(self) -> tuple[int, int]:
        """The cursor and nesting depth, for ``restore`` after a failed attempt."""
        return self._i, self._depth

    def restore(self, mark: tuple[int, int]) -> None:
        self._i, self._depth = mark


def parse_whole(text: str, read: Callable, sig: object):
    """``read(stream, sig)`` over the tokens of *text*; input left after
    what it reads is a positioned ParseError."""
    ts = TokenStream(tokenize(text))
    value = read(ts, sig)
    ts.expect_end()
    return value


def chain(op: str, read: Callable, join: Callable, ts: TokenStream, sig: object):
    """``read (op read)*`` at the cursor, folded to the left by ``join``:
    the loop of every infix operator. A parser binds it with
    ``functools.partial``, which adds no Python frame per nesting level."""
    left = read(ts, sig)
    while ts.peek().kind == op:
        ts.next()
        left = join(left, read(ts, sig))
    return left
