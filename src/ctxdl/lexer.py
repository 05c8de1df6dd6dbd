"""Tokenizer shared by the concept, guard, program, KB-file, fact-list and
projection-pattern parsers.

Identifiers follow ``[A-Za-z][A-Za-z0-9_]*``, written once as the
character sets below; ``is_identifier`` checks a declared name against
them, so a name is valid exactly when it lexes as one identifier.
Symbols are single characters except the two-character ``<=``. ``#``
starts a comment running to end of line. Every token carries a 1-based
(line, col) position. Only projection patterns read ``*``, as a name slot
that matches any name; every other parser meets it where a name or an
operator belongs and rejects it there. A syntax error names the token it
met by ``Token.found``.

The concept, guard and program parsers share one nesting limit,
``MAX_NESTING``. Each ``!``, ``exists``/``forall``, parenthesis, ``if`` and
``while`` opens a level, counted across the three grammars together, and
the token that would open a level past the limit is a positioned
ParseError. Parsing and the tableau each take at most four Python frames
per level, so the limit keeps them well inside the default recursion
limit of 1,000 frames; ``values.render`` (behind the concept, guard and
program printers and ``repr``), ``nnf``, program evaluation,
``guard_sat`` and the finite-model evaluator ``_CodeSpace.extension``
(behind ``extension``, ``check_interpretation`` and the witness search)
take none.
Long flat chains (``A & B & ...``, ``c1; c2; ...``) open no levels, and
all of these walk them without recursion. Nodes are interned, so
comparing or hashing a chain costs one step.
"""

from __future__ import annotations

from ctxdl.errors import ParseError
from ctxdl.values import Record

_SYMBOLS = frozenset("(){}.,:;@&|!*")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_WORD_CHARS = _LETTERS | frozenset("0123456789_")

END = "end"
IDENT = "ident"
MAX_NESTING = 100

_set = object.__setattr__  # writes a field past Record's frozen __setattr__


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind is IDENT, END, or the symbol text itself ("(", "<=", ...)
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)

    @property
    def found(self) -> str:
        """The token as a syntax error names it: ``end of input`` or its quoted text."""
        return "end of input" if self.kind == END else repr(self.text)


def is_identifier(text: str) -> bool:
    """Whether *text* is one whole identifier token; names are checked with it."""
    return text[:1] in _LETTERS and _WORD_CHARS.issuperset(text)


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, ending with a synthetic END token."""
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _LETTERS:
            start = i
            startcol = col
            i += 1
            while i < n and text[i] in _WORD_CHARS:
                i += 1
            word = text[start:i]
            col += len(word)
            toks.append(Token(IDENT, word, line, startcol))
            continue
        if ch == "<":
            if i + 1 < n and text[i + 1] == "=":
                toks.append(Token("<=", "<=", line, col))
                i += 2
                col += 2
                continue
            raise ParseError("expected '=' after '<'", line, col)
        if ch in _SYMBOLS:
            toks.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token(END, "", line, col))
    return toks


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
