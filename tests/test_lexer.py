"""The tokenizer against properties that need no second lexer."""

from __future__ import annotations

import re
import string

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdl.errors import ParseError
from ctxdl.lexer import END, IDENT, is_identifier, tokenize

SYMBOLS = "(){}.,:;@&|!*"
WORD_CHARS = string.ascii_letters + string.digits + "_"
# Every token start, every blank and a comment start; then a lone '<' and
# characters no token starts with: '=', a leading digit or underscore, a
# form feed, a letter outside ASCII and NUL. Half the texts draw only from
# the first list, so that long texts without a fault occur too.
PIECES = [*"aZq", "x1_", *SYMBOLS, "<=", *" \t\r\n", "#"]
FAULTS = ["<", "=", "7", "_", "\f", "é", "\0"]
texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=40),
    st.lists(st.sampled_from(PIECES + FAULTS), max_size=40),
).map("".join)

# What a gap between two tokens may hold; a comment runs to a newline, or
# to the end of the text after the last token.
INNER_GAP = re.compile(r"(?:[ \t\r\n]|#[^\n]*\n)*")
LAST_GAP = re.compile(r"(?:[ \t\r\n]|#[^\n]*\n)*(?:#[^\n]*)?")


def offset(text: str, line: int, col: int) -> int:
    """The index in *text* of the 1-based (line, col)."""
    return sum(len(s) + 1 for s in text.split("\n")[: line - 1]) + col - 1


def first_fault(text: str) -> tuple[str, int] | None:
    """The message and index of the first character outside comments that
    starts no token, or None when there is none."""
    in_comment = False
    for i, ch in enumerate(text):
        before = text[i - 1] if i else ""
        if ch == "\n":
            in_comment = False
        elif in_comment or ch in " \t\r" or ch in string.ascii_letters or ch in SYMBOLS:
            continue
        elif ch == "#":
            in_comment = True
        elif ch == "<":
            if text[i + 1 : i + 2] != "=":
                return "expected '=' after '<'", i
        elif ch == "=":
            if before != "<":
                return "unexpected character '='", i
        elif ch in WORD_CHARS:  # a digit or '_': only inside an identifier
            if not before or before not in WORD_CHARS:
                return f"unexpected character {ch!r}", i
        else:
            return f"unexpected character {ch!r}", i
    return None


class TestTokenize:
    @settings(max_examples=500, deadline=None)
    @given(texts)
    def test_tokens_cover_the_text(self, text):
        fault = first_fault(text)
        try:
            tokens = tokenize(text)
        except ParseError as exc:
            assert fault is not None, str(exc)
            message, at = fault
            assert (exc.message, offset(text, exc.line, exc.col)) == (message, at)
            return
        assert fault is None
        *tokens, end = tokens
        gaps = []
        pos = 0
        for tok in tokens:
            start = offset(text, tok.line, tok.col)
            assert text[start : start + len(tok.text)] == tok.text
            assert tok.kind == (IDENT if tok.text[0] in string.ascii_letters else tok.text)
            gaps.append(text[pos:start])
            pos = start + len(tok.text)
        assert all(INNER_GAP.fullmatch(gap) for gap in gaps)
        assert LAST_GAP.fullmatch(text[pos:])
        last_line = text.split("\n")[-1]
        col = last_line.index("#") + 1 if "#" in last_line else len(last_line) + 1
        assert (end.kind, end.text, end.line, end.col) == (END, "", text.count("\n") + 1, col)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(texts, st.text(WORD_CHARS + "é- \n", max_size=6)))
    def test_an_identifier_is_one_ident_token(self, text):
        try:
            kinds = [(t.kind, t.text) for t in tokenize(text)]
        except ParseError:
            kinds = None
        assert is_identifier(text) == (kinds == [(IDENT, text), (END, "")])
