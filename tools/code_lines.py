"""Print the code lines of each ``src/ctxdl`` module, then their total.

A code line holds a token that is not a comment; blank lines, comment lines
and the lines of module, class and function docstrings do not count.
Usage: ``python tools/code_lines.py`` (standard library only).
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ctxdl"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    counts = {path.stem: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    for name, n in {**counts, "total": sum(counts.values())}.items():
        print(f"{n:6,d}  {name}")
