"""Exception hierarchy shared across the engine, and the one way files are read.

Errors that originate from a text position (parsing, file loading) carry
1-based ``line``/``col`` attributes so callers can render ``file:line``
diagnostics. Resource-limit conditions are distinct exception types, never
encoded as boolean results.

Every input file (documents, state dumps, programs, oracle scripts, session
logs, agent files) is decoded by ``read_text``, and a syntax error in one is
placed in it by ``LoadError.at``, so each kind of file fails the same way:
``path:line:col: message``. A string inside a JSON file (a projection
pattern, an assertion of an oracle script) is parsed on its own, so its
error is ``path:line: <what> '<text>': message``, where the message is
the parser's without its position inside the string. An agent file is
read by ``read_json``, which keeps where each field's value starts, so an
error in a field's value is placed at ``path:line:col`` of that value.

JSON text past one of the decoder's limits, a value nested deeper than it
recurses or an integer with more digits than ``int`` converts (4,300 by
default), is a ``LoadError`` too, worded by ``json_limit``. The decoder
says nowhere where the value is, so the error names the agent file, or
the line of an oracle script or session log, and no column.
"""

from __future__ import annotations

from os import PathLike


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EngineError):
    """Lexical or syntax error in concept, guard, program, or statement text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self._format())

    def _format(self) -> str:
        if self.line is not None and self.col is not None:
            return f"{self.line}:{self.col}: {self.message}"
        if self.line is not None:
            return f"{self.line}: {self.message}"
        return self.message


class UnknownNameError(ParseError):
    """An identifier was used without being declared."""


class LoadError(EngineError):
    """A document (KB, script, agent, state dump) failed to load.

    Rendered ``path:line:col: message``; the column, and then the line, are
    left out when unknown.
    """

    def __init__(self, path: str, line: int | None, message: str, col: int | None = None):
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        where = path if line is None else f"{path}:{line}"
        if line is not None and col is not None:
            where += f":{col}"
        super().__init__(f"{where}: {message}")

    @classmethod
    def at(cls, path: str, error: ParseError, line: int = 1) -> LoadError:
        """*error* placed in the file at *path*, keeping its line and column.

        *line* is the file line on which the parsed text starts; a state
        dump parses each of its lines on its own.
        """
        where = None if error.line is None else error.line + line - 1
        return cls(path, where, error.message, error.col)


def read_text(path: str | PathLike[str]) -> str:
    """The file at *path* decoded as UTF-8; a failure to read is a LoadError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise LoadError(str(path), 1, "file is not valid UTF-8 text") from exc
    except OSError as exc:
        raise LoadError(str(path), None, str(exc)) from exc


def read_json(path: str | PathLike[str]) -> tuple[object, dict[tuple, tuple[int, int]]]:
    """The JSON value in the file at *path*, and where its parts are.

    The second result maps the path of each value nested at most three
    levels deep (a tuple of object keys and list indexes, ``()`` for the
    whole value) to the 1-based (line, col) at which the value starts, so
    that an error in a field can name its place; three levels reach an
    agent file's query templates. A syntax error is a LoadError at its
    line and column; a value nested too deeply for the decoder, or an
    integer with more digits than it converts, is a LoadError at the file.
    """
    import json  # local imports: only agent files are read this way
    from json.decoder import WHITESPACE, scanstring

    text = read_text(path)
    # The walk below runs on valid JSON, so it meets no syntax error.
    # Deeper values are skipped whole by the decoder's own scanner.
    skip = json.JSONDecoder().scan_once
    offsets: dict[tuple, int] = {}

    def walk(pos: int, where: tuple, depth: int) -> int:
        """Record the value at *pos* and the values in it; return its end."""
        pos = WHITESPACE.match(text, pos).end()
        offsets[where] = pos
        opener = text[pos]
        if depth == 0 or opener not in "[{":
            return skip(text, pos)[1]
        pos = WHITESPACE.match(text, pos + 1).end()
        index = 0
        while text[pos] not in "]}":
            if opener == "{":
                key, pos = scanstring(text, pos + 1)
                pos = WHITESPACE.match(text, pos).end() + 1  # past the ':'
            else:
                key, index = index, index + 1
            pos = WHITESPACE.match(text, walk(pos, (*where, key), depth - 1)).end()
            if text[pos] == ",":
                pos = WHITESPACE.match(text, pos + 1).end()
        return pos + 1

    try:
        value = json.loads(text)
        walk(0, (), 3)
    except json.JSONDecodeError as exc:
        raise LoadError(str(path), exc.lineno, f"invalid JSON: {exc.msg}", exc.colno) from exc
    except (RecursionError, ValueError) as exc:
        raise LoadError(str(path), None, f"invalid JSON: {json_limit(exc)}") from exc
    return value, {
        where: (text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)) for where, pos in offsets.items()
    }


def json_limit(exc: RecursionError | ValueError) -> str:
    """What a JSON decoder limit that *exc* reports says about the text:
    nesting deeper than the decoder recurses, or an integer with more
    digits than ``int`` converts (4,300 by default)."""
    return "nested too deeply" if isinstance(exc, RecursionError) else "integer has too many digits"


class BudgetExceededError(EngineError):
    """The tableau ran out of its node budget: neither a yes nor a no answer."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"tableau node budget of {budget} exceeded")


class SearchSpaceError(EngineError):
    """An exhaustive enumeration was refused because its space is too large."""


class EvalAborted(EngineError):
    """Program evaluation stopped because a guard hit the reasoner budget.

    Carries the trace collected up to the aborting rule application.
    """

    def __init__(self, cause: BudgetExceededError, trace: tuple):
        self.cause = cause
        self.trace = trace
        super().__init__(f"evaluation aborted: {cause}")


class OracleError(EngineError):
    """Base class for oracle-layer failures."""


class UnknownOracleError(OracleError):
    """A query named an oracle that is not loaded."""


class ScriptLookupError(OracleError):
    """A scripted oracle has no entry for the (state digest, payload) key."""


class ReplayMismatchError(OracleError):
    """A replayed session diverged from the recorded one."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"replay position {position}: {message}")


class RefinementChainError(EngineError):
    """A refinement covering does not attach to any reached context."""


class InteractionError(EngineError):
    """An agent interaction failed (fuel exhausted, oracle failure, bad projection)."""
