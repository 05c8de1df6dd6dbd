"""Exception hierarchy shared across the engine, and the one way files are read.

Errors that originate from a text position (parsing, file loading) carry
1-based ``line``/``col`` attributes so callers can render ``file:line``
diagnostics. Resource-limit conditions are distinct exception types, never
encoded as boolean results.

Every input file (documents, state dumps, programs, oracle scripts, session
logs, agent files) is decoded by ``read_text``, and a syntax error in one is
placed in it by ``LoadError.at``, so each kind of file fails the same way:
``path:line:col: message``.
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
