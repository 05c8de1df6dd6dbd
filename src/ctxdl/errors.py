"""Exception hierarchy shared across the engine.

Errors that originate from a text position (parsing, file loading) carry
1-based ``line``/``col`` attributes so callers can render ``file:line``
diagnostics. Resource-limit conditions are distinct exception types, never
encoded as boolean results.
"""

from __future__ import annotations


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
