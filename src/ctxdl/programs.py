"""The imperative update language: parsing, printing, fuel-bounded evaluation.

Program grammar (``;`` associates left; ``fi``/``od`` close the compounds)::

    program   ::= command (';' command)*
    command   ::= 'skip'
                | 'add' assertion
                | 'del' assertion
                | 'if' guard 'then' program 'else' program 'fi'
                | 'while' guard 'do' program 'od'

    guard     ::= gconj ('|' gconj)*          -- '|' is sugar: a|b == !(!a & !b)
    gconj     ::= gunary ('&' gunary)*
    gunary    ::= '!' gunary | gatom
    gatom     ::= 'true' | 'false'
                | assertion                   -- a:C@U  or  (a,b):r@U
                | concept '<=' concept
                | '(' guard ')'

A guard-level ``!`` binds the whole atom that follows, so ``!A <= B`` negates
the subsumption; negate a concept on the left side with parentheses:
``(!A) <= B``. Disambiguation of ``(`` (role assertion vs. parenthesized
concept vs. parenthesized guard) uses bounded backtracking on the token
stream. Each ``if``, ``while``, guard ``!`` and guard parenthesis opens a
nesting level, shared with the concepts inside, and input nested deeper
than ``lexer.MAX_NESTING`` levels is a positioned ParseError.

Evaluation is the standard big-step relation over knowledge states. One
fuel unit is spent per rule application, each loop unfolding included, so
non-terminating loops surface as a FuelExhausted outcome instead of hanging.
``execute`` runs a program on a ``kb.WorkingState``, whose fact set its
``add`` and ``del`` commands change in place; an evaluation makes one over
the input state, which copies nothing, and freezes the final state once,
so the caller's state is never changed. Commands wait on an
explicit stack, so a long ``;`` chain costs no Python recursion; the
printers walk with ``values.render``, so a long ``;`` or ``|`` chain
prints.
Guard evaluation cost is not fuel: the reasoner has its own node budget, and
a guard that exhausts it aborts the run with the partial trace attached.
Only ``evaluate_trace`` builds a trace while it runs; ``evaluate`` builds
one only for a run that aborts, by taking back its writes and running it
again.
The inclusions never change, so a TBox keeps the verdict of every
subsumption atom decided over it (``reasoner.decide``, which
``kb.guard_sat`` calls once per atom): a ``while A <= B do ... od`` loop
runs the tableau once, not once per unfolding, and the runs, replays and
states that share the TBox run it no more. A kept verdict answers at any
budget its decision fitted in and raises below it, as the tableau would,
so budgets stay exact.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Union

from ctxdl.concepts import (
    Not as ConceptNot,
    Signature,
    parse_concept_operand,
    print_concept,
    print_concept_operand,
)
from ctxdl.contexts import ContextPoset
from ctxdl.errors import BudgetExceededError, EvalAborted, LoadError, ParseError, read_text
from ctxdl.kb import (
    Assertion,
    AssertGuard,
    FALSE_GUARD,
    Falsity,
    Guard,
    GuardAnd,
    GuardNot,
    KnowledgeState,
    SubsumeGuard,
    TRUE_GUARD,
    Truth,
    WorkingState,
    guard_sat,
    parse_assertion_stream,
)
from ctxdl.lexer import IDENT, TokenStream, chain, parse_whole
from ctxdl.reasoner import DEFAULT_NODE_BUDGET
from ctxdl.values import Node, Record, render

DEFAULT_FUEL = 10_000


# Program nodes are interned like guard and concept nodes (see
# ``ctxdl.values``), so comparing or hashing a long ``;`` chain costs one step.


class Skip(Node):
    __slots__ = ()


class Add(Node):
    __slots__ = ("assertion",)


class Del(Node):
    __slots__ = ("assertion",)


class Seq(Node):
    __slots__ = ("first", "second")


class If(Node):
    __slots__ = ("guard", "then_branch", "else_branch")


class While(Node):
    __slots__ = ("guard", "body")


Program = Union[Skip, Add, Del, Seq, If, While]

SKIP = Skip()


class TraceEntry(Record):
    """One executed command or branch decision.

    Structural sequencing produces no entry; it spends fuel but there is
    nothing to observe about it. *rule* is one of skip, add, del, if-true,
    if-false, while-true and while-false; *guard* is the guard's value, or
    None for a command without one.
    """

    __slots__ = ("rule", "guard", "added", "removed")


class Terminated(Record):
    """The run derived a final state; steps counts rule applications."""

    __slots__ = ("state", "steps")


class FuelExhausted(Record):
    """The fuel ran out; state is the last one reached."""

    __slots__ = ("state", "steps")


EvalOutcome = Union[Terminated, FuelExhausted]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_COMMAND_WORDS = frozenset({"skip", "add", "del", "if", "while"})


def parse_program(text: str, sig: Signature) -> Program:
    """Parse a program; every name is validated against the signature."""
    return parse_whole(text, _parse_program, sig)


def load_program(path: Union[str, Path], sig: Signature) -> Program:
    """Read and parse a program file; any failure raises LoadError."""
    try:
        return parse_program(read_text(path), sig)
    except ParseError as exc:
        raise LoadError.at(str(path), exc) from exc


def parse_guard(text: str, sig: Signature) -> Guard:
    return parse_whole(text, _parse_guard, sig)


def _parse_command(ts: TokenStream, sig: Signature) -> Program:
    tok = ts.peek()
    if tok.kind == IDENT and tok.text in _COMMAND_WORDS:
        ts.next()
        if tok.text == "skip":
            return SKIP
        if tok.text == "add":
            return Add(parse_assertion_stream(ts, sig))
        if tok.text == "del":
            return Del(parse_assertion_stream(ts, sig))
        ts.descend(tok)
        if tok.text == "if":
            guard = _parse_guard(ts, sig)
            ts.expect_word("then")
            then_branch = _parse_program(ts, sig)
            ts.expect_word("else")
            else_branch = _parse_program(ts, sig)
            ts.expect_word("fi")
            ts.ascend()
            return If(guard, then_branch, else_branch)
        guard = _parse_guard(ts, sig)
        ts.expect_word("do")
        body = _parse_program(ts, sig)
        ts.expect_word("od")
        ts.ascend()
        return While(guard, body)
    raise ParseError(f"expected a command, found {tok.found}", tok.line, tok.col)


def _parse_gunary(ts: TokenStream, sig: Signature) -> Guard:
    tok = ts.peek()
    if tok.kind == "!":
        ts.next()
        ts.descend(tok)
        child = _parse_gunary(ts, sig)
        ts.ascend()
        return GuardNot(child)
    return _parse_gatom(ts, sig)


def _parse_gatom(ts: TokenStream, sig: Signature) -> Guard:
    tok = ts.peek()
    if tok.kind == IDENT and tok.text == "true":
        ts.next()
        return TRUE_GUARD
    if tok.kind == IDENT and tok.text == "false":
        ts.next()
        return FALSE_GUARD
    if tok.kind == IDENT:
        if ts.peek(1).kind == ":":
            return AssertGuard(parse_assertion_stream(ts, sig))
        return _parse_subsume(ts, sig)
    if tok.kind == "(":
        if ts.peek(1).kind == IDENT and ts.peek(2).kind == ",":
            return AssertGuard(parse_assertion_stream(ts, sig))
        # Either a parenthesized concept opening a subsumption or a
        # parenthesized guard; try the subsumption reading first.
        mark = ts.mark()
        try:
            return _parse_subsume(ts, sig)
        except ParseError:
            ts.restore(mark)
        ts.next()
        ts.descend(tok)
        guard = _parse_guard(ts, sig)
        ts.expect(")")
        ts.ascend()
        return guard
    raise ParseError(f"expected a guard, found {tok.found}", tok.line, tok.col)


def _parse_subsume(ts: TokenStream, sig: Signature) -> Guard:
    # Operands are unary-level concepts: '&' and '|' after the atom belong
    # to the guard; write '(A & B) <= C' to pass a compound concept.
    lhs = parse_concept_operand(ts, sig)
    ts.expect("<=")
    rhs = parse_concept_operand(ts, sig)
    return SubsumeGuard(lhs, rhs)


def _guard_or(left: Guard, right: Guard) -> Guard:
    return GuardNot(GuardAnd(GuardNot(left), GuardNot(right)))


_parse_program = partial(chain, ";", _parse_command, Seq)
_parse_gconj = partial(chain, "&", _parse_gunary, GuardAnd)
_parse_guard = partial(chain, "|", _parse_gconj, _guard_or)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def print_program(prog: Program) -> str:
    """Render a program; parsing the result rebuilds the same tree for any
    parser-produced tree (sequencing prints flat and re-parses left-nested)."""
    return render(prog, _program_parts)


def print_guard(g: Guard) -> str:
    """Render a guard so that parsing the result rebuilds the same tree."""
    return render(g, _guard_parts)


def _program_parts(prog: Program) -> list:
    if isinstance(prog, Skip):
        return ["skip"]
    if isinstance(prog, Add):
        return [f"add {prog.assertion.text}"]
    if isinstance(prog, Del):
        return [f"del {prog.assertion.text}"]
    if isinstance(prog, Seq):
        return [(prog.first, _program_parts), "; ", (prog.second, _program_parts)]
    if isinstance(prog, If):
        return [
            "if ", (prog.guard, _guard_parts),
            " then ", (prog.then_branch, _program_parts),
            " else ", (prog.else_branch, _program_parts), " fi",
        ]
    if isinstance(prog, While):
        return ["while ", (prog.guard, _guard_parts), " do ", (prog.body, _program_parts), " od"]
    raise TypeError(f"not a program: {prog!r}")


def _guard_parts(g: Guard) -> list:
    if isinstance(g, Truth):
        return ["true"]
    if isinstance(g, Falsity):
        return ["false"]
    if isinstance(g, AssertGuard):
        return [g.assertion.text]
    if isinstance(g, SubsumeGuard):
        lhs = print_concept_operand(g.lhs)
        if isinstance(g.lhs, ConceptNot):
            # A leading '!' would re-parse as guard negation.
            lhs = f"({print_concept(g.lhs)})"
        return [f"{lhs} <= {print_concept_operand(g.rhs)}"]
    if isinstance(g, GuardNot):
        if isinstance(g.child, GuardAnd):
            return ["!(", (g.child, _guard_parts), ")"]
        return ["!", (g.child, _guard_parts)]
    if isinstance(g, GuardAnd):
        if isinstance(g.right, GuardAnd):
            return [(g.left, _guard_parts), " & (", (g.right, _guard_parts), ")"]
        return [(g.left, _guard_parts), " & ", (g.right, _guard_parts)]
    raise TypeError(f"not a guard: {g!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def execute(
    prog: Program,
    work: WorkingState,
    fuel: int,
    mode: str = "literal",
    poset: ContextPoset | None = None,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    tracing: bool = False,
) -> tuple[int, bool, tuple[TraceEntry, ...]]:
    """Run *prog* on *work* in place: the steps spent, whether the run
    completed before the fuel ran out, and, if *tracing*, the trace (else
    an empty one).

    ``Add`` and ``Del`` write the working state in place, so a write costs
    its one assertion, not a copy of the fact set. Pending commands wait on
    an explicit stack, so nesting depth costs no Python recursion. Fuel is
    checked before every rule application and spent in the order of the
    big-step derivation: a ``Seq`` pays before its first part runs, a loop
    pays for each guard test. Each command's rule is picked by its exact
    type, the most frequent kinds first; a run without a trace makes no
    trace entry.

    A run without a trace that aborts takes back its writes, last first,
    and runs again with one: the run is deterministic, so it aborts at the
    same rule application, and ``EvalAborted`` always carries the partial
    trace.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    written: list[Assertion] = []  # the writes that flipped their assertion in or out
    trace: list[TraceEntry] = []
    left = fuel
    pending = [prog]
    try:
        while pending and left:
            cmd = pending.pop()
            left -= 1
            kind = type(cmd)
            if kind is Seq:
                pending.append(cmd.second)
                pending.append(cmd.first)
            elif kind is Add:
                beta = cmd.assertion
                flipped = work.add(beta)
                if flipped:
                    written.append(beta)
                if tracing:
                    trace.append(TraceEntry("add", None, frozenset((beta,) if flipped else ()), frozenset()))
            elif kind is Del:
                beta = cmd.assertion
                flipped = work.discard(beta)
                if flipped:
                    written.append(beta)
                if tracing:
                    trace.append(TraceEntry("del", None, frozenset(), frozenset((beta,) if flipped else ())))
            elif kind is If:
                taken = guard_sat(work, cmd.guard, mode, poset, budget=budget)
                if tracing:
                    trace.append(TraceEntry("if-true" if taken else "if-false", taken, frozenset(), frozenset()))
                pending.append(cmd.then_branch if taken else cmd.else_branch)
            elif kind is While:
                taken = guard_sat(work, cmd.guard, mode, poset, budget=budget)
                if tracing:
                    rule = "while-true" if taken else "while-false"
                    trace.append(TraceEntry(rule, taken, frozenset(), frozenset()))
                if taken:
                    pending.append(cmd)  # test the guard again after the body
                    pending.append(cmd.body)
            elif kind is Skip:
                if tracing:
                    trace.append(TraceEntry("skip", None, frozenset(), frozenset()))
            else:
                raise TypeError(f"not a program: {cmd!r}")
    except BudgetExceededError as exc:
        if tracing:
            raise EvalAborted(exc, tuple(trace)) from exc
        for beta in reversed(written):
            work.add(beta) or work.discard(beta)
        return execute(prog, work, fuel, mode, poset, budget=budget, tracing=True)
    return fuel - left, not pending, tuple(trace)


def _run(
    prog: Program,
    state: KnowledgeState,
    fuel: int,
    mode: str,
    poset: ContextPoset | None,
    budget: int,
    tracing: bool,
) -> tuple[EvalOutcome, tuple[TraceEntry, ...]]:
    """``execute`` on a working state made from *state*, then frozen."""
    work = WorkingState(state)
    steps, done, trace = execute(prog, work, fuel, mode, poset, budget=budget, tracing=tracing)
    final = work.freeze()
    return (Terminated(final, steps) if done else FuelExhausted(final, steps)), trace


def evaluate(
    prog: Program,
    state: KnowledgeState,
    fuel: int = DEFAULT_FUEL,
    mode: str = "literal",
    poset: ContextPoset | None = None,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> EvalOutcome:
    """Big-step evaluation under a fuel bound.

    FuelExhausted is a normal outcome, not an error. The inclusions of the
    state are never touched; only the fact set changes.
    """
    outcome, _ = _run(prog, state, fuel, mode, poset, budget, False)
    return outcome


def evaluate_trace(
    prog: Program,
    state: KnowledgeState,
    fuel: int = DEFAULT_FUEL,
    mode: str = "literal",
    poset: ContextPoset | None = None,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[EvalOutcome, tuple[TraceEntry, ...]]:
    """Like evaluate, also returning the executed-rule trace in order."""
    return _run(prog, state, fuel, mode, poset, budget, True)
