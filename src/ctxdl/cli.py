"""Command-line driver.

Every subcommand maps to one engine operation and reports either a human
text summary (default) or line-delimited JSON records (``--format records``,
keys sorted, byte-stable across runs). Verdicts are data: a "no" answer
still exits 0. Exit code 2 flags bad input (files, syntax, cross-reference
failures), 1 flags runtime limits (reasoner budget, enumeration guards,
oracle mismatches).

Only the handlers that run programs, oracles, presheaves or agents import
those layers, so a command loads no module it does not use.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Iterable

from ctxdl.concepts import expect_name, parse_concept, print_concept
from ctxdl.contexts import Covering
from ctxdl.errors import (
    BudgetExceededError,
    EvalAborted,
    InteractionError,
    LoadError,
    OracleError,
    ParseError,
    RefinementChainError,
    SearchSpaceError,
)
from ctxdl.kb import (
    GUARD_MODES, KnowledgeState, WorkingState, canonical_abox, parse_fact_list, parse_fact_list_stream, saturate
)
from ctxdl.kbfile import KBDocument, load_kb, load_state, write_state
from ctxdl.lexer import TokenStream, tokenize
from ctxdl.reasoner import DEFAULT_NODE_BUDGET, is_satisfiable, subsumes

if TYPE_CHECKING:
    from ctxdl.sheaf import Presheaf, Section

INPUT_ERRORS = (LoadError, ParseError, ValueError, OSError)
RUNTIME_ERRORS = (
    BudgetExceededError,
    SearchSpaceError,
    OracleError,
    EvalAborted,
    RefinementChainError,
    InteractionError,
)


class _Report:
    """Collects records; renders them as text lines or JSONL."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.records: list[dict] = []
        self.lines: list[str] = []

    def add(self, record: dict, text: str | Iterable[str]) -> None:
        self.records.append(record)
        if isinstance(text, str):
            self.lines.append(text)
        else:
            self.lines.extend(text)

    def emit(self, out) -> None:
        if self.fmt == "records":
            for record in self.records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            for line in self.lines:
                out.write(line + "\n")


def _joined(texts: list[str], empty: str = "(empty)") -> str:
    return ", ".join(texts) or empty


def _section_json(section: Section) -> dict:
    return {"context": section.context, "facts": canonical_abox(section.facts)}


def _report_final(report: _Report, args, sig, abox, record: dict, head: tuple = ()) -> None:
    """Report the final fact set *abox* of a run: *record* gets it as its
    ``assertions``, the text lists it after *head*, one line each, or
    ``(empty)``; ``--dump`` writes it as a state dump."""
    lines = canonical_abox(abox)
    report.add({**record, "assertions": lines}, [*head, *(lines or ["(empty)"])])
    if args.dump:
        write_state(args.dump, sig, abox)


def _load_doc_state(args) -> tuple[KBDocument, "KnowledgeState"]:
    doc = load_kb(args.kb)
    state = doc.state()
    if getattr(args, "state", None):
        state = state.with_abox(load_state(args.state, doc.signature))
    return doc, state


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(args, report: _Report) -> None:
    doc = load_kb(args.kb)
    record = {
        "command": "check",
        "ok": True,
        "concepts": len(doc.signature.concept_names),
        "roles": len(doc.signature.role_names),
        "individuals": len(doc.signature.individual_names),
        "contexts": len(doc.signature.context_names),
        "coverings": len(doc.coverings),
        "inclusions": len(doc.tbox.inclusions),
        "assertions": len(doc.abox),
        "universe_facts": sum(len(v) for v in doc.universes.values()),
    }
    report.add(
        record,
        "ok: {concepts} concepts, {roles} roles, {individuals} individuals, "
        "{contexts} contexts, {coverings} coverings, {inclusions} inclusions, "
        "{assertions} assertions, {universe_facts} universe facts".format(**record),
    )


def _cmd_sat(args, report: _Report) -> None:
    doc = load_kb(args.kb)
    concept = parse_concept(args.concept, doc.signature)
    verdict = is_satisfiable(doc.tbox, concept, budget=args.budget)
    report.add(
        {"command": "sat", "concept": print_concept(concept), "satisfiable": verdict},
        f"{print_concept(concept)} is {'satisfiable' if verdict else 'unsatisfiable'}",
    )


def _cmd_subsumes(args, report: _Report) -> None:
    doc = load_kb(args.kb)
    lhs = parse_concept(args.lhs, doc.signature)
    rhs = parse_concept(args.rhs, doc.signature)
    verdict = subsumes(doc.tbox, lhs, rhs, budget=args.budget)
    report.add(
        {
            "command": "subsumes",
            "lhs": print_concept(lhs),
            "rhs": print_concept(rhs),
            "subsumes": verdict,
        },
        f"{print_concept(lhs)} {'is' if verdict else 'is not'} subsumed by {print_concept(rhs)}",
    )


def _cmd_saturate(args, report: _Report) -> None:
    doc, state = _load_doc_state(args)
    closed = saturate(state.abox, doc.poset)
    record = {"command": "saturate", "size_before": len(state.abox), "size_after": len(closed)}
    _report_final(report, args, doc.signature, closed, record)


def _cmd_run(args, report: _Report) -> None:
    from ctxdl.programs import DEFAULT_FUEL, FuelExhausted, evaluate_trace, load_program

    doc, state = _load_doc_state(args)
    program = load_program(args.program, doc.signature)
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    outcome, trace = evaluate_trace(
        program, state, fuel, args.guards, doc.poset, budget=args.budget
    )
    exhausted = isinstance(outcome, FuelExhausted)
    kind = "fuel-exhausted" if exhausted else "terminated"
    head = f"{kind} {'after' if exhausted else 'in'} {outcome.steps} steps"
    record = {"command": "run", "outcome": kind, "steps": outcome.steps}
    _report_final(report, args, doc.signature, outcome.state.abox, record, (head,))
    if args.trace:
        for i, entry in enumerate(trace):
            added, removed = canonical_abox(entry.added), canonical_abox(entry.removed)
            report.add(
                {
                    "command": "trace",
                    "index": i,
                    "rule": entry.rule,
                    "guard": entry.guard,
                    "added": added,
                    "removed": removed,
                },
                f"  [{i}] {entry.rule}"
                + (f" guard={str(entry.guard).lower()}" if entry.guard is not None else "")
                + "".join(f" +{text}" for text in added)
                + "".join(f" -{text}" for text in removed),
            )


def _cmd_apply_oracle(args, report: _Report) -> None:
    from ctxdl.oracle import OracleQuery, ask, load_script, record_session, replay_session

    doc, state = _load_doc_state(args)
    if args.replay:
        spec = replay_session(args.replay, doc.signature)
    else:
        if not args.script:
            raise ValueError("apply-oracle needs --script (or --replay)")
        spec = load_script(args.script, doc.signature)
    sink = None
    if args.record:
        sink = open(args.record, "w", encoding="utf-8")
        spec = record_session(spec, sink)
    work = WorkingState(state)
    try:
        for i, payload in enumerate(args.payload):
            (response,) = ask(work, spec, (OracleQuery(spec.name, payload),))
            report.add(
                {
                    "command": "oracle-step",
                    "seq": i,
                    "payload": payload,
                    "added": canonical_abox(response.additions),
                    "removed": canonical_abox(response.deletions),
                },
                f"[{i}] {payload}: +{len(response.additions)} -{len(response.deletions)}",
            )
    finally:
        if sink is not None:
            sink.close()
    _report_final(report, args, doc.signature, work.abox, {"command": "oracle-final"})


def _parse_cli_section(text: str, doc: KBDocument, ps: Presheaf) -> Section:
    """The family member ``CTX: fact, fact`` given to ``glue --section``."""
    ts = TokenStream(tokenize(text))
    ctx = expect_name(ts, doc.signature.context_names, "context")
    ts.expect(":", "':' after the section's context")
    facts = parse_fact_list_stream(ts, doc.signature)
    ts.expect_end()
    return ps.section(ctx, facts)


def _pick_covering(doc: KBDocument, target: str, index: int | None) -> Covering:
    matching = [c for c in doc.coverings if c.target == target]
    if not matching:
        raise ValueError(f"the document declares no covering of {target!r}")
    if index is None:
        if len(matching) > 1:
            raise ValueError(
                f"{len(matching)} coverings of {target!r} declared; pick one with --cover-index"
            )
        return matching[0]
    if not 0 <= index < len(matching):
        raise ValueError(f"--cover-index {index} out of range for {target!r}")
    return matching[index]


def _cmd_glue(args, report: _Report) -> None:
    from ctxdl.sheaf import DEFAULT_MAX_UNIVERSE, Glued, Incompatible, NonUnique, glue

    doc = load_kb(args.kb)
    ps = doc.presheaf()
    cov = _pick_covering(doc, args.target, args.cover_index)
    family = [_parse_cli_section(s, doc, ps) for s in args.section]
    limit = DEFAULT_MAX_UNIVERSE if args.max_universe is None else args.max_universe
    glue_result = glue(ps, family, cov, max_universe=limit)
    if isinstance(glue_result, Glued):
        report.add(
            {
                "command": "glue",
                "verdict": "glued",
                "section": _section_json(glue_result.section),
            },
            f"glued: {args.target}: " + _joined(canonical_abox(glue_result.section.facts)),
        )
    elif isinstance(glue_result, Incompatible):
        conflicts = [
            {
                "left": c.left,
                "right": c.right,
                "overlap": c.overlap,
                "facts": canonical_abox(c.facts),
            }
            for c in glue_result.conflicts
        ]
        report.add(
            {"command": "glue", "verdict": "incompatible", "conflicts": conflicts},
            ["incompatible:"]
            + [
                f"  {c['left']} vs {c['right']} at {c['overlap']}: " + ", ".join(c["facts"])
                for c in conflicts
            ],
        )
    else:
        assert isinstance(glue_result, NonUnique)
        report.add(
            {
                "command": "glue",
                "verdict": "non-unique",
                "candidates": [_section_json(s) for s in glue_result.candidates],
            },
            [f"non-unique: {len(glue_result.candidates)} candidate sections"]
            + ["  " + _joined(canonical_abox(s.facts)) for s in glue_result.candidates],
        )


def _cmd_stable(args, report: _Report) -> None:
    from ctxdl.sheaf import chain_from, stable_under_refinement

    doc = load_kb(args.kb)
    ps = doc.presheaf()
    section = ps.section(args.context, parse_fact_list(args.section, doc.signature))
    chain = chain_from(list(doc.coverings), args.context)
    verdict, failing = stable_under_refinement(ps, section, chain)
    record = {
        "command": "stable",
        "context": args.context,
        "facts": canonical_abox(section.facts),
        "stable": verdict,
        "coverings_checked": len(chain),
        "failing_cover": None
        if failing is None
        else {"target": failing.target, "members": sorted(failing.members)},
    }
    text = (
        f"stable under {len(chain)} coverings"
        if verdict
        else f"unstable: fails covering of {failing.target} by {', '.join(failing.members)}"
    )
    report.add(record, text)


def _cmd_global_sections(args, report: _Report) -> None:
    from ctxdl.sheaf import DEFAULT_MAX_UNIVERSE, chain_from, global_sections

    doc = load_kb(args.kb)
    ps = doc.presheaf()
    chain = chain_from(list(doc.coverings), args.top)
    limit = DEFAULT_MAX_UNIVERSE if args.max_universe is None else args.max_universe
    sections = global_sections(ps, args.top, chain, max_universe=limit)
    report.add(
        {
            "command": "global-sections",
            "top": args.top,
            "coverings_checked": len(chain),
            "count": len(sections),
        },
        f"{len(sections)} stable global sections over {args.top}",
    )
    for i, section in enumerate(sections):
        facts = canonical_abox(section.facts)
        report.add({"command": "section", "index": i, "facts": facts}, f"  [{i}] " + _joined(facts))


def _cmd_stability(args, report: _Report) -> None:
    from ctxdl.agents import LatentStructure, load_agent, stability_check

    agent = load_agent(args.agent)
    payload = (
        parse_fact_list(args.latent, agent.signature) if args.latent else frozenset()
    )
    latent = LatentStructure(args.latent_name, payload)
    seeds = None
    if args.seeds:
        seeds = []
        for item in args.seeds.split(","):
            try:
                seeds.append(int(item))
            except ValueError:
                raise ValueError(f"--seeds: {item!r} is not an integer") from None
    result = stability_check(agent, latent, args.runs, seeds)
    record = {
        "command": "stability",
        "agent": agent.name,
        "latent": latent.name,
        "runs": result.runs,
        "seeds": list(result.seeds),
        "stable": result.stable,
    }
    if result.stable:
        record["outcome"] = result.outcome.render()
        text = f"stable over {result.runs} runs: " + _joined(result.outcome.render(), "(nothing manifested)")
    else:
        record["outcomes"] = [
            {"facts": m.render(), "count": n} for m, n in result.outcomes
        ]
        text = [f"unstable over {result.runs} runs:"] + [
            f"  x{n}: " + _joined(m.render(), "(nothing manifested)") for m, n in result.outcomes
        ]
    report.add(record, text)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _limit(text: str) -> int:
    """An integer of 0 or more: the argument type of every limit flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a limit is 0 or more, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxdl",
        description="Contextual description-logic knowledge-base engine",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("kb", help="knowledge-base document")
        p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("check", help="load and validate a document")
    common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("sat", help="concept satisfiability against the document's inclusions")
    common(p)
    p.add_argument("concept")
    p.add_argument("--budget", type=_limit, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("subsumes", help="does the first concept entail the second?")
    common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--budget", type=_limit, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(fn=_cmd_subsumes)

    p = sub.add_parser("saturate", help="close the fact set downward over the context order")
    common(p)
    p.add_argument("--state", help="load the fact set from a state dump")
    p.add_argument("--dump", help="write the result as a state dump")
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("run", help="run a program against a knowledge state")
    p.add_argument("program", help="program file")
    p.add_argument("--kb", required=True)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--fuel", type=int)
    p.add_argument("--guards", choices=GUARD_MODES, default="literal")
    p.add_argument("--budget", type=_limit, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--state", help="load the fact set from a state dump")
    p.add_argument("--dump", help="write the final state as a state dump")
    p.add_argument("--trace", action="store_true", help="report each executed rule")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("apply-oracle", help="apply scripted oracle transitions")
    common(p)
    p.add_argument("--script", help="oracle script (JSONL)")
    p.add_argument("--payload", action="append", default=[], help="query payload (repeatable)")
    p.add_argument("--state", help="load the fact set from a state dump")
    p.add_argument("--dump", help="write the final state as a state dump")
    p.add_argument("--record", help="write transitions to this session log, replacing it")
    p.add_argument("--replay", help="replay this session log instead of a script")
    p.set_defaults(fn=_cmd_apply_oracle)

    p = sub.add_parser("glue", help="glue inline sections over a declared covering")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--cover-index", type=int, default=None)
    p.add_argument(
        "--section",
        action="append",
        required=True,
        help="family member as 'CTX: fact, fact' (repeatable)",
    )
    p.add_argument("--max-universe", type=_limit)
    p.set_defaults(fn=_cmd_glue)

    p = sub.add_parser("stable", help="check a section against the declared refinements")
    common(p)
    p.add_argument("--context", required=True)
    p.add_argument("--section", required=True, help="fact list, e.g. 'a:A, (a,b):r'")
    p.set_defaults(fn=_cmd_stable)

    p = sub.add_parser("global-sections", help="enumerate refinement-stable sections")
    common(p)
    p.add_argument("--top", required=True)
    p.add_argument("--max-universe", type=_limit)
    p.set_defaults(fn=_cmd_global_sections)

    p = sub.add_parser("stability", help="repeated agent interaction, exact-match verdict")
    p.add_argument("agent", help="agent definition file (JSON)")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.add_argument("--runs", type=int, default=4)
    p.add_argument("--seeds", help="comma-separated seed override")
    p.add_argument("--latent", help="latent fact list, e.g. 'probe:Seen'")
    p.add_argument("--latent-name", default="latent")
    p.set_defaults(fn=_cmd_stability)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    report = _Report(args.format)
    try:
        args.fn(args, report)
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit(sys.stdout)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
