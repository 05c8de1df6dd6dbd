"""Spans around the calls into each ctxdl module, recorded from outside.

The engine's modules import each other's functions by name, so a wrapper
has to be bound at every place a function is looked up when called: the
defining module and each importer. ``Tracer.install`` rebinds them all and
``Tracer.uninstall`` puts the originals back. A span records its name,
start, end and parent; spans stay in memory and are written out once, at
the end of the run. A layer's self time is its spans' durations minus the
durations of their direct child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

import ctxdl.agents
import ctxdl.cli
import ctxdl.concepts
import ctxdl.kb
import ctxdl.kbfile
import ctxdl.oracle
import ctxdl.programs
import ctxdl.reasoner
import ctxdl.sheaf
from ctxdl.errors import BudgetExceededError
from ctxdl.programs import FuelExhausted
from harness import Op, Tally, run_pass

OnResult = Callable[["Tracer", Any, tuple, dict], None]


def compare(ops: list[Op], rounds: int, tracer: "Tracer") -> tuple[Tally, Tally, float]:
    """Untraced and traced passes in turn; returns both tallies and the overhead.

    The overhead compares the best pass of each kind, so a stretch of
    interference on the machine does not land on one side only.
    """
    plain, traced = Tally(), Tally()
    for _ in range(rounds):
        run_pass(ops, plain)
        tracer.install()
        try:
            run_pass(ops, traced)
        finally:
            tracer.uninstall()
    return plain, traced, min(traced.pass_times) / min(plain.pass_times)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_result: OnResult | None = None) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            self._stack.append(sid)
            self._child_time.append(0.0)
            start = time.perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, name, start)
                if parent < 0 or self.span_name[parent] != name_id:
                    self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            self._close(sid, name, start)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.span_end[sid] = end
        self._stack.pop()
        children = self._child_time.pop()
        duration = end - start
        self.self_time[name] += duration - children
        if self._child_time:
            self._child_time[-1] += duration

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

    # -- the ctxdl entry points -----------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every ctxdl module where they are called."""
        m = ctxdl

        def sites(name, fn, owners, on_result=None, attr=None):
            # *attr* names the binding when fn is already a wrapper.
            attr = attr or fn.__name__
            wrapper = self.wrap(name, fn, on_result)
            for owner in owners:
                if getattr(owner, attr, None) is fn:
                    self.patch(owner, attr, wrapper)

        everywhere = (m, m.reasoner, m.kb, m.kbfile, m.programs, m.oracle, m.sheaf, m.agents, m.cli, m.concepts)

        sites("kbfile.load", m.kbfile.loads, everywhere)
        sites("kbfile.load", m.kbfile.load_kb, everywhere)
        sites("concepts.parse", m.concepts.parse_concept, everywhere)
        sites("programs.parse", m.programs.parse_program, everywhere)

        def tableau(tr, result, args, kwargs):
            tr.counts["reasoner.tableau_calls"] += 1
            tr.counts["reasoner.tableau_unsat"] += result is False

        sites("reasoner.tableau", m.reasoner.is_satisfiable, everywhere, tableau)
        sites("reasoner.tableau", m.reasoner.subsumes, everywhere)

        def witness(tr, result, args, kwargs):
            tr.counts["reasoner.witness_calls"] += 1
            tr.counts["reasoner.witness_found"] += result is not None

        sites("reasoner.witness", m.reasoner.find_witness, everywhere, witness)
        sites("kb.saturate", m.kb.saturate, everywhere)

        # guard_sat recurses through its own module global; count only the
        # calls made from outside kb.
        guard = m.kb.guard_sat
        self.patch(m.kb, "guard_sat", self.wrap("kb.guard", guard))
        outer_guard = self.wrap("kb.guard", guard, lambda tr, *_: tr.counts.update(["kb.guard_calls"]))
        for owner in (m.programs, m.cli):
            if getattr(owner, "guard_sat", None) is guard:
                self.patch(owner, "guard_sat", outer_guard)

        sites("kb.digest", m.kb.abox_digest, everywhere, lambda tr, *_: tr.counts.update(["kb.digest_calls"]))

        def evaluated(tr, result, args, kwargs):
            outcome = result[0] if isinstance(result, tuple) else result
            tr.counts["programs.steps"] += outcome.steps
            tr.counts["programs.fuel_exhausted"] += isinstance(outcome, FuelExhausted)

        sites("programs.evaluate", m.programs.evaluate, everywhere, evaluated)
        sites("programs.evaluate", m.programs.evaluate_trace, everywhere, evaluated)

        sites("oracle.step", m.oracle.oracle_step, everywhere, lambda tr, *_: tr.counts.update(["oracle.steps"]))
        for cls in (m.oracle.ScriptedOracle, m.oracle.RecordingOracle, m.oracle.ReplayOracle):
            self.patch(cls, "respond", self.wrap("oracle.respond", cls.respond))

        sites(
            "agents.interact", m.agents.interact, everywhere,
            lambda tr, *_: tr.counts.update(["agents.interact_calls"]), attr="interact",
        )
        sites("agents.stability", m.agents.stability_check, everywhere)

        self.patch(m.kbfile.KBDocument, "presheaf", self.wrap("sheaf.presheaf_build", m.kbfile.KBDocument.presheaf))
        sites("sheaf.glue", m.sheaf.glue, everywhere, lambda tr, *_: tr.counts.update(["sheaf.glue_calls"]))
        sites("sheaf.stable", m.sheaf.stable_under_refinement, everywhere)

        def sections(tr, result, args, kwargs):
            ps, top = args[0], args[1]
            tr.counts["sheaf.sections_kept"] += len(result)
            tr.counts["sheaf.subsets_enumerated"] += 1 << len(ps.universe(top))

        sites("sheaf.global_sections", m.sheaf.global_sections, everywhere, sections)

    def per_layer(self) -> dict[str, float]:
        """Self times and counts under the names BENCHMARK.json lists."""
        c = self.counts
        s = self.self_time
        tableau_calls = c["reasoner.tableau_calls"]
        witness_calls = c["reasoner.witness_calls"]
        enumerated = c["sheaf.subsets_enumerated"]
        return {
            "kbfile.load_s": s["kbfile.load"],
            "concepts.parse_s": s["concepts.parse"],
            "programs.parse_s": s["programs.parse"],
            "reasoner.tableau_s": s["reasoner.tableau"],
            "reasoner.tableau_calls": tableau_calls,
            "reasoner.tableau_unsat_ratio": c["reasoner.tableau_unsat"] / tableau_calls if tableau_calls else 0.0,
            "reasoner.budget_exhausted": c[f"reasoner.tableau!{BudgetExceededError.__name__}"],
            "reasoner.witness_s": s["reasoner.witness"],
            "reasoner.witness_calls": witness_calls,
            "reasoner.witness_found_ratio": c["reasoner.witness_found"] / witness_calls if witness_calls else 0.0,
            "kb.saturate_s": s["kb.saturate"],
            "kb.guard_s": s["kb.guard"],
            "kb.guard_calls": c["kb.guard_calls"],
            "kb.digest_s": s["kb.digest"],
            "kb.digest_calls": c["kb.digest_calls"],
            "programs.evaluate_s": s["programs.evaluate"],
            "programs.steps": c["programs.steps"],
            "programs.fuel_exhausted": c["programs.fuel_exhausted"],
            "oracle.step_s": s["oracle.step"],
            "oracle.respond_s": s["oracle.respond"],
            "oracle.steps": c["oracle.steps"],
            "agents.interact_s": s["agents.interact"],
            "agents.stability_s": s["agents.stability"],
            "agents.interact_calls": c["agents.interact_calls"],
            "sheaf.presheaf_build_s": s["sheaf.presheaf_build"],
            "sheaf.glue_s": s["sheaf.glue"],
            "sheaf.glue_calls": c["sheaf.glue_calls"],
            "sheaf.stable_s": s["sheaf.stable"],
            "sheaf.global_sections_s": s["sheaf.global_sections"],
            "sheaf.sections_kept_ratio": c["sheaf.sections_kept"] / enumerated if enumerated else 0.0,
        }
