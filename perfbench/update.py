"""update: one op is one ``agents.interact`` run, grouped by ``stability_check``.

Four agents over the 8-context poset, each with an ABox of 3,000
assertions: guards in literal and in saturated mode, each with a stable
and an alternating oracle. A run injects latent facts, runs an oracle
session mixing payload-pattern and exact-state entries, and runs a
program of add/del writes, assertion guards and a fuel-bounded while loop
with a subsumption guard. Every session is recorded to memory, replayed
with the replay recorded again, and the two logs compared byte for byte.
The same kb layer serves reads and writes, and the tableau runs only
through guards.
"""

from __future__ import annotations

import dataclasses
import io
import random
import time
from collections import Counter
from pathlib import Path

import ctxdl.agents
import ctxdl.kb
import ctxdl.kbfile
import ctxdl.oracle
import ctxdl.programs
import ctxdl.sheaf

import gen
from harness import Mismatch, Op

ABOX_SIZE = 3_000
# Saturated guards scan the ABox and cost about seven times a literal run.
# Three literal groups to one saturated put the median inside the literal
# runs and the tail percentile inside the saturated ones, away from the
# step between them.
AGENTS = (  # name, guard mode, alternating oracle, stability groups per pass
    ("literal_stable", "literal", False, 3),
    ("literal_alternating", "literal", True, 3),
    ("saturated_stable", "saturated", False, 1),
    ("saturated_alternating", "saturated", True, 1),
)
RUNS = 2  # interact runs per stability check
DEEP_SEQ = 3_000  # commands in the flat program kept as a known defect
ABOX_SCALES = (1_000, 3_000, 10_000)


class Update:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []
        self.defect: str | None = None
        self.latencies: list[float] = []
        original = ctxdl.agents.interact

        def timed_interact(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - start)

        # stability_check looks interact up in its module at every call.
        ctxdl.agents.interact = timed_interact
        self._original_interact = original

    def close(self) -> None:
        ctxdl.agents.interact = self._original_interact

    def setup(self) -> None:
        rng = random.Random(self.seed)
        ops = []
        for name, mode, alternating, groups in AGENTS:
            files = gen.update_agent(rng, name, ABOX_SIZE, mode, alternating)
            for fname, text in files.files.items():
                (self.workdir / fname).write_text(text, encoding="utf-8")
            agent = ctxdl.agents.load_agent(self.workdir / files.agent_file)
            facts = ctxdl.sheaf.parse_fact_list(", ".join(files.latent), agent.signature)
            latent = ctxdl.agents.LatentStructure.of("latent", facts)
            for _ in range(groups):
                ops.append(Op(name, lambda a=agent, l=latent, f=files: self.group(a, l, f), 2 * RUNS))
        rng.shuffle(ops)
        self.ops = ops
        doc = ctxdl.kbfile.loads(gen.kb_text(("Pad",), (), ("z",), ("U",)))
        self.deep_seq = (ctxdl.programs.parse_program(gen.flat_program(DEEP_SEQ), doc.signature), doc.state())

    def group(self, agent, latent, files: gen.AgentFiles) -> list[float]:
        first = len(self.latencies)
        log = io.StringIO()
        recorded = dataclasses.replace(agent, oracle=ctxdl.oracle.record_session(agent.oracle, log))
        report = ctxdl.agents.stability_check(recorded, latent, RUNS)
        check_report(report, files)
        replayer = ctxdl.oracle.replay_session(io.StringIO(log.getvalue()), agent.signature)
        relog = io.StringIO()
        replayed = dataclasses.replace(agent, oracle=ctxdl.oracle.record_session(replayer, relog))
        if ctxdl.agents.stability_check(replayed, latent, RUNS) != report:
            raise Mismatch("replayed stability report differs from the recorded one")
        if relog.getvalue() != log.getvalue():
            raise Mismatch("replayed session log differs from the recorded one")
        return self.latencies[first:]

    def known_defect(self) -> None:
        """Run the flat program, which must end as it does here by construction.

        ``skip; ...; skip`` with n commands terminates in 2n - 1 steps (n
        skips and n - 1 sequencing rules) and leaves the state unchanged.
        The evaluator recurses once per command, so today it raises
        RecursionError: that is kept in ``self.defect`` and reported, not
        counted as a failed op, since a run must have no failing op. Any
        other outcome fails.
        """
        prog, state = self.deep_seq
        try:
            outcome = ctxdl.programs.evaluate(prog, state, fuel=4 * DEEP_SEQ)
        except RecursionError:
            self.defect = f"the flat program of {DEEP_SEQ} commands raised RecursionError"
            return
        self.defect = None
        if not (
            isinstance(outcome, ctxdl.programs.Terminated)
            and outcome.steps == 2 * DEEP_SEQ - 1
            and outcome.state == state
        ):
            raise Mismatch(f"flat program ended as {outcome!r}")

    def scaling(self, by_label: dict[str, list[float]]) -> dict[str, float]:
        """saturate, a saturated guard and abox_digest at each ABox size (best of 3)."""
        rng = random.Random(self.seed)
        out = {}
        for size in ABOX_SCALES:
            abox = gen.random_abox(rng, size, [f"i{i}" for i in range(200)], gen.UPDATE_CONCEPTS[:12], gen.UPDATE_ROLES)
            body = gen.poset_text() + "abox\n" + "".join(f"  {a}.\n" for a in abox)
            doc = ctxdl.kbfile.loads(
                gen.kb_text(gen.UPDATE_CONCEPTS, gen.UPDATE_ROLES, [f"i{i}" for i in range(200)] + ["nobody"], (), body)
            )
            state = doc.state()
            # Absent from the ABox, so the saturated test scans all of it.
            guard = ctxdl.programs.parse_guard("nobody:Done@K7", doc.signature)
            calls = {
                "saturate": lambda: ctxdl.kb.saturate(doc.abox, doc.poset),
                "guard_saturated": lambda: ctxdl.kb.guard_sat(state, guard, "saturated", doc.poset),
                "digest": lambda: ctxdl.kb.abox_digest(doc.abox),
            }
            for what, call in calls.items():
                times = []
                for _ in range(3):
                    start = time.perf_counter()
                    call()
                    times.append(time.perf_counter() - start)
                out[f"kb.{what}_n{size}_s"] = min(times)
        out["programs.recursion_errors"] = 1 if self.defect else 0
        return out


def check_report(report, files: gen.AgentFiles) -> None:
    want = Counter(tuple(sorted(files.expected[seed % 2])) for seed in report.seeds)
    got = Counter()
    for manifested, count in report.outcomes:
        got[tuple(manifested.render())] += count
    if got != want:
        raise Mismatch(f"manifested {dict(got)}, expected {dict(want)}")
    if report.stable != files.stable:
        raise Mismatch(f"stability verdict {report.stable}, expected {files.stable}")
