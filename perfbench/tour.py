"""cli: one op is one ``python -m ctxdl.cli ...`` process, one at a time.

The README command tour with ``--format records``, run from a copy of the
tour's input files. Only here do interpreter start, ``import ctxdl.cli``
and cold loading dominate, and no cache outlives a process. The expected
records in tour/expected.json were checked by hand against the README.
The seed only shuffles the order of the commands in each pass; the
recording stays ahead of its replay. The reference job that puts the
latencies at reference speed is an interpreter start, ``python -c pass``:
interference slows process start-up and imports differently from the
work of a warm interpreter, and over ten minutes of it an interpreter
start tracked the tour commands' slowdown better than the in-process
loop of the library workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from harness import Mismatch, Op, Reference, Tally, run_pass

FIXTURES = Path(__file__).resolve().parent / "tour"
SRC = Path(__file__).resolve().parent.parent / "src"

TOUR = {
    "check": ["check", "sensing.kb"],
    "sat": ["sat", "chain.kb", "A & !C"],
    "subsumes": ["subsumes", "chain.kb", "A", "C"],
    "saturate": ["saturate", "chain.kb", "--dump", "state.txt"],
    "run_promote": ["run", "promote.p", "--kb", "chain.kb", "--trace"],
    "run_loop": ["run", "loop.p", "--kb", "empty.kb", "--fuel", "100"],
    "apply_oracle_record": [
        "apply-oracle", "chain.kb", "--script", "probe_session.jsonl",
        "--payload", "scan-1", "--payload", "scan-2", "--record", "session.log",
    ],
    "apply_oracle_replay": [
        "apply-oracle", "chain.kb", "--replay", "session.log", "--payload", "scan-1", "--payload", "scan-2",
    ],
    "glue": [
        "glue", "sensing.kb", "--target", "Scene",
        "--section", "Cam: scene:Obstacle", "--section", "Lidar: scene:Obstacle",
    ],
    "stable": ["stable", "refine.kb", "--context", "Cam", "--section", "scene:Obstacle"],
    "global_sections": ["global-sections", "sensing.kb", "--top", "Scene"],
    "stability": ["stability", "sensor_constant.json", "--runs", "4"],
}
SAMPLES = 5  # processes per start-up measurement, best one kept
# The best time of ``python -c pass`` on the machine the benchmark was
# written on (x86-64 VM, 2 vCPUs at 2.0 GHz, CPython 3.11).
INTERPRETER_START_S = 0.047
IN_PROCESS_TOURS = 20


def start_reference() -> Reference:
    """Interpreter starts as the reference job, for anything timed in child processes."""
    return Reference(
        lambda: subprocess.run([sys.executable, "-c", "pass"], env=child_env(), capture_output=True, timeout=120),
        INTERPRETER_START_S,
    )


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's sources, byte-code caches on.

    An installed ctxdl runs from cached byte code; without it each child
    would compile the package anew, and the ambient setting would decide.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Tour:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.ops: list[Op] = []

    def setup(self) -> None:
        for path in FIXTURES.iterdir():
            if path.name != "expected.json":
                shutil.copyfile(path, self.workdir / path.name)
        self.expected = json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))
        rng = random.Random(self.seed)
        order = list(TOUR)
        rng.shuffle(order)
        rec, rep = order.index("apply_oracle_record"), order.index("apply_oracle_replay")
        if rep < rec:
            order[rec], order[rep] = order[rep], order[rec]
        self.ops = [Op(label, lambda label=label: self.command(label)) for label in order]
        # A first process writes the byte-code caches every later one reads.
        self.command("check")

    def reference(self) -> Reference:
        return start_reference()

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=120,
        )

    def command(self, label: str) -> None:
        done = self.spawn(["-m", "ctxdl.cli", *TOUR[label], "--format", "records"])
        if done.returncode != 0:
            raise Mismatch(f"{label} exited {done.returncode}: {done.stderr.strip()[-200:]}")
        if done.stdout.splitlines() != self.expected[label]:
            raise Mismatch(f"{label} records differ from the expected ones")

    def in_process(self, label: str) -> None:
        import ctxdl.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ctxdl.cli.main([*TOUR[label], "--format", "records"])
        if code != 0 or out.getvalue().splitlines() != self.expected[label]:
            raise Mismatch(f"in-process {label} output differs from the expected records")

    def startup_ms(self, code: str) -> float:
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            done = self.spawn(["-c", code])
            times.append(time.perf_counter() - start)
            if done.returncode != 0:
                raise RuntimeError(f"python -c {code!r} failed: {done.stderr.strip()[-200:]}")
        return min(times) * 1e3

    def trace_run(self, seconds: float) -> tuple[dict[str, float], Tally]:
        """Best start-up and per-command wall times, then the tour in-process, traced.

        Takes about 15 s whatever *seconds* says: the per-command times need
        two passes of the tour and the in-process tours are short.
        """
        from tracing import Tracer, compare

        out = {"cli.interp_start_ms": self.startup_ms("pass")}
        out["cli.import_ms"] = self.startup_ms("import ctxdl.cli") - out["cli.interp_start_ms"]
        tally = Tally()
        run_pass(self.ops, tally)
        run_pass(self.ops, tally)
        for label in TOUR:
            out[f"cli.{label}_ms"] = min(tally.by_label[label]) * 1e3
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            inside = [Op(op.label, lambda label=op.label: self.in_process(label)) for op in self.ops]
            run_pass(inside, Tally())  # imports and first-use costs stay out of both sides
            tracer = Tracer()
            plain, traced, overhead = compare(inside, IN_PROCESS_TOURS, tracer)
        finally:
            os.chdir(cwd)
        out.update(tracer.per_layer())
        out["trace.overhead_ratio"] = overhead
        self.tracer = tracer
        tally.absorb(plain)
        tally.absorb(traced)
        return out, tally
