"""Fresh interpreters on this checkout, optionally with node hashes scrambled.

A node hashes by identity, so a set of nodes iterates in an order that
follows addresses: it changes with the nodes made before, and from run to
run. No output may follow it. A child started with a *salt* hashes
each node as ``hash((salt, id(node)))``, which deals the same nodes a
different order under each salt. Tests compare what children print under
several salts, and under several ``PYTHONHASHSEED`` values, with goldens
or with a plain child's output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SALTS = (1, 7, 65537)

# Runs before the child's own code. ``ctxdl`` loads its submodules lazily,
# so this imports ``values`` alone and no node exists yet. Patching a live
# process instead would make twin nodes: the unique table's keys hash the
# nodes among their fields.
_SCRAMBLE = "import ctxdl.values\nctxdl.values.Node.__hash__ = lambda n, s={salt!r}: hash((s, id(n)))\n"


def run_child(code: str, *argv, cwd=None, stdin=None, hashseed=None, salt=None) -> subprocess.CompletedProcess:
    """Run *code* with *argv* in a fresh interpreter on this checkout's
    sources and test helpers; *hashseed* sets ``PYTHONHASHSEED`` and
    *salt* scrambles node hashes."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    if salt is not None:
        code = _SCRAMBLE.format(salt=salt) + code
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        cwd=cwd, input=stdin, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )


def hash_orders(seeds) -> list[tuple]:
    """``(hashseed, salt)`` pairs for ``run_child``: each seed with node
    hashes left alone, then each salt under the ambient seed."""
    return [(seed, None) for seed in seeds] + [(None, salt) for salt in SALTS]
