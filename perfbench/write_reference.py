"""Rewrite reference/reason_verdicts.json after a change to the random pool.

Run from the repository root: python3 perfbench/write_reference.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import reason  # noqa: E402

reason.write_reference()
