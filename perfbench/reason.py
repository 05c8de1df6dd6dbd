"""reason: one op is one verdict of the tableau.

Three kinds of query. Classification sends every ordered pair of atomic
names of two TBoxes through ``subsumes``; the pairs share a TBox, so
caches and absorption pay off. The disjunction ladder shows the tableau's
backtracking complexity at n = 10, 12, 14. A stream of small random
instances shares nothing; each unsat verdict is re-checked by
``find_witness`` over the names that occur, domain capped at 3 under the
24-bit guard.

The structures come from fixed generator seeds and ``--seed`` renames the
names and reorders the queries. The naive tableau's cost on fresh random
TBoxes spans more than an order of magnitude from one TBox to the next,
which would swamp any bound on the run-to-run spread.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from pathlib import Path

import ctxdl.concepts
import ctxdl.kbfile
import ctxdl.reasoner

import gen
from harness import Mismatch, Op

CLASSIFICATION_SEED = 0
CLASSIFICATION_TBOXES = 2
POOL_SEED = 7
POOL_SIZE = 50
LADDER_SIZES = (10, 12, 14)
REFERENCE = Path(__file__).resolve().parent / "reference" / "reason_verdicts.json"


def pool_digest(pool: list[gen.Instance]) -> str:
    text = "\n".join(f"{inst.text}\n? {inst.concept}" for inst in pool)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> str:
    """Committed tableau verdicts ('1' sat, '0' unsat) of the random pool.

    Random sat verdicts have no reference independent of the engine: a
    witness found within the domain cap would confirm them, but most need
    no search to be right and some have no model that small. They are
    compared against verdicts committed with the benchmark and checked
    then (every unsat verdict had no witness); see write_reference.
    """
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pool = gen.instance_pool(POOL_SEED, POOL_SIZE)
    if ref["pool_sha256"] != pool_digest(pool) or len(ref["verdicts"]) != POOL_SIZE:
        raise RuntimeError(f"{REFERENCE} does not describe the generated pool; rewrite it")
    return ref["verdicts"]


def write_reference() -> None:
    pool = gen.instance_pool(POOL_SEED, POOL_SIZE)
    verdicts = []
    for inst in pool:
        doc = ctxdl.kbfile.loads(inst.text)
        concept = ctxdl.concepts.parse_concept(inst.concept, doc.signature)
        sat = ctxdl.reasoner.is_satisfiable(doc.tbox, concept)
        if not sat and ctxdl.reasoner.find_witness(doc.signature, doc.tbox, concept, inst.domain):
            raise RuntimeError(f"unsat verdict contradicted by a model: {inst}")
        verdicts.append("1" if sat else "0")
    REFERENCE.write_text(
        json.dumps({"pool_sha256": pool_digest(pool), "verdicts": "".join(verdicts)}, indent=1) + "\n",
        encoding="utf-8",
    )


def classify(tbox, lhs, rhs, want: bool) -> None:
    if ctxdl.reasoner.subsumes(tbox, lhs, rhs) != want:
        raise Mismatch(f"subsumes gave {not want}, expected {want}")


def refute_ladder(tbox, concept) -> None:
    if ctxdl.reasoner.is_satisfiable(tbox, concept):
        raise Mismatch("the ladder is unsat by construction")


def decide(doc, concept, domain: int, want: bool) -> None:
    sat = ctxdl.reasoner.is_satisfiable(doc.tbox, concept)
    if sat != want:
        raise Mismatch(f"verdict {sat} differs from the committed {want}")
    if not sat and ctxdl.reasoner.find_witness(doc.signature, doc.tbox, concept, domain) is not None:
        raise Mismatch("a finite model contradicts the unsat verdict")


class Reason:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.ops: list[Op] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        loads, parse = ctxdl.kbfile.loads, ctxdl.concepts.parse_concept
        verdicts = load_reference()
        labels = [f"Q{i}" for i in rng.sample(range(100), 16)]
        structure = random.Random(CLASSIFICATION_SEED)
        ops = []
        for _ in range(CLASSIFICATION_TBOXES):
            cls = gen.classification_tbox(structure, labels)
            doc = loads(cls.text)
            atoms = {name: parse(name, doc.signature) for name in cls.names}
            pairs = [(a, b) for a in cls.names for b in cls.names if a != b]
            rng.shuffle(pairs)
            ops += [
                Op("classify", partial(classify, doc.tbox, atoms[a], atoms[b], b in cls.subsumers[a]))
                for a, b in pairs
            ]
        for n in LADDER_SIZES:
            ladder = gen.ladder(rng, n)
            doc = loads(ladder.text)
            ops.append(Op(f"ladder_n{n}", partial(refute_ladder, doc.tbox, parse(ladder.concept, doc.signature))))
        concepts = tuple(rng.sample(("A", "B", "C"), 3))
        roles = tuple(rng.sample(("r", "s"), 2))
        stream = []
        for inst, verdict in zip(gen.instance_pool(POOL_SEED, POOL_SIZE, concepts, roles), verdicts):
            doc = loads(inst.text)
            concept = parse(inst.concept, doc.signature)
            stream.append(Op("random", partial(decide, doc, concept, inst.domain, verdict == "1")))
        rng.shuffle(stream)
        self.ops = ops + stream

    def scaling(self, by_label: dict[str, list[float]]) -> dict[str, float]:
        return {
            f"reasoner.ladder_n{n}_s": min(by_label[f"ladder_n{n}"]) for n in LADDER_SIZES
        }
