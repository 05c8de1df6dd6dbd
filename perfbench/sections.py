"""sections: one op is one ``global_sections``, ``stable_under_refinement`` or ``glue`` call.

Five refinement trees per pass, three with universes of 10 facts at
depth 2 and two with 13 facts at depth 3, some built so that every
section is stable and the others so that none is. ``global_sections`` costs about 2^|universe| x stages there. Single
sections go through ``stable_under_refinement``; families of restrictions
go through ``glue``: compatible, incompatible and non-unique. The glue
ops bypass the subset enumeration, so a change to ``global_sections``
should leave them alone.
"""

from __future__ import annotations

import random
from functools import partial
from pathlib import Path

import ctxdl.kbfile
import ctxdl.sheaf

import gen
from harness import Mismatch, Op

# (universe, depth, stable) per tree. The op latencies fall in three
# steps: stable/glue calls (tenths of a ms), u10 enumerations (tens of ms)
# and u13 enumerations (hundreds of ms). With 4, 3 and 2 ops of each the
# median is the middle u10 op and the tail percentile the slower u13 op,
# away from the edges between steps.
TREES = ((10, 2, True), (10, 2, False), (10, 2, True), (13, 3, True), (13, 3, False))
UNIVERSES = (10, 13)


def enumerate_all(ps, chain, tree: gen.Tree) -> None:
    found = ctxdl.sheaf.global_sections(ps, "T", chain)
    want = 1 << tree.universe if tree.stable else 0
    distinct = {s.facts for s in found}
    if len(found) != want or len(distinct) != want:
        raise Mismatch(f"{len(found)} sections ({len(distinct)} distinct), expected {want}")


def check_stable(ps, section, chain, want) -> None:
    got = ctxdl.sheaf.stable_under_refinement(ps, section, chain)
    if got != want:
        raise Mismatch(f"stable_under_refinement gave {got}, expected {want}")


def check_glue(ps, family, cov, want: str, extra) -> None:
    got = ctxdl.sheaf.glue(ps, family, cov)
    if type(got).__name__ != want:
        raise Mismatch(f"glue gave {type(got).__name__}, expected {want}")
    if isinstance(got, ctxdl.sheaf.Glued) and got.section != extra:
        raise Mismatch("glued section differs from the one restricted")
    if isinstance(got, ctxdl.sheaf.NonUnique) and len(got.candidates) != extra:
        raise Mismatch(f"{len(got.candidates)} candidates, expected {extra}")


class Sections:
    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.ops: list[Op] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        S = ctxdl.sheaf
        trees = []
        for universe, depth, stable in TREES:
            tree = gen.refinement_tree(rng, universe, depth, stable)
            doc = ctxdl.kbfile.loads(tree.text)
            trees.append((tree, doc.presheaf(), list(doc.coverings), doc.signature))

        def section(i, ctx, facts):
            tree, ps, chain, sig = trees[i]
            return ps.section(ctx, S.parse_fact_list(", ".join(facts), sig))

        def pick(i, ctx):
            return [f for f in trees[i][0].universes[ctx] if rng.random() < 0.5]

        ops = [
            Op(f"global_sections_u{tree.universe}", partial(enumerate_all, ps, chain, tree))
            for tree, ps, chain, _ in trees
        ]
        # A single section of the unstable u13 tree: it fails at the last stage.
        tree, ps, chain, _ = trees[4]
        ops.append(Op("stable", partial(check_stable, ps, section(4, "T", pick(4, "T")), chain, (False, chain[-1]))))
        # Families over the last stage, which covers its target exactly
        # when the tree is stable and else misses one fact: glued on a
        # stable tree, non-unique on an unstable one, and incompatible when
        # one member flips a fact both members see.
        for i, kind in ((3, "Glued"), (4, "NonUnique"), (3, "Incompatible")):
            tree, ps, chain, _ = trees[i]
            target, members = tree.stages[-1]
            chosen = pick(i, target)
            seen = [[f for f in chosen if f in tree.universes[m]] for m in members]
            if kind == "Incompatible":
                shared = sorted(set(tree.universes[members[0]]) & set(tree.universes[members[1]]))
                seen[0] = sorted(set(seen[0]) ^ {rng.choice(shared)})
            family = [section(i, m, facts) for m, facts in zip(members, seen)]
            extra = {"Glued": section(i, target, chosen), "NonUnique": 2, "Incompatible": None}[kind]
            ops.append(Op("glue", partial(check_glue, ps, family, chain[-1], kind, extra)))
        rng.shuffle(ops)
        self.ops = ops

    def scaling(self, by_label: dict[str, list[float]]) -> dict[str, float]:
        return {
            f"sheaf.global_sections_u{u}_s": min(by_label[f"global_sections_u{u}"]) for u in UNIVERSES
        }
