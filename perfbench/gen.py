"""Seeded input generators for the benchmark.

Every generator takes an explicit ``random.Random`` and returns plain text
(knowledge-base documents, concepts, programs, oracle scripts, agent files)
plus the facts the benchmark needs to know the right answer by
construction. Nothing here imports the engine or the test suite, so an
edit to either cannot change the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Concepts as nested tuples, printed fully parenthesized
# ---------------------------------------------------------------------------
# ("atom", name) | ("top",) | ("bot",) | ("not", c) | ("and", l, r)
# | ("or", l, r) | ("exists", role, c) | ("forall", role, c)


def show(c: tuple) -> str:
    kind = c[0]
    if kind == "atom":
        return c[1]
    if kind in ("top", "bot"):
        return kind
    if kind == "not":
        return f"!{show(c[1])}"
    if kind in ("and", "or"):
        op = " & " if kind == "and" else " | "
        return f"({show(c[1])}{op}{show(c[2])})"
    return f"{kind} {c[1]}.{show(c[2])}"


def names_in(c: tuple, concepts: set, roles: set) -> None:
    kind = c[0]
    if kind == "atom":
        concepts.add(c[1])
    elif kind == "not":
        names_in(c[1], concepts, roles)
    elif kind in ("and", "or"):
        names_in(c[1], concepts, roles)
        names_in(c[2], concepts, roles)
    elif kind in ("exists", "forall"):
        roles.add(c[1])
        names_in(c[2], concepts, roles)


def random_concept(rng: random.Random, depth: int, concepts=("A", "B", "C"), roles=("r", "s")) -> tuple:
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(len(concepts) + 2)
        if pick == 0:
            return ("top",)
        if pick == 1:
            return ("bot",)
        return ("atom", concepts[pick - 2])
    kind = rng.choice(("not", "and", "or", "exists", "forall"))
    if kind == "not":
        return ("not", random_concept(rng, depth - 1, concepts, roles))
    if kind in ("and", "or"):
        return (
            kind,
            random_concept(rng, depth - 1, concepts, roles),
            random_concept(rng, depth - 1, concepts, roles),
        )
    return (kind, rng.choice(roles), random_concept(rng, depth - 1, concepts, roles))


def kb_text(concepts, roles=(), individuals=(), contexts=(), body: str = "") -> str:
    lines = ["signature"]
    if concepts:
        lines.append("  concept " + ", ".join(concepts) + ".")
    if roles:
        lines.append("  role " + ", ".join(roles) + ".")
    if individuals:
        lines.append("  individual " + ", ".join(individuals) + ".")
    if contexts:
        lines.append("contexts")
        lines.append("  context " + ", ".join(contexts) + ".")
    return "\n".join(lines) + "\n" + body


# ---------------------------------------------------------------------------
# reason: classification TBoxes, the disjunction ladder, random instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """A negation-free, acyclic TBox with atomic left sides, and its subsumers.

    Without negation or bot every concept is satisfiable, and inclusions
    with atomic left sides never let a successor constrain its
    predecessor, so A <= B holds exactly when B is reached from A in every
    way of choosing one disjunct of each disjunction met on the way.
    """

    text: str
    names: tuple[str, ...]
    subsumers: dict[str, frozenset[str]]


def classification_tbox(rng: random.Random, labels, roles=("r", "s")) -> Classification:
    """14-16 names from *labels* and 18-20 inclusions pointing down a seeded order."""
    n = rng.randint(14, 16)
    names = tuple(labels[:n])
    order = list(names)
    rng.shuffle(order)
    axioms: list[tuple[str, list]] = []  # (lhs, rhs conjuncts)
    for _ in range(rng.randint(18, 20)):
        i = rng.randrange(n - 2)
        lhs, below = order[i], order[i + 1 :]
        parts = []
        for _ in range(rng.choice((1, 1, 2))):
            roll = rng.random()
            if roll < 0.5:
                parts.append(("atom", rng.choice(below)))
            elif roll < 0.75:
                left, right = rng.sample(below, 2)
                parts.append(("or", ("atom", left), ("atom", right)))
            else:
                kind = "exists" if roll < 0.9 else "forall"
                parts.append((kind, rng.choice(roles), ("atom", rng.choice(below))))
        axioms.append((lhs, parts))
    body = ["tbox"]
    for lhs, parts in axioms:
        rhs = parts[0]
        for p in parts[1:]:
            rhs = ("and", rhs, p)
        body.append(f"  {lhs} <= {show(rhs)}.")
    text = kb_text(names, roles, body="\n".join(body) + "\n")
    return Classification(text, names, {a: _subsumers(a, axioms, names) for a in names})


def _subsumers(start: str, axioms, names) -> frozenset[str]:
    memo: dict[frozenset, frozenset] = {}

    def close(state: frozenset) -> frozenset:
        # Atoms entailed in every branch that extends *state*.
        if state in memo:
            return memo[state]
        memo[state] = frozenset(names)  # a cycle of choices adds nothing new
        atoms = set(state)
        changed = True
        while changed:
            changed = False
            for lhs, parts in axioms:
                if lhs in atoms:
                    for p in parts:
                        if p[0] == "atom" and p[1] not in atoms:
                            atoms.add(p[1])
                            changed = True
        for lhs, parts in axioms:
            if lhs not in atoms:
                continue
            for p in parts:
                if p[0] == "or" and p[1][1] not in atoms and p[2][1] not in atoms:
                    result = close(frozenset(atoms | {p[1][1]})) & close(frozenset(atoms | {p[2][1]}))
                    memo[state] = result
                    return result
        memo[state] = frozenset(atoms)
        return memo[state]

    return close(frozenset({start}))


@dataclass(frozen=True)
class Ladder:
    """(A1|B1) & ... & (An|Bn) & exists r.C & forall r.!C: unsat by construction."""

    text: str
    concept: str


def ladder(rng: random.Random, n: int) -> Ladder:
    """The conjuncts come in a seeded order; the tableau branches on every
    disjunction before it meets the clash, whatever the order."""
    pairs = [f"(A{i} | B{i})" for i in range(1, n + 1)]
    parts = pairs + ["exists r.C", "forall r.!C"]
    rng.shuffle(parts)
    names = [f"A{i}" for i in range(1, n + 1)] + [f"B{i}" for i in range(1, n + 1)] + ["C"]
    return Ladder(kb_text(names, ("r",)), " & ".join(parts))


@dataclass(frozen=True)
class Instance:
    """A small random TBox and concept over the names that occur in them."""

    text: str
    concept: str
    domain: int  # largest domain size whose model codes fit in 24 bits


MAX_BITS = 24


def random_instance(rng: random.Random, concepts=("A", "B", "C"), roles=("r", "s")) -> Instance:
    inclusions = [
        (random_concept(rng, 3, concepts, roles), random_concept(rng, 3, concepts, roles))
        for _ in range(rng.randint(0, 2))
    ]
    concept = random_concept(rng, 3, concepts, roles)
    used_c: set = set()
    used_r: set = set()
    names_in(concept, used_c, used_r)
    for lhs, rhs in inclusions:
        names_in(lhs, used_c, used_r)
        names_in(rhs, used_c, used_r)
    sig_c = sorted(used_c) or [concepts[0]]  # a document declares at least one name
    sig_r = sorted(used_r)
    domain = max(k for k in (1, 2, 3) if len(sig_c) * k + len(sig_r) * k * k <= MAX_BITS)
    body = "".join(f"  {show(lhs)} <= {show(rhs)}.\n" for lhs, rhs in inclusions)
    text = kb_text(sig_c, sig_r, body=("tbox\n" + body) if body else "")
    return Instance(text, show(concept), domain)


def instance_pool(seed: int, size: int, concepts=("A", "B", "C"), roles=("r", "s")) -> list[Instance]:
    rng = random.Random(seed)
    return [random_instance(rng, concepts, roles) for _ in range(size)]


# ---------------------------------------------------------------------------
# update: an agent over an 8-context poset with a large ABox
# ---------------------------------------------------------------------------

# K0 is the top; each context lists the contexts directly above it.
POSET = {
    "K0": (),
    "K1": ("K0",),
    "K2": ("K0",),
    "K3": ("K1",),
    "K4": ("K1", "K2"),
    "K5": ("K2",),
    "K6": ("K3", "K4"),
    "K7": ("K4", "K5"),
}
CONTEXTS = tuple(POSET)


def poset_text() -> str:
    """The ``contexts`` section declaring POSET."""
    return (
        "contexts\n  context " + ", ".join(CONTEXTS) + ".\n"
        + "".join(f"  {c} <= {p}.\n" for c, ps in POSET.items() for p in ps)
    )


def render(ind: str, concept: str, ctx: str) -> str:
    return f"{ind}:{concept}@{ctx}"


def random_abox(rng: random.Random, size: int, individuals, concepts, roles) -> list[str]:
    """*size* distinct concept and role assertions over the poset."""
    out: set[str] = set()
    while len(out) < size:
        ctx = rng.choice(CONTEXTS)
        if rng.random() < 0.6:
            out.add(render(rng.choice(individuals), rng.choice(concepts), ctx))
        else:
            a, b = rng.choice(individuals), rng.choice(individuals)
            out.add(f"({a},{b}):{rng.choice(roles)}@{ctx}")
    return sorted(out)


@dataclass(frozen=True)
class AgentFiles:
    """Generated agent documents and the answers known by construction."""

    files: dict[str, str]  # file name -> text
    agent_file: str
    latent: tuple[str, ...]  # latent facts as "ind:Concept"
    expected: dict[int, frozenset[str]]  # seed parity -> manifested facts
    stable: bool  # under the agent's seed policy


UPDATE_CONCEPTS = tuple(f"P{i}" for i in range(12)) + ("High", "Low", "Pend", "Done", "Obstacle", "Seen")
UPDATE_ROLES = ("near", "sees")


def update_agent(rng: random.Random, name: str, abox_size: int, mode: str, alternating: bool) -> AgentFiles:
    """An agent whose oracle, program and projection give a known outcome.

    The oracle answers ``scan-<parity>`` with ``probe:High`` for even seeds
    and, when *alternating*, with ``probe:Low`` for odd ones; the program
    then adds ``scene:Obstacle`` only after ``probe:High``. Exact-state
    script entries are keyed on the canonical digest the state has when
    they are queried, so they hit only if the engine reaches that state.
    """
    individuals = tuple(f"i{i}" for i in range(60)) + ("probe", "scene", "done") + tuple(
        f"p{i}" for i in range(8)
    )
    base = set(random_abox(rng, abox_size, individuals[:60], UPDATE_CONCEPTS[:12], UPDATE_ROLES))
    pending = 6
    pend_ctx = "K0"
    for i in range(pending):
        base.add(render(f"p{i}", "Pend", pend_ctx))
    tbox = ["tbox", "  P0 <= P1.", "  P1 <= P2 & exists near.P3.", "  P2 <= P4 | P5.", "  P4 <= P6.", "  P5 <= P6."]
    kb = kb_text(
        UPDATE_CONCEPTS,
        UPDATE_ROLES,
        individuals,
        (),
        poset_text() + "\n".join(tbox) + "\nabox\n"
        + "".join(f"  {a}.\n" for a in sorted(base)),
    )
    input_ctx = "K7"
    latent = tuple(sorted({f"i{rng.randrange(60)}:{rng.choice(UPDATE_CONCEPTS[:12])}" for _ in range(6)}))
    injected = {f"{f}@{input_ctx}" for f in latent}

    def canon(facts) -> str:
        return ";".join(sorted(facts))

    # Script: many payload patterns scanned in order, and exact-state entries.
    entries = [{"name": "feed", "allow_deletions": True}]
    for i in range(120):
        entries.append({"oracle": "feed", "match": {"payload": f"noise-{i}-*"}, "add": [render(f"i{i % 60}", "Seen", "K3")]})
    state = base | injected
    queries = ["warm", "scan-{parity}", "probe", "tail-{seed}"]
    # "warm" is answered by the last pattern, after a full scan.
    entries.append({"oracle": "feed", "match": {"payload": "warm"}, "add": [render("i0", "Seen", "K0")]})
    state_warm = state | {render("i0", "Seen", "K0")}
    expected: dict[int, frozenset[str]] = {}
    for parity in (0, 1):
        s = set(state_warm)
        high = parity == 0 or not alternating
        reading = render("probe", "High" if high else "Low", input_ctx)
        # scan-<parity> is an exact-state entry: it matches only the digest
        # the session must have reached.
        entries.append(
            {"oracle": "feed", "match": {"payload": f"scan-{parity}", "state": canon(s)}, "add": [reading]}
        )
        s.add(reading)
        probe_entry = {
            "oracle": "feed",
            "match": {"payload": "probe", "state": canon(s)},
            "add": [render("i1", "Seen", "K1")],
            "del": [render("i0", "Seen", "K0")],
        }
        if probe_entry not in entries:  # both parities reach one state unless alternating
            entries.append(probe_entry)
        expected[parity] = frozenset({"scene:Obstacle", "done:Done"} if high else {"done:Done"})
    entries.append({"oracle": "feed", "match": {"payload": "tail-*"}, "add": [render("i2", "Seen", "K2")]})
    script = "\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n"

    # Program: writes, assertion guards (a K0 fact holds at K7 only in
    # saturated mode), and a while loop guarded by a subsumption.
    writes = []
    for i in range(10):
        a = render(f"i{rng.randrange(60)}", rng.choice(UPDATE_CONCEPTS[:12]), rng.choice(CONTEXTS))
        writes.append(f"add {a}; del {a}")
    sat_probe = render("done", "Seen", "K0")
    cascade = "add done:Done@K0"
    for i in reversed(range(pending)):
        cascade = f"if p{i}:Pend@{pend_ctx} then del p{i}:Pend@{pend_ctx} else {cascade} fi"
    lines = [
        f"if probe:High@{input_ctx} then add scene:Obstacle@{input_ctx} else skip fi",
        *writes,
        f"add {sat_probe}",
        # Saturated mode sees done:Seen@K0 at K7 (K7 <= K0); literal mode does not.
        f"if done:Seen@K7 then add done:Seen@K7 else add done:Seen@K6 fi",
        f"while P0 <= P6 & !done:Done@K0 do {cascade} od",
        f"del {sat_probe}",
        "del done:Seen@K7",
        "del done:Seen@K6",
    ]
    program = ";\n".join(lines) + "\n"
    agent = {
        "name": name,
        "kb": f"{name}.kb",
        "program": f"{name}.p",
        "oracle": {"script": f"{name}.jsonl", "queries": queries},
        "input_context": input_ctx,
        "projection": ["scene:Obstacle", "done:Done"],
        "fuel": 5000,
        "guards": mode,
        "seed_policy": {"kind": "sequence", "start": rng.randrange(1000)},
    }
    files = {
        f"{name}.kb": kb,
        f"{name}.p": program,
        f"{name}.jsonl": script,
        f"{name}.json": json.dumps(agent, sort_keys=True, indent=1) + "\n",
    }
    return AgentFiles(files, f"{name}.json", latent, expected, not alternating)


def flat_program(n: int) -> str:
    """``skip; skip; ...`` with *n* commands: a left-nested Seq n-1 deep."""
    return "; ".join(["skip"] * n) + "\n"


# ---------------------------------------------------------------------------
# sections: refinement trees over a presheaf of fact universes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tree:
    """A refinement tree: T covered by M1, M2 and, at depth 3, M1 by L1, L2.

    Each member universe is a subset of its parent's, so the universes
    interpolate. A stage glues back to its parent for every section
    exactly when the members' universes together cover the parent's, so
    with *stable* every section over T is stable, and without it the last
    stage misses one fact and none is.
    """

    text: str
    universe: int
    stable: bool
    universes: dict[str, tuple[str, ...]]
    stages: tuple[tuple[str, tuple[str, str]], ...]  # (target, members), in order


def _split(rng: random.Random, facts: list[str], drop: bool) -> tuple[list[str], list[str]]:
    """Two overlapping member universes covering *facts*, less one if *drop*."""
    pool = list(facts)
    rng.shuffle(pool)
    if drop:
        pool = pool[1:]
    cut = len(pool) // 2
    left = pool[: cut + 1]
    right = pool[cut - 1 :]
    return sorted(left), sorted(right)


def refinement_tree(rng: random.Random, universe: int, depth: int, stable: bool) -> Tree:
    individuals = [f"x{i}" for i in range(8)]
    concepts = ["F0", "F1", "F2"]
    pairs = [f"{i}:{c}" for i in individuals for c in concepts]
    top = sorted(rng.sample(pairs, universe))
    universes = {"T": tuple(top)}
    m1, m2 = _split(rng, top, drop=not stable and depth == 2)
    universes["M1"], universes["M2"] = tuple(m1), tuple(m2)
    stages = [("T", ("M1", "M2"))]
    edges = ["M1 <= T", "M2 <= T"]
    if depth == 3:
        l1, l2 = _split(rng, m1, drop=not stable)
        universes["L1"], universes["L2"] = tuple(l1), tuple(l2)
        stages.append(("M1", ("L1", "L2")))
        edges += ["L1 <= M1", "L2 <= M1"]
    body = (
        "contexts\n  context " + ", ".join(universes) + ".\n"
        + "".join(f"  {e}.\n" for e in edges)
        + "covers\n" + "".join(f"  cover {t} by {', '.join(ms)}.\n" for t, ms in stages)
        + "facts\n" + "".join(f"  facts {c} : {{ {', '.join(fs)} }}.\n" for c, fs in universes.items())
    )
    text = kb_text(concepts, (), individuals, (), body)
    return Tree(text, universe, stable, universes, tuple(stages))
