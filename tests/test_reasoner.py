"""Tableau satisfiability and the brute-force finite-model oracle."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import random
import sys
from collections import Counter

import pytest

from children import ROOT, hash_orders, run_child
from corpus import (
    CURATED_UNSAT,
    random_absorbable_tbox,
    random_concept,
    random_conjunction,
    random_tbox,
    witness_space,
)
from oracles import (
    ForkingTableau,
    absorb,
    per_code_models,
    plain_satisfiable,
    recursive_extension,
    type_elimination_satisfiable,
    whole_space_witness,
)
from ctxdl.concepts import (
    And,
    Atomic,
    BOT,
    Exists,
    Forall,
    Not,
    Or,
    Signature,
    TOP,
    nnf,
    parse_concept,
)
from ctxdl.errors import BudgetExceededError, SearchSpaceError, UnknownNameError
from ctxdl import values
from ctxdl.kbfile import loads
from ctxdl.reasoner import (
    BLOCK_BITS,
    DEFAULT_NODE_BUDGET,
    EMPTY_TBOX,
    FiniteModel,
    TBox,
    _Tableau,
    check_interpretation,
    extension,
    find_witness,
    is_satisfiable,
    subsumes,
    _bit_layout,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")

# sha256 of the JSON of exactness_runs(), as the tableau gave it before
# its labels were int-coded.
EXACTNESS_SHA256 = "f21cca264100a570ac5583f83732ef9af6dc7d49acda593a20885f073378e842"


class TestSatisfiability:
    def test_bot_unsatisfiable(self):
        assert is_satisfiable(EMPTY_TBOX, BOT) is False

    def test_plain_contradiction(self):
        assert is_satisfiable(EMPTY_TBOX, And(A, Not(A))) is False

    def test_axiom_violation(self):
        assert is_satisfiable(TBox([(A, B)]), And(A, Not(B))) is False

    def test_top_satisfiable(self):
        assert is_satisfiable(EMPTY_TBOX, TOP) is True

    def test_atom_satisfiable_under_axioms(self):
        assert is_satisfiable(TBox([(A, B)]), A) is True

    def test_existential_chain_with_global_axiom_terminates(self):
        # Every element needs an r-successor in A: only blocking stops this.
        t = TBox([(TOP, Exists("r", A))])
        assert is_satisfiable(t, A) is True

    def test_curated_unsat_suite(self):
        for tbox, concept in CURATED_UNSAT:
            assert is_satisfiable(tbox, concept) is False

    def test_budget_is_a_distinct_outcome(self):
        t = TBox([(TOP, And(Exists("r", A), Exists("r", Not(A))))])
        with pytest.raises(BudgetExceededError):
            is_satisfiable(t, A, budget=3)

    def test_deterministic_across_calls(self):
        rng = random.Random(7)
        for _ in range(50):
            t = random_tbox(rng)
            c = random_concept(rng, 3)
            first = is_satisfiable(t, c)
            assert all(is_satisfiable(t, c) == first for _ in range(3))


class TestDependencySets:
    def test_successor_label_inherits_the_exists_choice(self):
        # The successor exists only in the left branch, so its forall-made
        # clash must send the search on to B rather than past it.
        c = And(Or(Exists("r", TOP), B), And(Forall("r", A), Forall("r", Not(A))))
        assert is_satisfiable(EMPTY_TBOX, c) is True

    def test_unfolded_concepts_inherit_the_atom_choice(self):
        assert is_satisfiable(TBox([(A, C)]), And(Or(A, B), Not(C))) is True

    def test_right_disjunct_inherits_the_left_clash(self):
        # A's clash with !A blames both choices, so C depends on the first
        # one: its clash with !C must send the search on to B.
        c = And(Or(A, B), And(Or(Not(A), C), Not(C)))
        assert is_satisfiable(EMPTY_TBOX, c) is True

    def test_ladder_backjumps_over_irrelevant_choices(self):
        # (A1 | B1) & ... & (A40 | B40) & exists r.C & forall r.!C: the
        # successor's clash depends on no choice, so no right branch is tried.
        # Chronological backtracking would need about 2^40 nodes.
        ladder = And(Exists("r", C), Forall("r", Not(C)))
        for i in range(1, 41):
            ladder = And(Or(Atomic(f"A{i}"), Atomic(f"B{i}")), ladder)
        assert is_satisfiable(EMPTY_TBOX, ladder, budget=2_000) is False

    @pytest.mark.parametrize("n", [600, 3000])
    def test_flat_ladder_with_thousands_of_choices(self, n):
        # Written left to right, the conjunction is a left-nested chain n + 1
        # deep, and every disjunction is an open choice at the clash.
        ladder = Or(Atomic("A1"), Atomic("B1"))
        for i in range(2, n + 1):
            ladder = And(ladder, Or(Atomic(f"A{i}"), Atomic(f"B{i}")))
        ladder = And(And(ladder, Exists("r", C)), Forall("r", Not(C)))
        assert is_satisfiable(EMPTY_TBOX, ladder, budget=2 * n + 3) is False
        with pytest.raises(BudgetExceededError):
            is_satisfiable(EMPTY_TBOX, ladder, budget=2 * n + 2)


def outcome(tableau, run):
    """Verdict, or "budget", then the units spent and branch points made."""
    try:
        verdict = run()
    except BudgetExceededError:
        verdict = "budget"
    return verdict, tableau.spent, tableau.points


def tableau_run(tbox, concept, budget):
    """The outcome of is_satisfiable(tbox, concept, budget=budget)."""
    tableau = _Tableau(tbox, budget, (nnf(concept),))
    return outcome(tableau, tableau.run)


def subsumes_run(tbox, c, d, budget):
    """The outcome of subsumes(tbox, c, d, budget=budget), the verdict
    being that of the satisfiability of c & !d."""
    tableau = _Tableau(tbox, budget, (nnf(c), nnf(Not(d))))
    return outcome(tableau, tableau.run)


def reference_run(tbox, concept, budget):
    """The outcome of the node-based reference tableau on *concept*."""
    unfold, constraints = absorb(tbox)
    tableau = ForkingTableau(constraints, unfold, budget)
    return outcome(tableau, lambda: tableau.sat([(c, frozenset()) for c in (nnf(concept), *constraints)], ()) is None)


def load_gen():
    """perfbench/gen.py, imported read-only by path as the module ``gen``."""
    if "gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
        sys.modules["gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["gen"])
    return sys.modules["gen"]


def forking_corpus():
    """(tbox, concept, budgets) of TestAgainstForkingTableau, in its order."""
    rng = random.Random(31)
    names = {"concepts": ("A", "B", "C"), "roles": ("r",)}
    runs = []
    for _ in range(1_000):
        t = random_absorbable_tbox(rng, max_inclusions=3, depth=2, **names)
        runs.append((t, random_conjunction(rng, 3, **names), (30, DEFAULT_NODE_BUDGET)))
    for _ in range(300):
        t = random_tbox(rng, max_inclusions=3, depth=3, **names)
        runs.append((t, random_concept(rng, 4, **names), (20_000,)))
    return runs


def plain_corpus():
    """(tbox, concept) of TestAgainstPlainTableau, in its order."""
    rng = random.Random(31)
    names = {"concepts": ("A", "B", "C"), "roles": ("r",)}
    return [
        (random_absorbable_tbox(rng, max_inclusions=3, depth=2, **names), random_conjunction(rng, 3, **names))
        for _ in range(2_000)
    ]


def classification_tboxes(gen):
    """The two classification TBoxes of perfbench's reason workload at
    seed 1, with the atomic concept of each name, in name order."""
    labels = [f"Q{i}" for i in random.Random(1).sample(range(100), 16)]
    structure = random.Random(0)
    out = []
    for _ in range(2):
        cls = gen.classification_tbox(structure, labels)
        doc = loads(cls.text)
        out.append((doc.tbox, [parse_concept(name, doc.signature) for name in cls.names]))
    return out


def exactness_runs() -> list:
    """(verdict or "budget", units spent, branch points) of every run the
    exactness golden covers."""
    gen = load_gen()
    out = []
    for t, c, budgets in forking_corpus():
        out += [tableau_run(t, c, budget) for budget in budgets]
    out += [tableau_run(t, c, DEFAULT_NODE_BUDGET) for t, c in plain_corpus()]
    for tbox, atoms in classification_tboxes(gen):
        out += [subsumes_run(tbox, a, b, DEFAULT_NODE_BUDGET) for a in atoms for b in atoms if a is not b]
    rng = random.Random(0)
    for n in range(1, 15):
        ladder = gen.ladder(rng, n)
        doc = loads(ladder.text)
        out.append(tableau_run(doc.tbox, parse_concept(ladder.concept, doc.signature), DEFAULT_NODE_BUDGET))
    for inst in gen.instance_pool(7, 50):
        doc = loads(inst.text)
        out.append(tableau_run(doc.tbox, parse_concept(inst.concept, doc.signature), DEFAULT_NODE_BUDGET))
    return out


class TestExactness:
    def test_verdicts_units_and_branch_points_hash_to_the_golden(self):
        # Every run of the two tableau corpora, of perfbench reason's
        # classification pairs, ladders (n = 1..14) and random pool. A
        # change to the tableau's rules, label order, blocking or
        # backjumping moves some unit or branch point, and so this hash.
        runs = exactness_runs()
        assert len(runs) == 2 * 1_000 + 300 + 2_000 + 2 * 15 * 14 + 14 + 50
        text = json.dumps(runs, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == EXACTNESS_SHA256


class TestAgainstForkingTableau:
    def test_same_verdicts_budgets_and_choices(self):
        # Trying a right disjunct in place, after dropping the left one's
        # entries, spends the units and makes the choices that copying the
        # label at each disjunction did, and int-coded labels spend what
        # labels of nodes did.
        for t, c, budgets in forking_corpus():
            for budget in budgets:
                assert tableau_run(t, c, budget) == reference_run(t, c, budget), (t, c, budget)

    def test_subsumption_spends_what_the_conjunction_did(self):
        # subsumes seeds the label that c & !d's expansion left, without
        # building that node: the same units and branch points as the
        # reference on c & !d. Half the TBoxes hold the conjunction under
        # an existential, where it may reach a successor's label and decide
        # whether the root blocks it. Budgets 0, 1 and 2 raise before, at
        # and just after the conjunction's unit, and the units spent at the
        # raise must match too.
        rng = random.Random(43)
        names = {"concepts": ("A", "B", "C"), "roles": ("r",)}
        kept = 0
        for n in range(600):
            c, d = random_concept(rng, 2, **names), random_concept(rng, 2, **names)
            t = random_absorbable_tbox(rng, max_inclusions=2, depth=2, **names)
            if n % 2:
                both = And(nnf(c), nnf(Not(d)))
                t = TBox([*t.inclusions, (rng.choice((A, B, C)), Exists("r", both))])
                kept += (t.compiled.ids[nnf(c)], t.compiled.ids[nnf(Not(d))]) in t.compiled.ands
            for budget in (0, 1, 2, 5, 30, DEFAULT_NODE_BUDGET):
                assert subsumes_run(t, c, d, budget) == reference_run(t, And(c, Not(d)), budget), (t, c, d, budget)
        assert kept == 300
        # The root holds B & !C, so it blocks the successor that needs B & !C.
        t = TBox([(B, Exists("r", And(B, Not(C))))])
        assert subsumes_run(t, B, C, DEFAULT_NODE_BUDGET) == reference_run(t, And(B, Not(C)), DEFAULT_NODE_BUDGET)
        assert subsumes_run(t, B, C, DEFAULT_NODE_BUDGET) == (True, 6, 0)


class TestAgainstPlainTableau:
    def test_same_verdicts_on_absorbable_tboxes(self):
        # Every verdict matches the plain tableau's unless that one runs out
        # of budget, and every sat verdict is confirmed by a finite model.
        # (Criterion 2 checks unsat verdicts against find_witness.)
        compared = atomic = inclusions = 0
        for t, c in plain_corpus():
            inclusions += len(t.inclusions)
            atomic += sum(isinstance(lhs, Atomic) for lhs, _ in t.inclusions)
            got = is_satisfiable(t, c)
            try:
                assert plain_satisfiable(t, c, budget=20_000) == got, (t, c)
                compared += 1
            except BudgetExceededError:
                pass
            sig, k = witness_space(t, c)
            if got and k:
                assert find_witness(sig, t, c, k) is not None, (t, c)
        assert compared >= 1_990
        assert 2 * atomic >= inclusions


class TestAgainstTypeElimination:
    """Type elimination decides satisfiability over models of every size,
    so the unsat verdicts it confirms are checked beyond the models of at
    most three elements that find_witness reaches."""

    def agree(self, instances) -> Counter:
        verdicts = Counter()
        for t, c in instances:
            got = is_satisfiable(t, c)
            assert type_elimination_satisfiable(t, c) is got, (t, c)
            verdicts[got] += 1
        return verdicts

    def test_on_the_plain_tableau_corpus(self):
        verdicts = self.agree(plain_corpus())
        assert min(verdicts.values()) >= 800, verdicts

    def test_on_the_criterion_2_corpus(self):
        rng = random.Random(20260809)
        instances = [(random_tbox(rng, max_inclusions=2, depth=3), random_concept(rng, 3)) for _ in range(500)]
        verdicts = self.agree(instances)
        assert verdicts[False] >= 50, verdicts

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_chains_longer_than_the_witness_search(self, n):
        # Disjoint names A0..An with Ai <= exists r.A(i+1): A0 needs n + 1
        # elements, beyond find_witness's three once n >= 3. Emptying An
        # makes A0 unsat, which elimination finds only after n rounds.
        chain = [Atomic(f"A{i}") for i in range(n + 1)]
        inclusions = [(a, Exists("r", b)) for a, b in zip(chain, chain[1:])]
        inclusions += [(a, Not(b)) for i, a in enumerate(chain) for b in chain[i + 1 :]]
        assert self.agree([(TBox(inclusions), chain[0]), (TBox(inclusions + [(chain[-1], BOT)]), chain[0])]) == {
            True: 1,
            False: 1,
        }
        if n == 3:  # 21 extension bits at three elements, inside the search's limit
            sig = Signature(concept_names=[a.name for a in chain], role_names=("r",))
            assert find_witness(sig, TBox(inclusions), chain[0], 3) is None


def subsumes_sweep() -> list:
    """(verdict, units) of subsumes over every ordered pair of names of
    the first classification TBox of perfbench's reason workload, each at
    exactly the units it spends, after a call one unit short that must
    run out."""
    tbox, atoms = classification_tboxes(load_gen())[0]
    sweep = []
    for a in atoms:
        for b in atoms:
            if a is not b:
                verdict, need, _ = subsumes_run(tbox, a, b, DEFAULT_NODE_BUDGET)
                with pytest.raises(BudgetExceededError):
                    subsumes(tbox, a, b, budget=need - 1)
                assert subsumes(TBox(tbox.inclusions), a, b, budget=need) is (not verdict)
                sweep.append((not verdict, need))
    return sweep


class TestCompiledTBox:
    """The compiled table is kept on the TBox; it changes no answer."""

    def test_table_stays_bounded_and_keeps_no_node_alive(self):
        # Names no other test uses, so that every node made here can die.
        names = {"concepts": ("Bounded0", "Bounded1", "Bounded2"), "roles": ("r",)}
        gc.collect()
        before = len(values._table)
        gc.disable()  # reference counting alone must free every node: no cycle may hold one
        try:
            rng = random.Random(47)
            tbox = random_tbox(rng, max_inclusions=3, depth=3, **names)
            queries = {}
            while len(queries) < 5_000:
                queries.setdefault(random_concept(rng, 4, **names), None)
            sizes = set()
            for i, q in enumerate(queries):
                try:
                    if i % 2:
                        subsumes(tbox, q, Atomic("Bounded0"), budget=2_000)
                    else:
                        is_satisfiable(tbox, q, budget=2_000)
                except BudgetExceededError:
                    pass
                sizes.add((len(tbox.compiled.ids), len(tbox.compiled.rules), len(tbox.compiled.comp)))
            assert len(sizes) == 1
            assert len(values._table) > before
            del tbox, queries, q
            assert len(values._table) == before
        finally:
            gc.enable()

    def test_subsumes_sweep_is_the_same_under_every_hash_order(self):
        # Ids come from the walk of the inclusions, never from the order of
        # a set or dict of nodes, so no verdict or unit count may follow
        # PYTHONHASHSEED or node addresses.
        want = json.loads(json.dumps(subsumes_sweep()))
        assert len(want) == 15 * 14
        code = "import json, test_reasoner; print(json.dumps(test_reasoner.subsumes_sweep()))"
        for seed, salt in hash_orders(("0", "1", "random")):
            proc = run_child(code, hashseed=seed, salt=salt)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == want, f"PYTHONHASHSEED={seed}, salt={salt}"

    def test_shared_tbox_answers_as_fresh_equal_ones(self):
        # The TestAgainstPlainTableau corpus: each instance is asked of one
        # TBox object at every budget twice, and of a new equal TBox, whose
        # form is computed afresh, at every budget once.
        def ask(tbox, c, budget):
            try:
                return is_satisfiable(tbox, c, budget=budget)
            except BudgetExceededError as exc:
                return "budget", exc.budget

        rng = random.Random(31)
        names = {"concepts": ("A", "B", "C"), "roles": ("r",)}
        outcomes = set()
        for _ in range(2_000):
            t = random_absorbable_tbox(rng, max_inclusions=3, depth=2, **names)
            c = random_conjunction(rng, 3, **names)
            budgets = (5, 30, 200, 5_000)
            shared = [ask(t, c, b) for _ in range(2) for b in budgets]
            fresh = [ask(TBox(t.inclusions), c, b) for b in budgets]
            assert shared == fresh * 2, (t, c)
            outcomes.update(map(str, shared))
        assert outcomes == {"True", "False", "('budget', 5)", "('budget', 30)"}

    def test_equality_hash_and_repr_ignore_the_cached_form(self):
        inclusions = [(A, And(B, C)), (Exists("r", B), Not(A)), (A, B)]
        t, u = TBox(inclusions), TBox(inclusions)
        before = (repr(t), hash(t))
        table = t.compiled
        nodes = list(table.ids)  # in id order
        assert [nodes[i] for i in table.rules[table.ids[A]][1]] == [And(B, C), B]
        assert [nodes[k] for k in table.constraints] == [Or(Forall("r", Not(B)), Not(A))]
        assert (repr(t), hash(t)) == before
        assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
        assert TBox._fields == ("inclusions",)  # the compiled table is not a field
        assert t.compiled is t.compiled


class TestSubsumption:
    def test_everything_below_top(self):
        rng = random.Random(11)
        for _ in range(20):
            c = random_concept(rng, 3)
            assert subsumes(EMPTY_TBOX, c, TOP) is True

    def test_bot_below_everything(self):
        rng = random.Random(13)
        for _ in range(20):
            c = random_concept(rng, 3)
            assert subsumes(EMPTY_TBOX, BOT, c) is True

    def test_chain_axioms(self):
        t = TBox([(A, B), (B, C)])
        assert subsumes(t, A, C) is True
        # Derived cross-check: no countermodel among models with domain <= 3.
        sig = Signature(concept_names=("A", "B", "C"))
        assert find_witness(sig, t, And(A, Not(C)), 3) is None

    def test_reflexive(self):
        rng = random.Random(17)
        for _ in range(20):
            c = random_concept(rng, 3)
            assert subsumes(EMPTY_TBOX, c, c) is True

    def test_transitive_on_sampled_triples(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(60):
            t = random_tbox(rng, depth=2)
            x, y, z = (random_concept(rng, 2) for _ in range(3))
            if subsumes(t, x, y) and subsumes(t, y, z):
                assert subsumes(t, x, z) is True
                checked += 1
        assert checked > 5

    def test_no_subsumption_without_axioms(self):
        assert subsumes(EMPTY_TBOX, A, B) is False


class TestCheckInterpretation:
    def test_top_has_full_domain(self):
        m = FiniteModel(frozenset({1, 2}), {"A": frozenset({1})}, {"r": frozenset()})
        ok, ext = check_interpretation(m, EMPTY_TBOX, TOP)
        assert ok is True and ext == {1, 2}

    def test_vacuous_forall(self):
        m = FiniteModel(frozenset({1, 2}), {"A": frozenset()}, {"r": frozenset()})
        _, ext = check_interpretation(m, EMPTY_TBOX, Forall("r", BOT))
        assert ext == {1, 2}

    def test_exists_with_negation(self):
        # Hand evaluation: !A = {2}; only 1 has an r-successor, which is 2.
        m = FiniteModel(frozenset({1, 2}), {"A": frozenset({1})}, {"r": frozenset({(1, 2)})})
        _, ext = check_interpretation(m, EMPTY_TBOX, Exists("r", Not(A)))
        assert ext == {1}

    def test_tbox_violation_detected(self):
        m = FiniteModel(frozenset({1}), {"A": frozenset({1}), "B": frozenset()}, {})
        ok, _ = check_interpretation(m, TBox([(A, B)]), TOP)
        assert ok is False

    def test_undeclared_name(self):
        m = FiniteModel(frozenset({1}), {}, {})
        with pytest.raises(UnknownNameError):
            check_interpretation(m, EMPTY_TBOX, A)

    @pytest.mark.parametrize(
        "concept_ext, role_ext, message",
        [
            ({"A": frozenset({5})}, {}, "'A' holds 5, outside"),
            ({"A": frozenset()}, {"r": frozenset({(1, 5)})}, r"'r' holds \(1, 5\), outside"),
            ({"A": frozenset()}, {"A": frozenset()}, "'A' both as a concept and as a role"),
        ],
    )
    def test_extension_outside_the_domain_is_rejected(self, concept_ext, role_ext, message):
        # Unchecked, A = {5} over {1} would give A and !!A different extensions.
        m = FiniteModel(frozenset({1}), concept_ext, role_ext)
        with pytest.raises(ValueError, match=message):
            extension(m, Not(Not(A)))
        with pytest.raises(ValueError, match=message):
            check_interpretation(m, TBox([(A, BOT)]), TOP)

    def test_empty_domain(self):
        m = FiniteModel(frozenset(), {"A": frozenset()}, {"r": frozenset()})
        assert check_interpretation(m, TBox([(TOP, A)]), Exists("r", A)) == (True, frozenset())

    def test_stops_at_the_first_failing_inclusion(self):
        # Z is undeclared, but A <= B already fails, so Z is never reached.
        m = FiniteModel(frozenset({1}), {"A": frozenset({1}), "B": frozenset()}, {})
        assert check_interpretation(m, TBox([(A, B), (A, Atomic("Z"))]), A) == (False, frozenset({1}))
        with pytest.raises(UnknownNameError, match="model does not interpret concept 'Z'"):
            check_interpretation(m, TBox([(B, A), (A, Atomic("Z"))]), A)

    def test_same_outcome_as_the_recursive_evaluator(self):
        # C and s are left out of some models, so both sides must raise
        # the same error for the first undeclared name they meet.
        rng = random.Random(59)
        seen = set()
        for _ in range(400):
            domain = frozenset(range(1, rng.randint(1, 3) + 1))
            names = ("A", "B", "C") if rng.random() < 0.7 else ("A", "B")
            roles = ("r", "s") if rng.random() < 0.7 else ("r",)
            m = FiniteModel(
                domain,
                {n: frozenset(x for x in domain if rng.random() < 0.5) for n in names},
                {n: frozenset((x, y) for x in domain for y in domain if rng.random() < 0.4) for n in roles},
            )
            c = random_concept(rng, 4)
            outcomes = []
            for evaluate in (extension, recursive_extension):
                try:
                    outcomes.append(evaluate(m, c))
                except UnknownNameError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (m, c)
            seen.add(type(outcomes[0]))
        assert seen == {str, frozenset}

    def test_long_flat_chain(self):
        # 1,200 conjuncts: a left-nested chain deeper than the recursion limit.
        sig = Signature(concept_names=("A", "B"))
        chain = parse_concept(" & ".join(["A", "B"] * 600), sig)
        m = FiniteModel(frozenset({1, 2}), {"A": frozenset({1}), "B": frozenset({1, 2})}, {})
        assert check_interpretation(m, TBox([(chain, A)]), chain) == (True, frozenset({1}))
        with pytest.raises(RecursionError):
            recursive_extension(m, chain)
        found = find_witness(sig, TBox([(A, chain)]), chain, 2)
        assert found == FiniteModel(frozenset({1}), {"A": frozenset({1}), "B": frozenset({1})}, {})


class TestFindWitness:
    @pytest.mark.parametrize(
        "concepts, roles, size",
        [
            pytest.param(("A", "B"), ("r",), 2, id="AB-r-size2"),
            pytest.param(("A",), (), 1, id="A-size1"),  # a 1-bit space
            pytest.param(("A",), (), 2, id="A-size2"),  # 1 bit, then 2 bits
            pytest.param(("A",), ("r",), 3, id="A-r-size3"),  # 12 bits at size 3
        ],
    )
    def test_agrees_with_stream_filtering(self, concepts, roles, size):
        # The bit-sliced search must return the first streamed model with a
        # nonempty extension, or None exactly when no streamed model has one.
        rng = random.Random(23)
        sig = Signature(concept_names=concepts, role_names=roles)
        for _ in range(40):
            t = random_tbox(rng, depth=2, concepts=concepts, roles=roles)
            c = random_concept(rng, 2, concepts=concepts, roles=roles)
            streamed = (m for m in per_code_models(sig, t, size, max_bits=16) if recursive_extension(m, c))
            assert find_witness(sig, t, c, size, max_bits=16) == next(streamed, None)

    def test_guard_refuses_large_spaces(self):
        sig = Signature(concept_names=("A", "B", "C"), role_names=("r", "s"))
        with pytest.raises(SearchSpaceError):
            find_witness(sig, EMPTY_TBOX, A, 3)

    def test_size_zero_raises(self):
        with pytest.raises(ValueError, match="max_size must be at least 1"):
            find_witness(Signature(concept_names=("A",)), EMPTY_TBOX, A, 0)

    def test_soundness_against_tableau(self):
        rng = random.Random(29)
        sig = Signature(concept_names=("A", "B"), role_names=("r",))
        for _ in range(60):
            t = random_tbox(rng, depth=2, concepts=("A", "B"), roles=("r",))
            c = random_concept(rng, 2, concepts=("A", "B"), roles=("r",))
            if find_witness(sig, t, c, 2, max_bits=16) is not None:
                assert is_satisfiable(t, c) is True


def code_of(model: FiniteModel, sig: Signature) -> int:
    """The code of *model* in find_witness order (decoding inverted)."""
    k = len(model.domain)
    concepts, roles, _ = _bit_layout(sig, k)
    code = 0
    for name, members in model.concept_ext.items():
        for i in members:
            code |= 1 << concepts[name] + i - 1
    for name, pairs in model.role_ext.items():
        for i, j in pairs:
            code |= 1 << roles[name] + (i - 1) * k + j - 1
    return code


def same_witness(sig, t, c, size):
    """Run the blocked and the whole-space search; both must return the
    same model, or both raise UnknownNameError with the same message."""
    outcomes = []
    for search in (find_witness, whole_space_witness):
        try:
            outcomes.append(search(sig, t, c, size))
        except UnknownNameError as exc:
            outcomes.append(("UnknownNameError", str(exc)))
    assert outcomes[0] == outcomes[1], (t, c)
    return outcomes[0]


def kind_of(outcome, sig) -> str:
    if outcome is None or isinstance(outcome, tuple):
        return "none" if outcome is None else "raised"
    return "block 0" if code_of(outcome, sig) >> BLOCK_BITS == 0 else "later block"


# Satisfiable only over three elements: x in A, with r-successors that
# differ from x and from each other. Conjoined with a random concept, it
# keeps the search from stopping at domain size 1 or 2.
THREE_AB = And(And(And(A, Not(B)), Exists("r", And(Not(A), B))), Exists("r", And(Not(A), Not(B))))
THREE_A = And(And(A, Exists("r", And(Not(A), Exists("r", TOP)))), Exists("r", And(Not(A), Forall("r", BOT))))


class TestBlockedWitness:
    """find_witness over blocks of 2^BLOCK_BITS codes against the
    whole-space search it replaced.

    With concepts A, B and roles r, s, domain size 3 has 24 code bits and
    the high 6 are the s-edges leaving elements 2 and 3; with concept A
    and roles r, s it has 21, and the high 3 are the s-edges leaving
    element 3. A TBox that demands s-successors therefore empties block 0.
    """

    SIG_AB = Signature(concept_names=("A", "B"), role_names=("r", "s"))
    SIG_A = Signature(concept_names=("A",), role_names=("r", "s"))

    def test_witness_first_in_a_later_block(self):
        # Elements 2 and 3 each need an s-edge, and the cheapest are (2,1)
        # and (3,1): code bits 18 and 21, so block 0b1001.
        t = TBox([(TOP, Exists("s", TOP))])
        found = same_witness(self.SIG_AB, t, THREE_AB, 3)
        assert code_of(found, self.SIG_AB) >> BLOCK_BITS == 9
        assert found.role_ext["s"] == {(1, 1), (2, 1), (3, 1)}
        # Only the two elements outside B need one. Putting the B element
        # last costs a higher concept bit but leaves element 3 no s-edge:
        # block 0b000001, whose bit order a reversal would change.
        found = same_witness(self.SIG_AB, TBox([(Not(B), Exists("s", TOP))]), THREE_AB, 3)
        assert code_of(found, self.SIG_AB) >> BLOCK_BITS == 1
        assert found.concept_ext["B"] == {3} and found.role_ext["s"] == {(1, 1), (2, 1)}

    def test_tbox_that_empties_every_block(self):
        # Every block where element 2 or 3 lacks an s-edge fails the
        # filter; the concept forbids x an s-edge, so every block fails.
        t = TBox([(TOP, Exists("s", TOP))])
        assert same_witness(self.SIG_AB, t, And(THREE_AB, Forall("s", BOT)), 3) is None

    @pytest.mark.parametrize(
        "sig_name, core, seed, count",
        [
            pytest.param("SIG_A", THREE_A, 31, 30, id="21-bits"),
            pytest.param("SIG_AB", THREE_AB, 33, 6, id="24-bits"),
        ],
    )
    def test_random_spaces_of_several_blocks(self, sig_name, core, seed, count):
        # The random parts speak of s only, so they move the witness
        # between blocks without clashing with the core's r-edges.
        sig = getattr(self, sig_name)
        concepts = sig.concept_names
        rng = random.Random(seed)
        seen = set()
        for _ in range(count):
            t = random_tbox(rng, 2, 2, concepts=concepts, roles=("s",))
            if rng.random() < 0.5:
                s_edge = Exists("s", random_concept(rng, 1, concepts=concepts, roles=("s",)))
                t = TBox([(TOP, s_edge), *t.inclusions])
            c = And(core, random_concept(rng, 2, concepts=concepts, roles=("s",)))
            seen.add(kind_of(same_witness(sig, t, c, 3), sig))
        assert seen == {"none", "block 0", "later block"}

    @pytest.mark.parametrize(
        "concepts, roles",
        [
            pytest.param(("A", "B", "C"), ("r",), id="18-bits"),
            pytest.param(("A", "B"), ("r",), id="15-bits"),
        ],
    )
    def test_one_block_spaces(self, concepts, roles):
        sig = Signature(concept_names=concepts, role_names=roles)
        rng = random.Random(37)
        for _ in range(20):
            t = random_tbox(rng, depth=2, concepts=concepts, roles=roles)
            c = And(THREE_AB, random_concept(rng, 2, concepts=concepts, roles=roles))
            same_witness(sig, t, c, 3)

    def test_undeclared_names_raise_in_both_or_neither(self):
        sig = self.SIG_A
        rng = random.Random(41)
        seen = set()
        for _ in range(30):
            t = random_tbox(rng, depth=2, concepts=("A",), roles=("r", "s"))
            if rng.random() < 0.5:
                t = TBox([(TOP, Exists("s", TOP)), *t.inclusions])
            # Z and q are undeclared; they may sit behind a filter that
            # empties first, or in the concept, which a failed filter skips.
            rogue = random_concept(rng, 2, concepts=("A", "Z"), roles=("r", "q"))
            if rng.random() < 0.5:
                t = TBox([*t.inclusions, (A, rogue)])
                c = And(THREE_A, random_concept(rng, 1, concepts=("A",), roles=("r", "s")))
            else:
                c = And(THREE_A, rogue)
            seen.add(kind_of(same_witness(sig, t, c, 3), sig))
        assert "raised" in seen and len(seen) > 1

    def test_filter_emptied_before_an_undeclared_name(self):
        # The first inclusion empties every block, so the second is never
        # evaluated; without it, Z is reached and raises.
        z = Atomic("Z")
        assert same_witness(self.SIG_A, TBox([(TOP, Exists("s", BOT)), (A, z)]), A, 3) is None
        with pytest.raises(UnknownNameError):
            find_witness(self.SIG_A, TBox([(A, z)]), A, 3)
