"""The satisfiability engine: classics, witnesses, a bounded oracle, and pinned tableaux."""

import glob
import itertools
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from lict import (
    BOT,
    Always,
    And,
    Next,
    Not,
    Truth,
    Until,
    f_eventually,
    f_implies,
    f_or,
    parse_formula,
    parse_license,
    pretty_formula,
    translate,
)
from lict.ltl import Done, Permitted, implicit_restrictions
from lict.reference import LinearStructure, lifo_tableau, ltl_eval, ltl_sat, state_atoms
from lict.tableau import BudgetExceededError, accepting_lasso, build_tableau, to_nnf

from gen import random_formula

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
TABLEAU_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "tableau-random.txt")

P = Done(BOT, "n")
Q = Permitted(BOT, "n")
R = Done(BOT, "m")


def bounded_models(props, max_prefix: int, loop_len: int):
    """Every lasso over the propositions with the given dimensions."""
    alphabet = [frozenset(s) for r in range(len(props) + 1) for s in itertools.combinations(props, r)]
    for prefix_len in range(max_prefix + 1):
        for states in itertools.product(alphabet, repeat=prefix_len + loop_len):
            yield LinearStructure(
                prefix=tuple(states[:prefix_len]), loop=tuple(states[prefix_len:])
            )


def brute_force_satisfiable(formula, props, max_prefix=2, max_loop=3) -> bool:
    for loop_len in range(1, max_loop + 1):
        for structure in bounded_models(props, max_prefix, loop_len):
            if ltl_eval(structure, 0, formula):
                return True
    return False


def random_ltl(rng: random.Random, depth: int, atoms=(P, Q)):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    shape = rng.random()
    sub = lambda: random_ltl(rng, depth - 1, atoms)
    if shape < 0.2:
        return Not(sub())
    if shape < 0.4:
        return And(sub(), sub())
    if shape < 0.55:
        return f_or(sub(), sub())
    if shape < 0.7:
        return Next(sub())
    if shape < 0.85:
        return Always(sub())
    return Until(sub(), sub())


class TestClassics:
    def test_always_p_but_eventually_not_p(self):
        assert ltl_sat(And(Always(P), f_eventually(Not(P)))).status == "unsat"

    def test_until_is_satisfiable_with_witness(self):
        report = ltl_sat(Until(P, Q))
        assert report.status == "sat"
        assert ltl_eval(report.witness, 0, Until(P, Q))

    def test_contradiction(self):
        assert ltl_sat(And(P, Not(P))).status == "unsat"

    def test_always_eventually(self):
        report = ltl_sat(Always(f_eventually(P)))
        assert report.status == "sat"

    def test_true(self):
        assert ltl_sat(Truth()).status == "sat"

    def test_unfulfillable_until(self):
        formula = And(Until(P, Q), Always(Not(Q)))
        assert ltl_sat(formula).status == "unsat"

    def test_nested_untils(self):
        formula = Until(P, Until(Q, R))
        report = ltl_sat(formula)
        assert report.status == "sat"
        assert ltl_eval(report.witness, 0, formula)

    def test_response_pattern(self):
        formula = Always(f_implies(P, f_eventually(Q)))
        assert ltl_sat(formula).status == "sat"


class TestNnf:
    def test_equal_nnf_subformulas_share_one_id(self):
        # not-always-P and true-until-not-P have the same negation normal form
        closure = to_nnf(And(Not(Always(P)), Until(Truth(), Not(P))))
        left, right = closure.args[closure.root]
        assert left == right

    def test_deep_next_chain_does_not_recurse(self):
        formula = P
        for depth in range(5000):
            formula = Next(formula) if depth % 2 else Not(Next(formula))
        tableau = build_tableau(to_nnf(formula))
        assert len(tableau.old_sets) == 5002
        assert sum(1 for state in tableau.old_sets if P in state_atoms(tableau, state)) == 1


class TestBudget:
    def test_tiny_budget_reports_distinct_outcome(self):
        formula = Until(P, Until(Q, Until(R, And(P, Q))))
        report = ltl_sat(formula, budget=3)
        assert report.status == "budget"


def _labelled_graph(triples):
    """The successor function of a graph given as (source, label, target) triples."""
    successors = {}
    for source, label, target in triples:
        successors.setdefault(source, []).append((target, label))
        successors.setdefault(target, [])
    return successors.__getitem__


class TestAcceptingLasso:
    def test_takes_the_accepting_one_of_two_parallel_edges(self):
        successors = _labelled_graph([("s", "t", "a"), ("a", "p", "b"), ("a", "q", "b"), ("b", "r", "a")])
        prefix, cycle = accepting_lasso(["s"], successors, successors, [{"q"}])
        assert prefix == [("a", "t")]
        assert cycle == [("b", "q"), ("a", "r")]

    def test_an_accepting_label_on_an_edge_leaving_the_component_is_not_enough(self):
        # "b" labels the edge into the looping node b, never an edge inside a cycle
        successors = _labelled_graph([("a", "x", "a"), ("a", "b", "b"), ("b", "y", "b")])
        assert accepting_lasso(["a"], successors, successors, [{"b"}]) is None


class TestAgainstBruteForce:
    def test_random_formulas(self):
        # Soundness: every sat witness evaluates true.  Completeness at desk
        # scale: anything a small lasso satisfies, the tableau finds.
        rng = random.Random(151)
        for _ in range(120):
            formula = random_ltl(rng, 3)
            report = ltl_sat(formula)
            assert report.status in ("sat", "unsat")
            if report.status == "sat":
                assert ltl_eval(report.witness, 0, formula)
            else:
                assert not brute_force_satisfiable(formula, (P, Q))

    def test_brute_force_sat_implies_tableau_sat(self):
        rng = random.Random(157)
        for _ in range(60):
            formula = random_ltl(rng, 3)
            if brute_force_satisfiable(formula, (P, Q), max_prefix=1, max_loop=2):
                assert ltl_sat(formula).status == "sat"


def _props(props) -> str:
    return "{" + ", ".join(sorted(pretty_formula(prop) for prop in props)) + "}"


def _tableau_lines(formula, budget: int) -> list[str]:
    try:
        tableau = build_tableau(to_nnf(formula), budget)
    except BudgetExceededError:
        return [f"over budget {budget}"]
    lines = [f"states {len(tableau.old_sets)} initial {tableau.initial}"]
    for state in sorted(tableau.old_sets):
        positive = _props(state_atoms(tableau, state))
        negative = _props(state_atoms(tableau, state, positive=False))
        lines.append(f"{state} +{positive} -{negative} -> {tableau.edges[state]}")
    lines.extend(f"accept {sorted(members)}" for members in tableau.accept_sets)
    return lines


def _completes(build, closure, budget: int) -> bool:
    try:
        build(closure, budget)
    except BudgetExceededError:
        return False
    return True


def _smallest_budget(formula) -> int:
    """The least budget that completes, by doubling then bisection."""
    closure = to_nnf(formula)

    def completes(budget):
        return _completes(build_tableau, closure, budget)

    low, high = 0, 1
    while not completes(high):
        low, high = high, high * 2
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if completes(middle) else (middle, high)
    return high


def _golden_formulas():
    """Seeded random translated formulas in both polarities, then every
    sample conjoined with its implicit restrictions."""
    journal = parse_license("((pay[1.00] bot* render[journal,d]) | bot)*")
    rng = random.Random(191)
    for index in range(80):
        formula = random_formula(
            rng, rng.randint(1, 4), names=("n", "m"), licenses=[("n", journal)]
        )
        yield f"{index}+", translate(formula)
        yield f"{index}-", Not(translate(formula))
    for path in sorted(glob.glob(os.path.join(SAMPLES, "*.lic"))):
        with open(path, encoding="utf-8") as handle:
            formula = parse_formula(handle.read())
        yield os.path.basename(path), And(translate(formula), implicit_restrictions(formula))


BUDGETED = ("7-", "14-", "35-")


def seeded_tableau_text() -> str:
    """States, edges, acceptance sets and literals of a fixed set of tableaux."""
    blocks = []
    for title, formula in _golden_formulas():
        lines = [f"# {title}: {pretty_formula(formula)}", *_tableau_lines(formula, 60_000)]
        if title in BUDGETED:
            lines.append(f"smallest budget {_smallest_budget(formula)}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


class TestGoldenTableaux:
    def test_seeded_tableaux_are_pinned(self):
        # State numbering, edge order and the budget ticks decide every
        # witness downstream, so the whole graph is pinned, not its language.
        with open(TABLEAU_GOLDEN, encoding="ascii") as handle:
            assert seeded_tableau_text() == handle.read()


def _assert_same_as_lifo(formula):
    closure = to_nnf(formula)
    memoised, lifo = build_tableau(closure), lifo_tableau(closure)
    assert memoised.old_sets == lifo.old_sets
    assert memoised.initial == lifo.initial
    assert memoised.edges == lifo.edges
    assert memoised.accept_sets == lifo.accept_sets
    # completion is monotone in the budget, so this is the same least budget
    least = _smallest_budget(formula)
    assert _completes(lifo_tableau, closure, least)
    assert not _completes(lifo_tableau, closure, least - 1)


class TestAgainstLifoTableau:
    """Expanding each next mask once gives the graph and budget of one expansion per state."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), positive=st.booleans())
    def test_random_formulas(self, seed, positive):
        rng = random.Random(seed)
        journal = parse_license("((pay[1.00] bot* render[journal,d]) | bot)*")
        formula = translate(
            random_formula(rng, rng.randint(1, 5), names=("n", "m"), licenses=[("n", journal)])
        )
        _assert_same_as_lifo(formula if positive else Not(formula))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), positive=st.booleans())
    def test_response_conjunctions(self, seed, positive):
        # Many states, few next masks: the case the memo is for.
        rng = random.Random(seed)
        formula = Truth()
        for _ in range(rng.randint(1, 3)):
            trigger, response = random_ltl(rng, 1, (P, Q, R)), random_ltl(rng, 1, (P, Q, R))
            formula = And(formula, Always(f_implies(trigger, f_eventually(response))))
        _assert_same_as_lifo(formula if positive else Not(formula))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 200))
    def test_deep_next_chains(self, seed, depth):
        rng = random.Random(seed)
        formula = translate(random_formula(rng, 2, names=("n",)))
        for level in range(depth):
            formula = Next(formula) if rng.random() < 0.7 else Not(Next(formula))
        _assert_same_as_lifo(formula)
