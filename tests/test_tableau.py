"""The satisfiability engine: classics, witnesses, and a bounded oracle."""

import itertools
import random

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
)
from lict.ltl import Done, LinearStructure, Permitted, ltl_eval
from lict.reference import ltl_sat
from lict.tableau import build_tableau, to_nnf

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
        assert sum(1 for state in tableau.old_sets if P in tableau.positive_props(state)) == 1


class TestBudget:
    def test_tiny_budget_reports_distinct_outcome(self):
        formula = Until(P, Until(Q, Until(R, And(P, Q))))
        report = ltl_sat(formula, budget=3)
        assert report.status == "budget"


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
