"""Satisfiability and validity for the license logic.

Cross-checked three ways: witness runs re-evaluated under the direct
semantics, exhaustive run enumeration at micro scale, and the generic
tableau on the translated formula conjoined with the implicit and
finiteness restrictions.
"""

import os
import random
from decimal import Decimal

from lict import (
    ZERO,
    And,
    Issue,
    Not,
    Pay,
    compute_permissions,
    evaluate,
    finiteness_restriction,
    implicit_restrictions,
    lic_sat,
    lic_valid,
    ltl_sat,
    parse_formula,
    parse_license,
    pretty_formula,
    pretty_run,
    translate,
)

from gen import enumerate_satisfying_run, random_formula, random_license

PAY = Pay(Decimal("1.00"))
JOURNAL = parse_license("((pay[1.00] bot* render[journal,d]) | bot)*")
WITNESS_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "lic-sat-random.txt")


def micro_formula(rng: random.Random, two_names: bool):
    """Small formulas over at most two names and three actions."""
    from lict import BOT, Render

    if two_names:
        names = ("n", "m")
        pool = (BOT, PAY)
    else:
        names = ("n",)
        pool = (BOT, PAY, Render("w", "d"))
    licenses = []
    if rng.random() < 0.7:
        licenses.append((names[0], random_license(rng, 2, pool)))
    return random_formula(rng, rng.randint(1, 4), names=names, pool=pool, licenses=licenses)


class TestSpotChecks:
    def test_permission_or_complement_is_valid(self):
        assert lic_valid(parse_formula("P(pay[1.00], n) | P(~pay[1.00], n)")).status == "valid"

    def test_obligation_implies_permission_is_valid(self):
        assert lic_valid(parse_formula("O(pay[1.00], n) -> P(pay[1.00], n)")).status == "valid"

    def test_bare_permission_is_invalid_with_idle_counterexample(self):
        report = lic_valid(parse_formula("P(pay[1.00], n)"))
        assert report.status == "invalid"
        counterexample = report.counterexample
        assert not evaluate(
            counterexample,
            compute_permissions(counterexample),
            0,
            parse_formula("P(pay[1.00], n)"),
        )

    def test_issue_pay_forbids_render_permission(self):
        formula = parse_formula("issue(n, pay[1.00]) & P(render[w,d], n)")
        assert lic_sat(formula).status == "unsat"

    def test_issuing_pay_obligates_paying(self):
        formula = parse_formula("!(issue(n, pay[1.00]) -> O(pay[1.00], n))")
        assert lic_sat(formula).status == "unsat"

    def test_client_may_act_without_a_license(self):
        report = lic_sat(parse_formula("(render[w,d], n)"))
        assert report.status == "sat"

    def test_bot_action_satisfiable_by_idle_run(self):
        report = lic_sat(parse_formula("(bot, n)"))
        assert report.status == "sat"
        assert report.run.names == frozenset()

    def test_doing_forever_needs_an_infinite_run_so_unsat(self):
        # Satisfiability is over finite runs: demanding a non-bot action at
        # every time can never be met.
        formula = parse_formula("G (pay[1.00], n)")
        assert lic_sat(formula).status == "unsat"

    def test_eventually_idle_is_valid_over_finite_runs(self):
        formula = parse_formula("F G (bot, n)")
        assert lic_valid(formula).status == "valid"

    def test_same_name_cannot_hold_two_licenses(self):
        formula = parse_formula("issue(n, pay[1.00]) & X issue(n, bot)")
        assert lic_sat(formula).status == "unsat"

    def test_same_license_cannot_be_reissued(self):
        formula = parse_formula("issue(n, pay[1.00]) & X issue(n, pay[1.00])")
        assert lic_sat(formula).status == "unsat"

    def test_simultaneous_double_issue_conflicts(self):
        formula = parse_formula("issue(n, pay[1.00]) & issue(n, bot)")
        assert lic_sat(formula).status == "unsat"

    def test_contradiction(self):
        formula = parse_formula("(pay[1.00], n) & !(pay[1.00], n)")
        assert lic_sat(formula).status == "unsat"

    def test_obligation_excludes_other_permissions(self):
        formula = parse_formula("P(pay[1.00], n) & O(render[w,d], n)")
        assert lic_sat(formula).status == "unsat"

    def test_two_obligations_on_one_name_conflict(self):
        formula = parse_formula("O(pay[1.00], n) & O(render[w,d], n)")
        assert lic_sat(formula).status == "unsat"

    def test_budget_outcome(self):
        formula = parse_formula("issue(n, (pay[1.00] | bot)*) & F O(pay[1.00], n)")
        assert lic_sat(formula, budget=3).status == "budget"


class TestRunSpaceEdges:
    def test_issuing_the_empty_license_starts_over(self):
        # The empty license has an empty start subset: issuing it puts the
        # name straight into the violated status.
        report = lic_sat(Issue("n", ZERO))
        assert report.status == "sat"
        assert pretty_run(report.run) == "@0 issue n = 0"

    def test_violated_status_permits_only_bot(self):
        formula = And(Issue("n", ZERO), parse_formula("X P(~bot, n)"))
        assert lic_sat(formula).status == "unsat"

    def test_witness_picks_the_license_that_permits(self):
        formula = parse_formula(
            "(issue(n, pay[1.00]) | issue(n, pay[2.00] pay[2.00])) & X P(pay[2.00], n)"
        )
        report = lic_sat(formula)
        assert report.status == "sat"
        assert "@0 issue n = pay[2.00] pay[2.00]" in pretty_run(report.run).splitlines()

    def test_equal_subsets_of_two_licenses_stay_apart(self):
        # Both licenses have the subsets {0}, {1}, ...  Were statuses keyed
        # by subset alone, the first license's subset after pay[1.00] would
        # be taken for the second's, which permits pay[2.00].
        formula = parse_formula(
            "issue(n, pay[1.00]) & X P(pay[2.00], n) & G !issue(n, pay[2.00] pay[2.00])"
        )
        assert lic_sat(formula).status == "unsat"


class TestWitnessRoundTrip:
    def test_every_sat_witness_reevaluates(self):
        # lic_sat raises internally if a witness fails; this drives many
        # formulas through to make sure no such failure occurs and that the
        # shipped runs satisfy their formulas at time zero.
        rng = random.Random(163)
        sat_count = 0
        for _ in range(150):
            formula = micro_formula(rng, two_names=rng.random() < 0.4)
            report = lic_sat(formula)
            if report.status == "sat":
                sat_count += 1
                perms = compute_permissions(report.run)
                assert evaluate(report.run, perms, 0, formula)
        assert sat_count > 30


class TestAgainstEnumeration:
    def test_unsat_answers_agree_with_exhaustive_search(self):
        rng = random.Random(167)
        unsat_checked = 0
        for _ in range(60):
            formula = micro_formula(rng, two_names=rng.random() < 0.2)
            report = lic_sat(formula)
            if report.status != "unsat":
                continue
            unsat_checked += 1
            assert enumerate_satisfying_run(formula, max_horizon=3) is None, pretty_formula(formula)
        assert unsat_checked >= 10

    def test_sat_answers_agree_with_exhaustive_search(self):
        rng = random.Random(173)
        for _ in range(40):
            formula = micro_formula(rng, two_names=False)
            witness = enumerate_satisfying_run(formula, max_horizon=2)
            if witness is not None:
                assert lic_sat(formula).status == "sat", pretty_formula(formula)


class TestAgainstGenericRoute:
    def test_negated_obligation_implication_unsat_both_ways(self):
        formula = Not(parse_formula("issue(n, pay[1.00]) -> O(pay[1.00], n)"))
        full = And(
            And(translate(formula), implicit_restrictions(formula)),
            finiteness_restriction(formula),
        )
        assert ltl_sat(full).status == "unsat"
        assert lic_sat(formula).status == "unsat"

    def test_status_matches_tableau_on_restrictions(self):
        # The run-shaped product must answer exactly like the generic
        # tableau run on translation + implicit + finiteness restrictions.
        rng = random.Random(179)
        compared = 0
        for _ in range(40):
            formula = micro_formula(rng, two_names=False)
            full = And(
                And(translate(formula), implicit_restrictions(formula)),
                finiteness_restriction(formula),
            )
            generic = ltl_sat(full, budget=400_000)
            if generic.status == "budget":
                continue
            compared += 1
            assert lic_sat(formula).status == generic.status, pretty_formula(formula)
        assert compared >= 20


def seeded_witness_text() -> str:
    """Status and witness run of lic_sat on a fixed set of random formulas."""
    rng = random.Random(181)
    blocks = []
    for index in range(250):
        formula = random_formula(
            rng, rng.randint(2, 6), names=("n", "m"), licenses=[("n", JOURNAL)]
        )
        report = lic_sat(formula, budget=20_000)
        lines = [f"# {index}: {pretty_formula(formula)}", report.status]
        if report.run is not None:
            lines.append(pretty_run(report.run))
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


class TestGoldenWitnesses:
    def test_seeded_statuses_and_witnesses_are_pinned(self):
        # The tableau's state numbering decides which lasso is found first,
        # so this pins the whole pipeline, not only the sat/unsat answers.
        with open(WITNESS_GOLDEN, encoding="ascii") as handle:
            assert seeded_witness_text() == handle.read()
