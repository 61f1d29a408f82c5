"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; the only numeric tolerance is the polynomial
growth bound on permission computation at the end.
"""

import itertools
import random
import time
from decimal import Decimal

from lict import (
    BOT,
    Atom,
    Concat,
    Issue,
    Pay,
    Render,
    Union,
    check_spec,
    compile_dr,
    compute_permissions,
    encode_run,
    evaluate,
    f_implies,
    f_nexts,
    f_oblig,
    f_or,
    lic_sat,
    lic_valid,
    make_run,
    parse_formula,
    parse_license,
    parse_run,
    translate,
)
from lict.reference import (
    build_structure,
    check_run_validity_ltl,
    dr_traces,
    license_consequences,
    ltl_eval,
    traces,
)
from lict.cli import main
from lict.digitalrights import DrLicense, Exactly, Single, Upto
from lict.formulas import Act, ActionExpr, Always, And, Next, Not, Perm, Until

from gen import (
    POOL,
    enumerate_satisfying_run,
    oracle_permitted,
    random_formula,
    random_license,
    random_run,
)


def passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS", flush=True)


JOURNAL_TEXT = "((pay[1.00] bot* render[journal,d]) | bot)*"


def test_criterion_1_validity_suite(tmp_path, capsys):
    """Deontic validities, by decision procedure and by random sampling."""
    for text in (
        "P(pay[1.00], n) | P(~pay[1.00], n)",
        "O(pay[1.00], n) -> P(pay[1.00], n)",
    ):
        path = tmp_path / "formula.lic"
        path.write_text(text)
        assert main(["valid", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "result=valid"

    rng = random.Random(1001)
    points = 0
    while points < 10_000:
        run = random_run(rng, horizon=rng.randint(0, 6))
        perms = compute_permissions(run)
        for _ in range(25):
            action = rng.choice(POOL)
            name = rng.choice(("n", "m", "k", "zz"))
            t = rng.randint(0, run.horizon + 3)
            either = f_or(
                Perm(ActionExpr(True, action, name)),
                Perm(ActionExpr(False, action, name)),
            )
            assert evaluate(run, perms, t, either)
            implied = f_implies(
                f_oblig(action, name), Perm(ActionExpr(True, action, name))
            )
            assert evaluate(run, perms, t, implied)
            points += 1
    with capsys.disabled():
        passed(1, "validity suite")


def test_criterion_2_permission_oracle_equivalence():
    """Automaton-based permissions equal the viability definition pointwise."""
    rng = random.Random(1002)
    for _ in range(500):
        run = random_run(rng, horizon=rng.randint(0, 6), max_licenses=3, depth=4)
        perms = compute_permissions(run)
        for name in set(run.names) | {"unissued"}:
            for t in range(run.horizon + 5):
                assert perms.permitted(name, t) == oracle_permitted(run, name, t), (
                    name,
                    t,
                )
    passed(2, "permission oracle equivalence")


def test_criterion_3_direct_vs_ltl_agreement():
    """The direct clauses and the translated-structure route always agree."""
    rng = random.Random(1003)
    pairs = 0
    while pairs < 500:
        run = random_run(rng, horizon=rng.randint(0, 6))
        names = tuple(run.names) or ("n",)
        licenses = [(entry[1], entry[2]) for entry in run.issuances]
        structure = build_structure(run, extra_names=names)
        perms = compute_permissions(run)
        for _ in range(5):
            formula = random_formula(rng, 5, names=names, licenses=licenses)
            translated = translate(formula)
            for t in range(run.horizon + 1):
                assert evaluate(run, perms, t, formula) == ltl_eval(
                    structure, t, translated
                )
            assert check_spec(run, formula) == check_run_validity_ltl(run, formula)
            pairs += 1
    passed(3, "direct vs ltl agreement")


def _shallow_temporal_formula(rng, names, pool):
    """A formula with at most two temporal operators."""

    def atom():
        kind = rng.random()
        expr = ActionExpr(rng.random() < 0.7, rng.choice(pool), rng.choice(names))
        if kind < 0.5:
            return Act(expr)
        if kind < 0.8:
            return Perm(expr)
        return f_oblig(rng.choice(pool), rng.choice(names))

    def boolean(depth):
        if depth <= 0 or rng.random() < 0.4:
            return atom()
        if rng.random() < 0.5:
            return Not(boolean(depth - 1))
        return And(boolean(depth - 1), boolean(depth - 1))

    formula = boolean(2)
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.4:
            formula = Next(formula)
        elif roll < 0.7:
            formula = Always(formula)
        else:
            formula = Until(boolean(1), formula)
    return formula


def test_criterion_4_run_encoding_micro():
    """Truth in a run coincides with validity of its encoding's implication."""
    rng = random.Random(1004)
    for _ in range(50):
        run = random_run(
            rng,
            horizon=rng.randint(0, 3),
            max_licenses=2,
            depth=2,
            names=("n", "m"),
        )
        while not run.names:  # the encoding pins only issued names
            run = random_run(rng, horizon=rng.randint(0, 3), max_licenses=2, depth=2, names=("n", "m"))
        names = tuple(sorted(run.names))
        formula = _shallow_temporal_formula(rng, names, POOL[:3])
        t = rng.randint(0, run.horizon)
        direct = evaluate(run, compute_permissions(run), t, formula)
        started = time.perf_counter()
        verdict = lic_valid(f_implies(encode_run(run), f_nexts(formula, t)))
        elapsed = time.perf_counter() - started
        assert elapsed <= 10.0, f"instance took {elapsed:.1f}s"
        assert verdict.status == ("valid" if direct else "invalid")
    passed(4, "run encoding theorem at micro scale")


def test_criterion_5_license_consequences():
    """Issuing a license validly implies its unfolded permission formulas."""
    rng = random.Random(1005)
    pool = (BOT, Pay(Decimal("1.00")), Render("w", "d"))
    licenses = [
        parse_license("pay[1.00]"),
        parse_license("pay[1.00] render[w,d]"),
        parse_license("(pay[1.00] | bot) render[w,d]"),
        parse_license("(pay[1.00] bot)*"),
        parse_license("pay[1.00]* | render[w,d]"),
    ]
    while len(licenses) < 10:
        candidate = random_license(rng, 3, pool)
        licenses.append(candidate)
    for lic in licenses:
        for depth in range(3):
            implication = f_implies(
                Issue("n", lic), license_consequences("n", lic, depth)
            )
            assert lic_valid(implication).status == "valid", (lic, depth)

    falsification_attempts = 0
    while falsification_attempts < 1000:
        lic = rng.choice(licenses)
        depth = rng.randint(0, 2)
        implication = f_implies(Issue("n", lic), license_consequences("n", lic, depth))
        base = random_run(rng, horizon=rng.randint(0, 4), names=("m",), max_licenses=1)
        run = make_run(
            list(base.issuances) + [(rng.randint(0, base.horizon), "n", lic)],
            base.actions,
            horizon=base.horizon,
        )
        perms = compute_permissions(run)
        for t in range(run.horizon + 2):
            assert evaluate(run, perms, t, implication)
            falsification_attempts += 1
    passed(5, "license consequence formulas")


def test_criterion_6_satisfiability_round_trip():
    """Sat ships verified witness runs; unsat agrees with exhaustive search."""
    rng = random.Random(1006)
    small_pool = (BOT, Pay(Decimal("1.00")), Render("w", "d"))
    tiny_pool = (BOT, Pay(Decimal("1.00")))
    sat_seen = 0
    unsat_checked = 0
    two_name_unsat = 0
    for index in range(90):
        two_names = index % 5 == 0
        if two_names:
            names = ("n", "m")
            pool = tiny_pool
        else:
            names = ("n",)
            pool = small_pool
        licenses = []
        if rng.random() < 0.7:
            licenses.append((names[0], random_license(rng, 2, pool)))
        formula = random_formula(
            rng, rng.randint(1, 4), names=names, pool=pool, licenses=licenses
        )
        report = lic_sat(formula)
        assert report.status in ("sat", "unsat")
        if report.status == "sat":
            sat_seen += 1
            perms = compute_permissions(report.run)
            assert evaluate(report.run, perms, 0, formula)
        else:
            if two_names:
                if two_name_unsat >= 6:
                    continue
                two_name_unsat += 1
            unsat_checked += 1
            assert enumerate_satisfying_run(formula, max_horizon=3) is None
    assert sat_seen >= 30 and unsat_checked >= 15
    passed(6, "satisfiability round trip")


def test_criterion_7a_journal_scenario():
    """The journal property and the non-violation family hold as published."""
    run = parse_run(
        f"""
        @0 issue n = {JOURNAL_TEXT}
        @0 do n pay[1.00]
        @2 do n render[journal,d]
        """
    )
    prop = parse_formula("(pay[1.00], n) -> X(!O(render[journal,d], n))")
    assert check_spec(run, prop)
    assert check_run_validity_ltl(run, prop)
    actions = ("pay[1.00]", "render[journal,d]", "bot")
    clauses = " & ".join(
        f"((({a}, n) -> P({a}, n)) & (O({a}, n) -> ({a}, n)))" for a in actions
    )
    spec = parse_formula(f"issue(n, {JOURNAL_TEXT}) -> G({clauses})")
    assert check_spec(run, spec)
    passed(7, "journal scenario (a)")


def test_criterion_7b_mortgage_scenario():
    """Skipping the early payment obligates the late, larger one."""
    early, late = Pay(Decimal("1500.00")), Pay(Decimal("1525.00"))
    month = Union(
        Concat(Atom(early), Concat(Atom(BOT), Atom(BOT))),
        Union(
            Concat(Atom(BOT), Concat(Atom(late), Atom(BOT))),
            Concat(Atom(BOT), Concat(Atom(BOT), Atom(late))),
        ),
    )
    mortgage = month
    for _ in range(11):
        mortgage = Concat(mortgage, month)

    # month one: skip the early slot, then pay late; month two: pay early
    run = make_run(
        [(0, "m", mortgage)],
        [(2, "m", late), (3, "m", early)],
        horizon=5,
    )
    perms = compute_permissions(run)
    assert perms.permitted("m", 0) == {early, BOT}
    assert perms.permitted("m", 1) == {late, BOT}
    assert perms.obligated("m", 1) is None
    assert perms.obligated("m", 2) == late
    assert evaluate(run, perms, 2, f_oblig(late, "m"))
    # the late payment kept the run viable into the next month
    assert perms.permitted("m", 3) == {early, BOT}
    passed(7, "mortgage scenario (b)")


def test_criterion_8_digitalrights_equivalence():
    """Compiled DR licenses have exactly the schedule trace sets."""
    works_options = (frozenset({"w"}), frozenset({"w", "v"}))
    devices_options = (frozenset({"d"}), frozenset({"d", "e"}))
    repetitions = [Single(p) for p in (1, 2, 3)]
    repetitions += [Exactly(m, p) for m in (1, 2) for p in (1, 2, 3)]
    repetitions += [Upto(m, p) for m in (1, 2) for p in (1, 2, 3)]
    for schedule, repetition, works, devices in itertools.product(
        ("upfront", "flatrate", "peruse"), repetitions, works_options, devices_options
    ):
        entry = DrLicense(repetition, Decimal("1.50"), schedule, works, devices)
        expected = dr_traces(entry)
        compiled = compile_dr(entry)
        assert traces(compiled, entry.total_units) == expected, entry
    reduced = DrLicense(Exactly(3, 3), Decimal("10.00"), "flatrate", frozenset({"w"}), frozenset({"d"}))
    assert traces(compile_dr(reduced), 9) == dr_traces(reduced)
    passed(8, "digitalrights equivalence")


def test_polynomial_growth_of_permission_computation():
    """Runtime grows at most quadratically with the run horizon."""
    lic = parse_license(JOURNAL_TEXT)
    pay, read = Pay(Decimal("1.00")), Render("journal", "d")

    def timed(horizon: int) -> float:
        actions = []
        t = 0
        while t + 1 < horizon:
            actions += [(t, "n", pay), (t + 1, "n", read)]
            t += 2
        run = make_run([(0, "n", lic)], actions, horizon=horizon)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            compute_permissions(run)
            best = min(best, time.perf_counter() - started)
        return best

    t10, t100, t1000 = timed(10), timed(100), timed(1000)
    assert t100 / t10 <= 4 * (100 / 10) ** 2, (t10, t100)
    assert t1000 / t100 <= 4 * (1000 / 100) ** 2, (t100, t1000)
    passed(0, "polynomial growth of permission computation")
