"""Satisfiability and validity for the license logic.

Cross-checked three ways: witness runs re-evaluated under the direct
semantics, exhaustive run enumeration at micro scale, and the generic
tableau on the translated formula conjoined with the implicit and
finiteness restrictions.
"""

import glob
import os
import random
from decimal import Decimal
from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lict import (
    BOT,
    ZERO,
    And,
    Issue,
    Next,
    Not,
    Pay,
    Until,
    compute_permissions,
    evaluate,
    f_or,
    lic_sat,
    lic_valid,
    parse_formula,
    parse_license,
    pretty_formula,
    pretty_license,
    pretty_run,
    translate,
)
from lict.automata import Nfa, build_nfa, reachable_subsets
from lict.formulas import formula_atoms, map_atoms
from lict.licsat import (
    OTHER,
    _atom_bits,
    _components,
    _product_sat,
    _run_spaces,
    fresh_action,
)
from lict.ltl import Done, Permitted, build_vocabulary, implicit_restrictions
from lict.reference import finiteness_restriction, lifo_tableau, ltl_sat, name_props, state_atoms
from lict.reference import parse_license as reference_parse_license
from lict import parsing
from lict import tableau as tableau_module
from lict.tableau import build_tableau, to_nnf

from gen import enumerate_satisfying_run, micro_formula, random_formula, random_license, subset_blowup_text

PAY = Pay(Decimal("1.00"))
NAMES_5 = ("n", "m", "k", "j", "i")
JOURNAL_TEXT = "((pay[1.00] bot* render[journal,d]) | bot)*"
JOURNAL = parse_license(JOURNAL_TEXT)
WITNESS_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "lic-sat-random.txt")
BUDGET_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "lic-sat-budget.txt")
SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def holds(run, formula) -> bool:
    return evaluate(run, compute_permissions(run), 0, formula)


def chain(template: str, names, connective: str = "&"):
    """The left-grouped conjunction (or other connective) of ``template``
    instantiated per name."""
    return parse_formula(f" {connective} ".join(f"({template.format(n=name)})" for name in names))


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

    def test_always_of_many_disjunctions_runs_out_in_the_tableau(self):
        # 2**30 transitions, each a choice of one action per name and pair
        pairs = " & ".join(f"((bot, a{i}) | (bot, b{i}))" for i in range(30))
        assert lic_sat(parse_formula(f"G ({pairs})"), budget=1000).status == "budget"


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


def _two_pays(cents: int) -> str:
    """A two-step license: its automaton has subset ids past 0 and 1."""
    return f"pay[{cents / 100:.2f}] pay[{cents / 100:.2f}]"


class TestEvictedAutomata:
    """Each run space reads a license's automaton once and keeps reading ids
    through it: an automaton source that keeps one automaton, and numbers
    subsets afresh each time it builds again, gives the same status, and so
    does a name with more licenses than the parsers' map keeps."""

    ONE_NAME = [
        f"(issue(n, {_two_pays(100)}) | issue(n, {_two_pays(200)})) & X P(pay[2.00], n)",
        f"(issue(n, {_two_pays(100)}) | issue(n, {_two_pays(200)})) & X P(pay[3.00], n)",
    ]
    # a, k and z fall in one component, and k's license is padded between
    # the two uses of the one a and z share
    SHARED = [
        f"issue(a, {_two_pays(100)}) & issue(z, {_two_pays(100)})"
        f" & X (P(pay[1.00], a) & P(pay[1.00], z) & !issue(k, {_two_pays(500)}))",
        f"issue(a, {_two_pays(100)}) & issue(z, {_two_pays(100)})"
        f" & X (P(pay[1.00], a) & !P(pay[1.00], z) & !issue(k, {_two_pays(500)}))",
    ]

    @pytest.mark.parametrize("text", ONE_NAME + SHARED)
    def test_a_one_entry_cache_gives_the_same_status(self, text, monkeypatch):
        formula = parse_formula(text)
        expected = lic_sat(formula).status
        tiny = lru_cache(maxsize=1)(lambda lic: build_nfa(lic, padded=True))
        monkeypatch.setattr("lict.licsat.padded_nfa", tiny)
        assert lic_sat(formula).status == expected

    def test_more_licenses_for_one_name_than_the_cache_holds(self):
        count = parsing.LICENSES_KEPT + 1
        others = " & ".join(f"!issue(n, {_two_pays(cents)})" for cents in range(100, 100 * (count + 1), 100))
        formula = parse_formula(f"issue(n, {_two_pays(100)}) | ({others} & X P(pay[2.00], n))")
        report = lic_sat(formula)
        assert report.status == "sat"
        assert holds(report.run, formula)


def _entered(space, status) -> tuple:
    """The (subset, permitted set) behind a status: None before issuance, empty once over."""
    if status < 2:
        return (None, frozenset({BOT})) if status == 0 else (frozenset(), frozenset({BOT}))
    license_index, subset = space.statuses[status]
    nfa = space.automata[license_index]
    return nfa.subsets[subset], nfa.permitted_id(subset)


def _expand(space) -> set[int]:
    """Builds every row reachable from status 0; returns the statuses reached."""
    reached = {0}
    stack = [0]
    while stack:
        status = stack.pop()
        space.build(status)
        for option in space.rows[status]:
            if option[3] not in reached:
                reached.add(option[3])
                stack.append(option[3])
    return reached


def _issue_parsed_apart(atom):
    """The atom, an issue atom with its license rebuilt from its text.

    The reference parser builds it, so it equals the atom's license but is
    never the same object, which the parsers' shared map would give.
    """
    if not isinstance(atom, Issue):
        return atom
    twin = reference_parse_license(pretty_license(atom.license))
    assert twin == atom.license and twin is not atom.license
    return Issue(atom.name, twin)


def _licenses_parsed_apart(formula):
    """The formula with each issue atom's license rebuilt from its text, apart."""
    return map_atoms(formula, _issue_parsed_apart)


def _check_option_labels(formula, vocab) -> tuple[int, int, int]:
    """Checks every option label of the formula's rows, each built, against name_props.

    Also checks that the statuses built are 0, 1 and one per nonempty
    reachable subset of each license.  Returns how many options with an
    issuance, with a vocabulary act and with the "other" act have a
    nonzero label.
    """
    atom_bits = _atom_bits(build_tableau(to_nnf(translate(formula))))
    spaces = _run_spaces(vocab, atom_bits)
    issued = done = other = 0
    for name, space in zip(vocab.names, spaces, strict=True):
        bits = atom_bits.get(name, {})
        reached = _expand(space)
        # a license's start status is entered at issuance, whose option's
        # next status is the start's successor
        starts = {id(lic): space.numbers.get((index, nfa.start), 1) for index, (lic, nfa) in enumerate(zip(space.licenses, space.automata))}
        assert reached | {1} | set(starts.values()) == set(range(len(space.rows)))
        assert set(space.statuses[2:]) == {
            (index, subset)
            for index, nfa in enumerate(space.automata)
            for subset in reachable_subsets(nfa, vocab.actions)
        }
        for status, row in enumerate(space.rows):
            for issue, act, label, *_ in row or ():
                entered = _entered(space, status if issue is None else starts[id(issue)])
                action = None if act is OTHER else act
                props = name_props(name, issue, action, *entered)
                assert label == sum(bits[prop] for prop in props if prop in bits)
                issued += issue is not None and label != 0
                done += action is not None and label != 0
                other += action is None and label != 0
    return issued, done, other


class TestProductMoves:
    def test_option_labels_are_the_literal_bits_of_name_props(self):
        # An option's label mask ORs its status's, issuance's and act's
        # atoms; it must equal the option's whole name_props set cut to the
        # name's literal atoms.  Each formula is also labelled under a
        # vocabulary whose licenses equal the atoms' but were parsed apart,
        # so a label matching licenses by identity loses the issued bits.
        rng = random.Random(211)
        issued = done = 0
        for _ in range(60):
            names = ("n", "m", "k")[: rng.randint(1, 3)]
            licenses = [(names[0], JOURNAL)]
            licenses += [(name, random_license(rng, 2)) for name in names if rng.random() < 0.5]
            formula = random_formula(rng, rng.randint(1, 4), names=names, licenses=licenses)
            for vocab_of in (formula, _licenses_parsed_apart(formula)):
                counts = _check_option_labels(formula, build_vocabulary(vocab_of))
                issued += counts[0]
                done += counts[1]
        assert issued > 40 and done > 200

    def test_option_labels_when_only_another_action_meets_the_formula(self):
        # Not bot, not the journal's pay or render: at time 0 the name does
        # the "other" action, whose label carries its status's and
        # issuance's bits but no Done bit.  Each issue atom's journal is
        # rebuilt apart, so the two atoms hold equal, distinct licenses.
        text = (
            f"issue(n, {JOURNAL_TEXT}) & (~bot, n) & !(pay[1.00], n) & !(render[journal,d], n)"
            f" & P(pay[1.00], n) & X (G !issue(n, {JOURNAL_TEXT}) & !P(pay[1.00], n))"
        )
        issues = []

        def apart(atom):
            atom = _issue_parsed_apart(atom)
            if isinstance(atom, Issue):
                issues.append(atom)
            return atom

        formula = map_atoms(parse_formula(text), apart)
        first, second = issues
        assert first.license == second.license and first.license is not second.license
        issued, _, other = _check_option_labels(formula, build_vocabulary(formula))
        assert issued > 0 and other > 0
        report = lic_sat(formula)
        assert report.status == "sat"
        assert report.run.action("n", 0) == Pay(Decimal("2.00"))

    def test_replayed_moves_are_still_charged(self):
        # Golden budget #24: a tableau state kept in the pruned successor
        # lists of two masks is reached twice with the same statuses.  Its move
        # is built once and replayed, and the replay is charged its joint
        # choices again.
        formula = parse_formula(f"G (F (pay[2.50], m) | F issue(n, {JOURNAL_TEXT}))")
        assert lic_sat(formula, budget=751).status == "budget"
        assert lic_sat(formula, budget=752).status == "unsat"


class TestRowsOnFirstReach:
    @pytest.mark.parametrize("budget", [100, 1000])
    def test_a_subset_blowup_is_stepped_within_the_budget(self, budget, monkeypatch):
        # The license reaches 3 * 2**16 + 1 subsets.  A row is built only for
        # a status a charged joint choice reached, each with one step per
        # letter of the name's alphabet, so the automaton is stepped at most
        # ``budget`` times here (51 and 486), not once per subset and letter.
        calls = 0
        step_id = Nfa.step_id

        def counting(nfa, subset, letter):
            nonlocal calls
            calls += 1
            return step_id(nfa, subset, letter)

        monkeypatch.setattr(Nfa, "step_id", counting)
        assert lic_sat(parse_formula(subset_blowup_text(16)), budget=budget).status == "budget"
        assert 0 < calls <= budget


P_N, Q_N, R_M = Done(BOT, "n"), Permitted(BOT, "n"), Done(BOT, "m")


def _initial(formula):
    """The tableau of a target formula, and each initial state's (true, false) atoms."""
    tableau = build_tableau(to_nnf(formula))
    atoms = [(state_atoms(tableau, state), state_atoms(tableau, state, False)) for state in tableau.initial]
    return tableau, atoms


class TestDominatedTransitions:
    """The tableau drops a cube when another of the same next mask asks for a
    subset of its literals and is in every accept set it is in."""

    def test_a_literal_superset_of_the_same_next_mask_is_dropped(self):
        _, atoms = _initial(f_or(P_N, And(P_N, Q_N)))
        assert atoms == [({P_N}, set())]

    def test_different_next_masks_never_prune_each_other(self):
        # p & X q asks for fewer literals than p & q, but postpones q
        tableau, atoms = _initial(f_or(And(P_N, Next(Q_N)), And(P_N, Q_N)))
        assert atoms == [({P_N}, set()), ({P_N, Q_N}, set())]
        first, second = tableau.initial
        assert tableau.edges[first] is not tableau.edges[second]

    def test_the_postponing_cube_of_an_until_is_outside_its_accept_set(self):
        tableau, atoms = _initial(Until(P_N, Q_N))
        assert atoms == [({Q_N}, set()), ({P_N}, set())]
        fulfilling, postponing = tableau.initial
        assert tableau.accept_sets == [frozenset(tableau.accept_sets[0])]
        assert fulfilling in tableau.accept_sets[0] and postponing not in tableau.accept_sets[0]

    def test_literal_superset_is_dropped_only_when_its_accept_sets_are_covered(self):
        until = Until(P_N, Q_N)
        # p & r & X(p U q) asks for more than the postponing p, but is in the
        # accept set the postponing cube is not in, so both stay
        tableau, atoms = _initial(f_or(until, And(And(P_N, R_M), Next(until))))
        assert atoms == [({Q_N}, set()), ({P_N}, set()), ({P_N, R_M}, set())]
        # p & X(p U q) asks for the same literals and is in every accept set
        # the postponing cube is in, so it takes the postponing cube's place
        tableau, atoms = _initial(f_or(until, And(P_N, Next(until))))
        assert atoms == [({Q_N}, set()), ({P_N}, set())]
        assert set(tableau.initial) <= tableau.accept_sets[0]

    def test_of_equal_states_the_first_is_kept(self):
        # one cube from two branches of one union
        tableau, atoms = _initial(f_or(And(P_N, Q_N), And(Q_N, P_N)))
        assert atoms == [({P_N, Q_N}, set())]
        # one state reached from two next masks, each with its own list
        tableau, _ = _initial(f_or(Next(And(P_N, Q_N)), Next(And(Q_N, P_N))))
        first, second = tableau.initial
        assert tableau.edges[first] is not tableau.edges[second]
        assert tableau.edges[first] == tableau.edges[second] == [2]
        assert len(tableau.old_sets) == 4  # and the true cube after it

    def test_list_order_is_kept(self):
        # p dominates p & q and comes after !p & q, which dominates !p & q & r:
        # the kept cubes are numbered in the order they are first built
        formula = f_or(f_or(f_or(And(Not(P_N), Q_N), P_N), And(P_N, Q_N)), And(And(Not(P_N), Q_N), R_M))
        tableau, atoms = _initial(formula)
        assert tableau.initial == [0, 1]
        assert atoms == [({Q_N}, {P_N}), ({P_N}, set())]

    def test_pruning_keeps_statuses_and_raises_no_budget(self, monkeypatch):
        # Pruned cube sets against the same construction keeping every
        # distinct cube (one unit of ticks, so least budgets compare), and
        # against the unpruned stack-based expansion of lict.reference (the
        # same answers, witnesses that re-verify either way).  Golden budgets
        # #22 and #24 ride along, as pruning lowers theirs.
        rng = random.Random(227)
        formulas = [micro_formula(rng, two_names=index % 3 == 0) for index in range(150)]
        journal = f"issue(n, {JOURNAL_TEXT})"
        formulas += [
            parse_formula(f"G (render[w,d], n) U (X {journal} & X ({journal} | (bot, n)))"),
            parse_formula(f"G (F (pay[2.50], m) | F {journal})"),
        ]
        keep = tableau_module._add
        pruned = []

        def counting_add(keys, key):
            before = keys[:]
            keep(keys, key)
            pruned.append(key not in before and len(keys) != len(before) + 1)

        def unpruned_add(keys, key):
            if key not in keys:
                keys.append(key)

        pruned_any = 0
        for formula in formulas:
            with monkeypatch.context() as patch:
                patch.setattr(tableau_module, "_add", counting_add)
                pruned.clear()
                build_tableau(to_nnf(translate(formula)))
            pruned_any += any(pruned)
        shipped = [(lic_sat(formula), _least_budget(formula)) for formula in formulas]
        with monkeypatch.context() as patch:
            patch.setattr(tableau_module, "_add", unpruned_add)
            unpruned = [_least_budget(formula) for formula in formulas]
        monkeypatch.setattr("lict.licsat.build_tableau", lifo_tableau)
        lowered = sat = 0
        for formula, (report, (status, budget)), (unpruned_status, unpruned_budget) in zip(formulas, shipped, unpruned):
            full = lic_sat(formula)
            text = pretty_formula(formula)
            assert report.status == full.status == status == unpruned_status, text
            if report.status == "sat":
                sat += 1
                assert holds(report.run, formula) and holds(full.run, formula), text
            assert budget <= unpruned_budget, text
            lowered += budget < unpruned_budget
        assert pruned_any >= 5 and sat >= 30 and lowered >= 2

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), two_names=st.booleans())
    def test_random_statuses_match_the_unpruned_expansion(self, seed, two_names):
        formula = micro_formula(random.Random(seed), two_names=two_names)
        pruned = lic_sat(formula)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("lict.licsat.build_tableau", lifo_tableau)
            full = lic_sat(formula)
        assert pruned.status == full.status, pretty_formula(formula)
        if pruned.status == "sat":
            assert holds(pruned.run, formula) and holds(full.run, formula)


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


# Decided on its own, this one runs out of a budget of 5 ticks, while each
# single-name formula of TestNameComponents stays within it.
EXCEEDS_5 = "issue(q, (pay[1.00] | bot)*) & F O(pay[1.00], q)"


# The boolean tops a formula over per-name parts may have.
TOPS = {
    "and": lambda parts: reduce(And, parts),
    "or": lambda parts: reduce(f_or, parts),
    "not and": lambda parts: Not(reduce(And, parts)),
    "not or": lambda parts: Not(reduce(f_or, parts)),
}


class TestNameComponents:
    """A formula's boolean top is split into groups over disjoint names,
    each decided on its own."""

    def test_conjuncts_group_by_shared_names(self):
        formula = parse_formula(
            "(pay[1.00], n) & P(bot, m) & (issue(k, bot) -> (bot, n)) & true & X (bot, j)"
        )
        conjunctive, groups = _components(formula)
        assert conjunctive
        assert [sorted(atom.pretty() for atom in atoms) for _, atoms in groups] == [
            ["(bot, n)", "(pay[1.00], n)", "issue(k, bot)"],
            ["P(bot, m)"],
            [],
            ["(bot, j)"],
        ]
        assert [pretty_formula(part) for part, _ in groups] == [
            "(pay[1.00], n) & (issue(k, bot) -> (bot, n))",
            "P(bot, m)",
            "true",
            "X (bot, j)",
        ]

    def test_one_component_is_the_formula_itself(self):
        # The last conjunct joins the first two.
        formula = parse_formula("(pay[1.00], n) & ((bot, m) & X ((pay[1.00], n) | (bot, m)))")
        conjunctive, groups = _components(formula)
        assert conjunctive
        assert len(groups) == 1
        assert groups[0][0] is formula
        assert groups[0][1] == formula_atoms(formula)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), top=st.sampled_from(list(TOPS)))
    def test_split_answers_match_the_joint_product(self, seed, top):
        rng = random.Random(seed)
        parts = []
        for name in ("n", "m", "k")[: rng.randint(2, 3)]:
            licenses = [(name, random_license(rng, 2, (BOT, PAY)))] if rng.random() < 0.7 else []
            parts.append(
                random_formula(rng, rng.randint(1, 3), names=(name,), pool=(BOT, PAY), licenses=licenses)
            )
        formula = TOPS[top](parts)
        vocab = build_vocabulary(formula)
        other = fresh_action(vocab.actions)
        joint_sat = _product_sat(formula, vocab, 200_000, other).status
        joint_counter = _product_sat(Not(formula), vocab, 200_000, other).status
        sat = lic_sat(formula)
        assert sat.status == joint_sat, pretty_formula(formula)
        if sat.status == "sat":
            assert holds(sat.run, formula)
        valid = lic_valid(formula)
        assert valid.status == {"sat": "invalid", "unsat": "valid"}[joint_counter], pretty_formula(formula)
        if valid.status == "invalid":
            assert not holds(valid.counterexample, formula)

    def test_five_guarded_journals_are_valid(self):
        formula = chain("issue({n}, " + JOURNAL_TEXT + ") -> X X P(bot, {n})", NAMES_5[:5])
        assert lic_valid(formula).status == "valid"

    def test_four_guarded_journals_pay_or_render_is_invalid(self):
        formula = chain(
            "issue({n}, " + JOURNAL_TEXT + ") -> X X (P(pay[1.00], {n}) | P(render[journal,d], {n}))",
            NAMES_5[:4],
        )
        report = lic_valid(formula)
        assert report.status == "invalid"
        assert not holds(report.counterexample, formula)

    def test_budget_applies_per_component(self):
        # Each journal alone fits a budget of 100 ticks; their joint product does not.
        formula = chain("issue({n}, " + JOURNAL_TEXT + ") & F (render[journal,d], {n})", NAMES_5[:2])
        for part, _ in _components(formula)[1]:
            assert _product_sat(part, build_vocabulary(part), 100, PAY).status == "sat"
        assert _product_sat(formula, build_vocabulary(formula), 100, PAY).status == "budget"
        report = lic_sat(formula, budget=100)
        assert report.status == "sat"
        assert holds(report.run, formula)

    def test_unsat_component_wins_over_a_budget_one(self):
        for text in (f"({EXCEEDS_5}) & (pay[1.00], n) & !(pay[1.00], n)",
                     f"(pay[1.00], n) & !(pay[1.00], n) & ({EXCEEDS_5})"):
            assert lic_sat(parse_formula(text), budget=5).status == "unsat", text

    def test_sat_component_next_to_a_budget_one_gives_budget(self):
        formula = parse_formula(f"({EXCEEDS_5}) & (pay[1.00], n)")
        assert lic_sat(parse_formula(EXCEEDS_5), budget=5).status == "budget"
        assert lic_sat(parse_formula("(pay[1.00], n)"), budget=5).status == "sat"
        assert lic_sat(formula, budget=5).status == "budget"

    def test_invalid_component_wins_over_a_budget_one(self):
        formula = parse_formula(f"!({EXCEEDS_5}) & (pay[1.00], n)")
        report = lic_valid(formula, budget=5)
        assert report.status == "invalid"
        assert not holds(report.counterexample, formula)

    def test_valid_component_next_to_a_budget_one_gives_budget(self):
        formula = parse_formula(f"!({EXCEEDS_5}) & ((pay[1.00], n) | !(pay[1.00], n))")
        assert lic_valid(formula, budget=5).status == "budget"

    def test_sat_disjunct_wins_over_a_budget_one(self):
        for text in (f"({EXCEEDS_5}) | (pay[1.00], n)", f"(pay[1.00], n) | ({EXCEEDS_5})"):
            formula = parse_formula(text)
            report = lic_sat(formula, budget=5)
            assert report.status == "sat", text
            assert holds(report.run, formula)

    def test_unsat_disjunct_next_to_a_budget_one_gives_budget(self):
        for text in (f"({EXCEEDS_5}) | ((pay[1.00], n) & !(pay[1.00], n))",
                     f"((pay[1.00], n) & !(pay[1.00], n)) | ({EXCEEDS_5})"):
            assert lic_sat(parse_formula(text), budget=5).status == "budget", text

    def test_negated_disjunction_and_disjunction_validity_split_by_name(self, monkeypatch):
        # Each shape once went through one joint product over all its names.
        built = []

        def recording(formula, vocab, budget, other):
            built.append(build_vocabulary(formula).names)
            return _product_sat(formula, vocab, budget, other)

        monkeypatch.setattr("lict.licsat._product_sat", recording)
        reads = "issue({n}, " + JOURNAL_TEXT + ") & F (render[journal,d], {n})"
        negated = Not(chain(reads.replace("issue", "!issue", 1), NAMES_5[:3], "|"))
        assert lic_sat(negated).status == "sat"
        assert [list(names) for names in built] == [[name] for name in NAMES_5[:3]]
        built.clear()
        disjunction = chain(
            "issue({n}, " + JOURNAL_TEXT + ") -> X X (P(pay[1.00], {n}) | P(render[journal,d], {n}))",
            NAMES_5,
            "|",
        )
        report = lic_valid(disjunction)
        assert report.status == "invalid"
        assert not holds(report.counterexample, disjunction)
        assert [list(names) for names in built] == [[name] for name in NAMES_5]

    def test_sixteen_names_are_decided(self):
        names = [f"n{i}" for i in range(16)]
        guarded = chain("issue({n}, " + JOURNAL_TEXT + ") -> X X P(bot, {n})", names)
        assert lic_valid(guarded).status == "valid"
        reads = chain("issue({n}, " + JOURNAL_TEXT + ") & F (render[journal,d], {n})", names)
        report = lic_sat(reads)
        assert report.status == "sat"
        assert report.run.names == frozenset(names)

    def test_merged_witness_prints_one_fresh_amount(self):
        # The "other" action comes from the whole formula's vocabulary, so a
        # merged witness shows the amount the joint product would.
        formula = parse_formula("(~pay[1.00], n) & (~bot, m) & !(pay[2.00], k)")
        report = lic_sat(formula)
        assert report.status == "sat"
        vocab = build_vocabulary(formula)
        other = fresh_action(vocab.actions)
        assert pretty_run(report.run) == pretty_run(_product_sat(formula, vocab, 10**6, other).run)


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


def _least_budget(formula) -> tuple[str, int]:
    """The least budget with which lic_sat completes, by doubling then
    bisection, and the status it completes with."""
    low, high = 0, 1
    status = lic_sat(formula, budget=high).status
    while status == "budget":
        low, high = high, high * 2
        status = lic_sat(formula, budget=high).status
    while high - low > 1:
        middle = (low + high) // 2
        found = lic_sat(formula, budget=middle).status
        if found == "budget":
            low = middle
        else:
            high, status = middle, found
    return status, high


def _budget_formulas():
    """Every sample and its negation, then seeded random formulas."""
    for path in sorted(glob.glob(os.path.join(SAMPLES, "*.lic"))):
        with open(path, encoding="utf-8") as handle:
            formula = parse_formula(handle.read())
        yield os.path.basename(path), formula
        yield "!" + os.path.basename(path), Not(formula)
    rng = random.Random(193)
    for index in range(40):
        yield str(index), random_formula(
            rng, rng.randint(2, 5), names=("n", "m"), licenses=[("n", JOURNAL)]
        )


def seeded_budget_text() -> str:
    """Status and least completing budget of lic_sat on a fixed set of formulas."""
    blocks = []
    for title, formula in _budget_formulas():
        status, budget = _least_budget(formula)
        blocks.append(f"# {title}: {pretty_formula(formula)}\n{status} at budget {budget}")
    return "\n".join(blocks) + "\n"


class TestGoldenBudgets:
    def test_least_completing_budgets_are_pinned(self):
        # Budget ticks count the tableau's expansion steps and the product's
        # joint choices, so this pins the work both do, shared or not.
        with open(BUDGET_GOLDEN, encoding="ascii") as handle:
            assert seeded_budget_text() == handle.read()
