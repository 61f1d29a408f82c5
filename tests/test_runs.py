"""Runs and the permission interpretation against the viability definition."""

import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lict import (
    BOT,
    Pay,
    Render,
    compute_permissions,
    make_run,
    parse_license,
    parse_run,
)
from lict.automata import padded_nfa
from lict.cli import permissions_lines
from lict.reference import action_sequence, active, subset_permitted, subset_state, subset_step, viable
from lict.runs import permission_line

from gen import POOL, licenses, oracle_permitted, random_action, random_license, random_run

PAY = Pay(Decimal("1.00"))
READ = Render("journal", "d")

JOURNAL_RUN = parse_run(
    """
    @0 issue n = ((pay[1.00] bot* render[journal,d]) | bot)*
    @0 do n pay[1.00]
    @2 do n render[journal,d]
    """
)


class TestRunModel:
    def test_action_sequence_at_issuance_is_empty(self):
        assert action_sequence(JOURNAL_RUN, "n", 0) == ()

    def test_action_sequence_fills_bots(self):
        assert action_sequence(JOURNAL_RUN, "n", 3) == (PAY, BOT, READ)

    def test_action_sequence_unissued_name_fails(self):
        with pytest.raises(ValueError):
            action_sequence(JOURNAL_RUN, "m", 1)

    def test_active(self):
        late = parse_run("@2 issue n = bot*")
        assert not active(late, "n", 1)
        assert active(late, "n", 2)
        assert active(late, "n", 5)
        assert not active(late, "m", 4)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            make_run([(4, "n", parse_license("bot"))], [], horizon=2)


class TestComputePermissions:
    def test_nothing_issued_permits_bot_everywhere(self):
        perms = compute_permissions(parse_run(""))
        for t in range(4):
            assert perms.permitted("n", t) == {BOT}
            assert perms.obligated("n", t) == BOT

    def test_journal_timeline(self):
        perms = compute_permissions(JOURNAL_RUN)
        assert perms.permitted("n", 0) == {PAY, BOT}
        assert perms.permitted("n", 1) == {READ, BOT}
        assert perms.permitted("n", 2) == {READ, BOT}
        assert perms.permitted("n", 3) == {PAY, BOT}

    def test_pay_license_obligation_then_violation(self):
        run = parse_run("@0 issue m = pay[1.00]")
        perms = compute_permissions(run)
        assert perms.permitted("m", 0) == {PAY}
        assert perms.obligated("m", 0) == PAY
        assert perms.permitted("m", 1) == {BOT}
        assert perms.obligated("m", 1) == BOT

    def test_violation_is_absorbing(self):
        run = parse_run("@0 issue m = pay[1.00]\n@0 do m bot")
        perms = compute_permissions(run)
        for t in range(1, 6):
            assert perms.permitted("m", t) == {BOT}

    def test_permission_line_reads_the_permitted_set(self):
        assert permission_line("m", frozenset({PAY})) == "n=m permits={pay[1.00]} obligated=pay[1.00]"
        assert permission_line("n", frozenset({READ, BOT})) == "n=n permits={bot,render[journal,d]} obligated=none"

    def test_oracle_equivalence_random(self):
        rng = random.Random(67)
        for _ in range(150):
            run = random_run(rng, horizon=rng.randint(0, 6))
            perms = compute_permissions(run)
            for name in set(run.names) | {"zz"}:
                for t in range(run.horizon + 5):
                    assert perms.permitted(name, t) == oracle_permitted(run, name, t)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), reverse=st.booleans())
    def test_runs_sharing_a_license_match_the_oracle(self, seed, reverse):
        # Both runs step the one automaton ``padded_nfa`` keeps for the
        # license, so the second reads the first one's memo.
        rng = random.Random(seed)
        lic = random_license(rng, 4)
        runs = []
        for _ in range(2):
            horizon = rng.randint(0, 6)
            start = rng.randint(0, horizon)
            sequence: tuple = ()
            for _ in range(start, horizon + 1):
                options = [a for a in POOL if viable(lic, sequence + (a,))]
                follow = options and rng.random() < 0.8
                sequence += (rng.choice(options) if follow else random_action(rng),)
            actions = [(start + i, "n", a) for i, a in enumerate(sequence)]
            runs.append(make_run([(start, "n", lic)], actions, horizon=horizon))
        order = runs[::-1] if reverse else runs
        for run, perms in [(run, compute_permissions(run)) for run in order]:
            for t in range(run.horizon + 5):
                assert perms.permitted("n", t) == oracle_permitted(run, "n", t)

    def test_nonempty_at_every_time(self):
        rng = random.Random(71)
        for _ in range(100):
            run = random_run(rng, horizon=4)
            perms = compute_permissions(run)
            for name in run.names:
                for t in range(run.horizon + 4):
                    assert perms.permitted(name, t)

    def test_fresh_license_leaves_others_untouched(self):
        rng = random.Random(73)
        for _ in range(60):
            run = random_run(rng, horizon=4, max_licenses=2, names=("n", "m"))
            extended = make_run(
                list(run.issuances) + [(1, "extra", parse_license("pay[9.99]*"))],
                run.actions,
                horizon=run.horizon,
            )
            before = compute_permissions(run)
            after = compute_permissions(extended)
            for name in run.names:
                for t in range(run.horizon + 3):
                    assert before.permitted(name, t) == after.permitted(name, t)

    def test_lasso_matches_longer_horizon_recomputation(self):
        rng = random.Random(79)
        for _ in range(60):
            run = random_run(rng, horizon=3)
            perms = compute_permissions(run)
            stretch = perms.loop_len * 3 + 4
            extended = make_run(run.issuances, run.actions, horizon=run.horizon + stretch)
            flat = compute_permissions(extended)
            for name in run.names:
                for t in range(run.horizon + stretch):
                    assert perms.permitted(name, t) == flat.permitted(name, t)

    def test_subset_state_exposed_for_structure_labeling(self):
        perms = compute_permissions(JOURNAL_RUN)
        assert subset_state(perms, "n", 0)
        assert subset_state(perms, "zz", 0) is None


# Actions no license drawn from POOL holds; a name doing one is violated.
OUTSIDE = (Pay(Decimal("10.00")), Render("x", "y"))


class TestDenseSubsets:
    """Subset ids, their rows and the permitted bitmasks against the uncached oracle."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_timelines_rows_and_lines_match_the_oracle(self, data):
        names = ("n", "m")
        horizon = data.draw(st.integers(0, 8))
        issuances, actions = [], []
        for name in names:
            start = data.draw(st.integers(0, horizon))
            issuances.append((start, name, data.draw(licenses())))
            for t in range(horizon + 1):
                action = data.draw(st.none() | st.sampled_from(POOL + OUTSIDE))
                if action is not None:
                    if data.draw(st.booleans()):
                        action = replace(action)  # equal, but another object
                    actions.append((t, name, action))
        run = make_run(issuances, actions, horizon=horizon)
        perms = compute_permissions(run)
        end = perms.prefix_len + 2 * perms.loop_len + 2
        for start, name, lic in issuances:
            nfa = padded_nfa(lic)
            subset = nfa.starts
            for t in range(end):
                if t < start:
                    assert subset_state(perms, name, t) is None
                    assert perms.permitted(name, t) == {BOT}
                    continue
                assert subset_state(perms, name, t) == subset, (name, t)
                assert perms.permitted(name, t) == subset_permitted(nfa, subset), (name, t)
                subset = subset_step(nfa, subset, run.action(name, t))
            for i, row in enumerate(nfa.rows):
                assert nfa.permitted_id(i) == subset_permitted(nfa, nfa.subsets[i])
                for letter, image in enumerate(row[:-1]):
                    if image is not None:
                        action = nfa.letters[letter]
                        assert nfa.subsets[image] == subset_step(nfa, nfa.subsets[i], action)
                assert row[-1] == 0  # every action outside the alphabet
        lines = permissions_lines(run, end)
        assert lines == [
            f"t={t} {permission_line(name, perms.permitted(name, t))}"
            for t in range(end + 1)
            for name in sorted(run.names)
        ]

    def test_an_action_outside_the_alphabet_violates(self):
        run = parse_run("@0 issue n = pay[1.00]*\n@1 do n pay[10.00]")
        perms = compute_permissions(run)
        assert subset_state(perms, "n", 2) == frozenset()
        assert perms.permitted("n", 2) == {BOT}

    def test_permitted_masks_are_over_the_letters(self):
        perms = compute_permissions(JOURNAL_RUN)
        letters, masks = perms.permitted_masks("n", 4)
        assert letters == (BOT, PAY, READ)
        assert masks == [0b011, 0b101, 0b101, 0b011]
        assert perms.permitted_masks("zz", 2) == ((BOT,), [1, 1])


class TestPrintedOrder:
    def test_pay_is_listed_by_amount(self):
        run = parse_run("@0 issue n = pay[9.00] | pay[10.00]")
        assert permissions_lines(run, 0) == [
            "t=0 n=n permits={pay[9.00],pay[10.00]} obligated=none"
        ]

    def test_render_is_listed_by_work_then_device(self):
        # as text, "render[w,dA]" sorts before "render[w,d]"
        run = parse_run("@0 issue n = render[w,d] | render[w,dA]")
        assert permissions_lines(run, 0) == [
            "t=0 n=n permits={render[w,d],render[w,dA]} obligated=none"
        ]

    def test_permission_line_sorts_by_action_key(self):
        permitted = frozenset({Pay(Decimal("10.00")), Pay(Decimal("9.00")), BOT})
        line = permission_line("n", permitted)
        assert line == "n=n permits={bot,pay[9.00],pay[10.00]} obligated=none"
