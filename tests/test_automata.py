"""Position automata: language agreement, subset stepping, padding, lassos."""

import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lict import (
    BOT,
    ZERO,
    Atom,
    Concat,
    Pay,
    Render,
    Union,
    parse_license,
)
from lict.automata import build_nfa, dump_dot, mask_actions, padded_nfa, reachable_subsets
from lict.licenses import action_key
from lict.reference import (
    accepts,
    license_size,
    position_nfa,
    subset_permitted,
    subset_step,
    traces,
    viable,
)

from gen import POOL, SMALL_POOL, licenses, random_action, random_license, random_trace, small_license

PAY = Pay(Decimal("1.00"))
JOURNAL = parse_license("((pay[1.00] bot* render[journal,d]) | bot)*")


class TestConstruction:
    def test_single_atom(self):
        nfa = build_nfa(Atom(PAY))
        assert accepts(nfa, (PAY,))
        assert not accepts(nfa, ())
        assert not accepts(nfa, (PAY, PAY))

    def test_zero_accepts_nothing(self):
        nfa = build_nfa(ZERO)
        assert not accepts(nfa, ())
        assert not accepts(nfa, (PAY,))

    def test_journal_language_at_depth_three(self):
        nfa = build_nfa(JOURNAL)
        expected = traces(JOURNAL, 3)
        seen = set()
        alphabet = sorted({a for _, a, _ in nfa.transitions}, key=repr)
        stack = [()]
        while stack:
            trace = stack.pop()
            if accepts(nfa, trace):
                seen.add(trace)
            if len(trace) < 3:
                stack.extend(trace + (a,) for a in alphabet)
        assert seen == expected

    def test_language_agreement_random(self):
        rng = random.Random(43)
        for _ in range(200):
            lic = random_license(rng, 5)
            nfa = build_nfa(lic)
            for _ in range(8):
                trace = random_trace(rng, rng.randint(0, 6))
                assert accepts(nfa, trace) == (trace in traces(lic, len(trace)))

    def test_size_bounds(self):
        rng = random.Random(47)
        for _ in range(100):
            lic = random_license(rng, 5)
            nfa = build_nfa(lic)
            size = license_size(lic)
            assert len(nfa.states) <= size + 1
            assert len(nfa.transitions) <= (size + 1) ** 2


def _fields(nfa):
    return nfa.states, nfa.starts, nfa.finals, nfa.transitions, nfa.pad_state


class TestOnePassConstruction:
    """The explicit-stack builder gives the recursive definition's automaton."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lic=licenses(constants=True))
    def test_matches_the_recursive_builder(self, lic):
        for built, padded in ((build_nfa(lic), False), (padded_nfa(lic), True)):
            oracle = position_nfa(lic, padded)
            assert _fields(built) == _fields(oracle)
            key = lambda edge: (edge[0], action_key(edge[1]), edge[2])
            assert list(built.transitions) == sorted(built.transitions, key=key)

    def test_nested_stars_keep_each_follow_pair(self):
        # The inner and the outer star both add the pair (1, 1).
        nfa = padded_nfa(parse_license("(pay[1.00]*)*"))
        assert nfa.transitions == (
            (0, BOT, 2), (0, PAY, 1), (1, BOT, 2), (1, PAY, 1), (1, PAY, 1), (2, BOT, 2),
        )

    @pytest.mark.parametrize("left_deep", [True, False])
    def test_chains_deeper_than_the_recursion_limit(self, left_deep):
        # 3000 atoms in one chain; padded without the cache, which hashes the tree.
        actions = [POOL[i % len(POOL)] for i in range(3000)]
        chain = Atom(actions[0])
        for action in actions[1:]:
            chain = Concat(chain, Atom(action)) if left_deep else Concat(Atom(action), chain)
        trace = tuple(actions) if left_deep else tuple(reversed(actions))
        nfa = build_nfa(Union(chain, Atom(BOT)), padded=True)
        assert nfa.states == frozenset(range(3003))
        # two from the start, 2999 along the chain, bot from both finals and the pad loop
        assert len(nfa.transitions) == 2 + 2999 + 3
        assert accepts(nfa, trace) and accepts(nfa, trace + (BOT,))
        assert not accepts(nfa, trace[:-1])

    def test_the_cache_is_bounded(self):
        bound = padded_nfa.cache_info().maxsize
        assert bound is not None
        for cents in range(bound + 100):
            lic = Atom(Pay(Decimal(cents) / 100))
            nfa = padded_nfa(lic)
            assert padded_nfa(lic) is nfa
        assert padded_nfa.cache_info().currsize <= bound


def walk(nfa, trace, subset=None) -> int:
    """The subset id the trace leads to, from the start or from id ``subset``."""
    subset = nfa.start if subset is None else subset
    for action in trace:
        subset = nfa.step_id(subset, nfa.letter(action))
    return subset


class TestSubsets:
    def test_step_to_final(self):
        nfa = build_nfa(Atom(PAY))
        after = walk(nfa, (PAY,))
        assert nfa.subsets[after] & nfa.finals

    def test_step_mismatch_empties(self):
        nfa = build_nfa(Atom(PAY))
        assert walk(nfa, (BOT,)) == 0

    def test_empty_subset_is_absorbing(self):
        nfa = padded_nfa(JOURNAL)
        for action in POOL:
            assert walk(nfa, (action,), 0) == 0

    def test_journal_walk_returns_to_start_permissions(self):
        nfa = padded_nfa(JOURNAL)
        subset = walk(nfa, (PAY, BOT, parse_license("render[journal,d]").action))
        assert nfa.permitted_id(subset) == nfa.permitted_id(nfa.start)


class TestPermittedFrom:
    def test_before_pay_no_bot(self):
        nfa = padded_nfa(Atom(PAY))
        assert nfa.permitted_id(nfa.start) == {PAY}

    def test_after_pay_only_bot(self):
        nfa = padded_nfa(Atom(PAY))
        assert nfa.permitted_id(walk(nfa, (PAY,))) == {BOT}

    def test_empty_subset_permits_bot(self):
        nfa = padded_nfa(Atom(PAY))
        assert nfa.permitted_id(0) == {BOT}

    def test_agrees_with_viability(self):
        # The central agreement: after consuming a viable trace, the subset
        # permits exactly the actions that keep the trace viable.
        rng = random.Random(53)
        checked = 0
        while checked < 150:
            lic = small_license(rng)
            trace = random_trace(rng, rng.randint(0, 5), SMALL_POOL)
            if not viable(lic, trace):
                continue
            checked += 1
            nfa = padded_nfa(lic)
            expected = {a for a in SMALL_POOL if viable(lic, trace + (a,))}
            assert nfa.permitted_id(walk(nfa, trace)) == expected


class TestLasso:
    def test_completed_license_loops_on_padding(self):
        nfa = padded_nfa(Atom(PAY))
        prefix, loop = nfa.bot_lasso(walk(nfa, (PAY,)))
        assert len(loop) == 1
        assert nfa.subsets[loop[0]] == frozenset({nfa.pad_state})

    def test_empty_subset_loops_on_itself(self):
        nfa = padded_nfa(Atom(PAY))
        prefix, loop = nfa.bot_lasso(0)
        assert prefix == []
        assert loop == [0]

    def test_journal_start_reaches_a_fixpoint(self):
        nfa = padded_nfa(JOURNAL)
        prefix, loop = nfa.bot_lasso(nfa.start)
        assert len(loop) == 1
        assert nfa.permitted_id(loop[0]) == nfa.permitted_id(nfa.start)

    def test_replay_matches_stepping(self):
        rng = random.Random(59)
        for _ in range(100):
            lic = random_license(rng, 4)
            nfa = padded_nfa(lic)
            prefix, loop = nfa.bot_lasso(nfa.start)
            replay = prefix + loop + loop
            current = nfa.starts
            for expected in replay:
                assert current == nfa.subsets[expected]
                current = subset_step(nfa, current, BOT)


class TestReachableSubsets:
    def test_rows_cover_requested_actions(self):
        graph = reachable_subsets(padded_nfa(JOURNAL), POOL)
        for row in graph.values():
            assert set(row) == set(POOL)

    def test_successors_match_stepping(self):
        rng = random.Random(61)
        for _ in range(50):
            lic = random_license(rng, 4)
            nfa = padded_nfa(lic)
            graph = reachable_subsets(nfa, SMALL_POOL)
            for subset, row in graph.items():
                for action, successor in row.items():
                    assert nfa.subsets[successor] == subset_step(nfa, nfa.subsets[subset], action)

    def test_the_start_is_reached_first_and_only_the_empty_subset_is_left_out(self):
        rng = random.Random(67)
        for _ in range(50):
            nfa = padded_nfa(random_license(rng, 4))
            graph = reachable_subsets(nfa, SMALL_POOL)
            assert 0 not in graph
            assert list(graph)[:1] == ([nfa.start] if nfa.start else [])
            reached = {successor for row in graph.values() for successor in row.values()}
            assert reached - {0} <= set(graph)


class TestWarmMemo:
    """One shared automaton, stepped along many traces in random order, answers
    like the uncached oracle whatever was asked of it before."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_interleaved_walks_match_the_oracle(self, seed):
        # Each walk mostly follows the license, so walks reach deep subsets
        # and revisit ones another walk filled in first.
        rng = random.Random(seed)
        nfa = padded_nfa(random_license(rng, 4))
        walks = [[nfa.start, rng.randint(0, 8)] for _ in range(8)]
        assert nfa.permitted_id(nfa.start) == subset_permitted(nfa, nfa.starts)
        while walks:
            entry = rng.choice(walks)
            subset, left = entry
            if not left:
                walks.remove(entry)
                continue
            states = nfa.subsets[subset]
            allowed = [a for a in POOL if a in subset_permitted(nfa, states)]
            action = rng.choice(allowed) if rng.random() < 0.8 else random_action(rng)
            entry[0], entry[1] = walk(nfa, (action,), subset), left - 1
            assert nfa.subsets[entry[0]] == subset_step(nfa, states, action)
            assert nfa.permitted_id(entry[0]) == subset_permitted(nfa, nfa.subsets[entry[0]])


class TestDenseIds:
    def test_letters_follow_action_key_with_bot_first(self):
        nfa = build_nfa(parse_license("render[w,dA] pay[10.00] | pay[9.00] render[w,d]"))
        assert nfa.letters == (
            BOT, Pay(Decimal("9.00")), Pay(Decimal("10.00")), Render("w", "d"), Render("w", "dA"),
        )

    def test_empty_subset_is_id_zero_and_the_start_is_one(self):
        nfa = padded_nfa(Atom(PAY))
        assert nfa.subsets[:2] == [frozenset(), nfa.starts]
        assert nfa.start == 1 and nfa.masks[0] == 1
        assert nfa.step_id(0, nfa.letter(PAY)) == 0
        assert build_nfa(ZERO).start == 0

    def test_an_action_outside_the_alphabet_steps_to_zero(self):
        nfa = padded_nfa(Atom(PAY))
        outside = nfa.letter(Pay(Decimal("2.00")))
        assert outside == len(nfa.letters)
        assert nfa.step_id(nfa.start, outside) == 0

    def test_masks_decode_to_the_permitted_sets(self):
        # unpadded too, where an accepting state permits bot without a bot edge
        rng = random.Random(83)
        for _ in range(50):
            lic = random_license(rng, 4)
            for nfa in (build_nfa(lic), padded_nfa(lic)):
                reachable_subsets(nfa, POOL)
                for subset, mask in zip(nfa.subsets, nfa.masks):
                    assert mask_actions(nfa.letters, mask) == subset_permitted(nfa, subset)


class TestDot:
    def test_dump_mentions_every_state(self):
        nfa = build_nfa(JOURNAL)
        dot = dump_dot(nfa)
        assert dot.startswith("digraph")
        for state in nfa.states:
            assert f"q{state}" in dot
