"""License algebra: trace enumeration, derivatives, first sets, viability."""

import random
from collections import Counter
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lict import (
    BOT,
    ZERO,
    ONE,
    Atom,
    Concat,
    Pay,
    Render,
    Star,
    Union,
    parse_license,
    pretty_action,
    pretty_license,
)
from lict import licenses
from lict.licenses import license_actions
from lict.licsat import fresh_action
from lict.reference import (
    derivative,
    first_actions,
    is_empty,
    license_size,
    nullable,
    prefix_sets,
    traces,
    viable,
)

from gen import (
    POOL,
    SMALL_POOL,
    random_license,
    random_trace,
    shared_license,
    small_license,
    unshared,
)
from gen import _atom_count as atom_count
from gen import licenses as license_trees

JOURNAL = parse_license("((pay[1.00] bot* render[journal,d]) | bot)*")
PAY = Pay(Decimal("1.00"))
READ = Render("journal", "d")

A = Pay(Decimal("1.00"))
B = Render("w", "d")
C = Render("v", "e")


def _padded_prefix(trace, complete) -> bool:
    """Whether ``trace`` is a prefix of ``complete`` extended with bots."""
    if len(trace) <= len(complete):
        return complete[: len(trace)] == trace
    return trace[: len(complete)] == complete and all(
        action == BOT for action in trace[len(complete):]
    )


class TestActions:
    def test_pay_amounts_compare_exactly(self):
        assert Pay(Decimal("1.5")) == Pay(Decimal("1.50"))
        assert Pay(Decimal("1.50")) != Pay(Decimal("1.51"))

    def test_pay_rejects_three_digit_fractions(self):
        with pytest.raises(ValueError):
            Pay(Decimal("1.005"))

    def test_pay_rejects_negative(self):
        with pytest.raises(ValueError):
            Pay(Decimal("-1"))

    def test_pay_is_exact_past_the_default_precision(self):
        # 29 and 40 significant digits; the default decimal context keeps 28
        for text in ("999999999999999999999999999.99", "9" * 40 + ".5", "1" + "0" * 60):
            amount = Pay(Decimal(text)).amount
            assert amount == Decimal(text) and amount.as_tuple().exponent == -2
        with pytest.raises(ValueError):
            Pay(Decimal("9" * 40 + ".001"))

    def test_fresh_action_adds_one_exactly(self):
        big = Pay(Decimal("99999999999999999999999999.99"))
        assert fresh_action([BOT, A, big]) == Pay(Decimal("100000000000000000000000000.99"))

    def test_bot_is_distinct(self):
        assert BOT != A and BOT != B

    def test_action_key_orders_pay_by_amount(self):
        ordered = [BOT, Pay(Decimal("9.00")), Pay(Decimal("10.00")), Render("w", "d"), Render("w", "dA")]
        assert sorted(reversed(ordered), key=licenses.action_key) == ordered


class TestTraces:
    def test_single_atom(self):
        assert traces(Atom(A), 5) == {(A,)}

    def test_star_unrolls_to_bound(self):
        assert traces(Star(Atom(A)), 2) == {(), (A,), (A, A)}

    def test_journal_up_to_three(self):
        expected = {
            (),
            (BOT,),
            (BOT, BOT),
            (BOT, BOT, BOT),
            (PAY, READ),
            (PAY, BOT, READ),
            (BOT, PAY, READ),
            (PAY, READ, BOT),
        }
        assert traces(JOURNAL, 3) == expected

    def test_zero_and_one(self):
        assert traces(ZERO, 3) == frozenset()
        assert traces(ONE, 3) == {()}

    def test_length_zero_bound(self):
        assert traces(Atom(A), 0) == frozenset()
        assert traces(JOURNAL, 0) == {()}


class TestNullable:
    def test_star_is_nullable(self):
        assert nullable(Star(Atom(A)))

    def test_concat_of_atoms_is_not(self):
        assert not nullable(Concat(Atom(A), Atom(B)))

    def test_journal_is_nullable(self):
        assert nullable(JOURNAL)

    def test_agrees_with_enumeration(self):
        rng = random.Random(7)
        for _ in range(200):
            lic = random_license(rng, 4)
            assert nullable(lic) == (() in traces(lic, 0))


class TestIsEmpty:
    def test_zero(self):
        assert is_empty(ZERO)

    def test_star_of_zero_contains_epsilon(self):
        assert not is_empty(Star(ZERO))

    def test_concat_with_zero(self):
        assert is_empty(Concat(Atom(A), ZERO))


class TestFirstActions:
    def test_zero_and_one_have_none(self):
        assert first_actions(ZERO) == frozenset()
        assert first_actions(ONE) == frozenset()

    def test_union_of_concat_and_atom(self):
        lic = Union(Concat(Atom(A), Atom(B)), Atom(C))
        assert first_actions(lic) == {A, C}

    def test_journal(self):
        assert first_actions(JOURNAL) == {PAY, BOT}

    def test_agrees_with_enumeration(self):
        # A first action begins some member whose length is at most one plus
        # the number of atom occurrences, so that bound is exhaustive.
        rng = random.Random(11)
        for _ in range(200):
            lic = small_license(rng)
            bound = atom_count(lic) + 1
            heads = {s[0] for s in traces(lic, bound) if s}
            assert first_actions(lic) == heads


class TestDerivative:
    def test_matching_atom_accepts_empty(self):
        assert () in traces(derivative(Atom(A), A), 0)

    def test_mismatched_atom_is_empty(self):
        assert is_empty(derivative(Atom(B), A))

    def test_journal_after_pay(self):
        after = derivative(JOURNAL, PAY)
        assert traces(after, 2) == {(READ,), (BOT, READ), (READ, BOT)}

    def test_soundness_against_enumeration(self):
        rng = random.Random(13)
        for _ in range(200):
            lic = random_license(rng, 5)
            action = rng.choice(POOL)
            bound = rng.randint(0, 5)
            derived = traces(derivative(lic, action), bound)
            stripped = {s[1:] for s in traces(lic, bound + 1) if s and s[0] == action}
            assert derived == stripped


class TestViable:
    def test_empty_trace_viable_unless_language_empty(self):
        rng = random.Random(17)
        for _ in range(100):
            lic = random_license(rng, 4)
            assert viable(lic, ())

    def test_bot_not_viable_before_mandatory_pay(self):
        assert not viable(Atom(A), (BOT,))

    def test_journal_pay_wait_wait_render(self):
        assert viable(JOURNAL, (PAY, BOT, BOT, READ))

    def test_agrees_with_padded_enumeration(self):
        # A trace is viable iff it is a prefix of some complete trace, or a
        # complete trace followed by bots.  Completions longer than
        # |trace| + license size + 1 cannot introduce new prefixes (the
        # position automaton reaches acceptance within its state count).
        rng = random.Random(19)
        for _ in range(150):
            lic = small_license(rng)
            trace = random_trace(rng, rng.randint(0, 6), SMALL_POOL)
            bound = len(trace) + atom_count(lic) + 1
            expected = any(
                _padded_prefix(trace, complete) for complete in traces(lic, bound)
            )
            assert viable(lic, trace) == expected


class TestPrefixSets:
    def test_atom(self):
        assert prefix_sets(Atom(A), 1) == {(A,)}

    def test_concat(self):
        assert prefix_sets(Concat(Atom(A), Atom(B)), 2) == {(A, B)}

    def test_journal_pairs(self):
        assert prefix_sets(JOURNAL, 2) == {
            (PAY, BOT),
            (PAY, READ),
            (BOT, PAY),
            (BOT, BOT),
        }

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            prefix_sets(Atom(A), 0)

    def test_agrees_with_enumeration(self):
        rng = random.Random(23)
        for _ in range(150):
            lic = small_license(rng)
            k = rng.randint(1, 4)
            bound = k + atom_count(lic) + 1
            expected = {s[:k] for s in traces(lic, bound) if len(s) >= k}
            assert prefix_sets(lic, k) == expected


class TestPretty:
    def test_round_trip_is_identity(self):
        rng = random.Random(29)
        for _ in range(300):
            lic = random_license(rng, 5)
            assert parse_license(pretty_license(lic)) == lic

    def test_journal_text(self):
        assert pretty_license(JOURNAL) == "(pay[1.00] bot* render[journal,d] | bot)*"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shared_subterms_print_once_and_as_their_copy(self, seed):
        lic = shared_license(random.Random(seed))
        layouts = Counter()
        layout = licenses._layout

        def counting(node):
            layouts[id(node)] += 1
            return layout(node)

        with mock.patch.object(licenses, "_layout", counting):
            text = pretty_license(lic)
        assert text == pretty_license(unshared(lic))
        assert parse_license(text) == lic
        # A node reached twice is laid out at most once.  The shared union is
        # always laid out.
        shared = _reached_twice(lic)
        assert all(layouts[key] <= 1 for key in shared)
        assert any(layouts[key] == 1 for key in shared)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        pair=st.one_of(
            st.tuples(license_trees(pool=SMALL_POOL[:2]), license_trees(pool=SMALL_POOL[:2])),
            license_trees(pool=SMALL_POOL).map(lambda lic: (lic, unshared(lic))),
            st.integers(0, 2**32 - 1).map(lambda seed: shared_license(random.Random(seed))).map(
                lambda lic: (lic, unshared(lic))
            ),
        ),
        hashed=st.sampled_from(((), (0,), (1,), (0, 1))),
    )
    def test_equal_exactly_when_printed_alike(self, pair, hashed):
        # Parsing a license's text gives that license back, so equal texts
        # mean equal licenses.  Hashing first caches hashes the comparison
        # may read.
        for index in hashed:
            hash(pair[index])
        a, b = pair
        alike = pretty_license(a) == pretty_license(b)
        assert (a == b) is alike
        assert (b == a) is alike
        assert (a != b) is not alike
        if alike:
            assert hash(a) == hash(b)


def _reached_twice(lic) -> set[int]:
    """The ids of the node objects reached more than once in a license DAG."""
    seen, twice, stack = set(), set(), [lic]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            twice.add(id(node))
            continue
        seen.add(id(node))
        stack += [getattr(node, name) for name in ("left", "right", "body") if hasattr(node, name)]
    return twice


class TestDeepLicenses:
    """Licenses built with the constructors, far deeper than the recursion limit."""

    def test_flat_concat_chain(self):
        actions = [POOL[i % len(POOL)] for i in range(5000)]
        lic = _chain(actions)
        assert pretty_license(lic) == " ".join(pretty_action(action) for action in actions)
        assert license_actions(lic) == frozenset(POOL)
        # compared and hashed without recursion
        twin = _chain(actions)
        assert lic == twin and hash(lic) == hash(twin)
        for changed in ([POOL[1], *actions[1:]], [*actions[:-1], POOL[1]]):
            assert lic != _chain(changed)
            assert not lic == _chain(changed)

    def test_star_union_nest(self):
        lic = Atom(BOT)
        for _ in range(1000):
            lic = Star(Union(lic, Atom(PAY)))
        assert pretty_license(lic) == "(" * 1000 + "bot" + " | pay[1.00])*" * 1000
        assert license_actions(lic) == frozenset({BOT, PAY})


def _chain(actions) -> Concat:
    """The left-deep concatenation of the actions, each in a fresh atom."""
    lic = Atom(actions[0])
    for action in actions[1:]:
        lic = Concat(lic, Atom(action))
    return lic
