"""DR licenses: schedule trace sets, compilation, and the full pipeline."""

import itertools
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lict import (
    BOT,
    DrLicense,
    Exactly,
    Pay,
    Render,
    Single,
    Upto,
    compile_dr,
    compute_permissions,
    make_run,
    parse_dr,
)
from lict import digitalrights
from lict.digitalrights import DR_SIZE_LIMIT, SCHEDULES, DrCapExceeded, compiled_size
from lict.licenses import post_order, pretty_license
from lict.reference import dr_traces, license_size, traces, tree_size

from gen import parse_compiled

W = frozenset({"w"})
D = frozenset({"d"})
RENDER = Render("w", "d")


def dr(repetition, amount, schedule, works=W, devices=D):
    return DrLicense(repetition, Decimal(amount), schedule, works, devices)


class TestPeriodTraces:
    def test_upfront_single_unit(self):
        assert dr_traces(dr(Single(1), "2.00", "upfront")) == {(Pay(Decimal("2.00")),)}

    def test_flatrate_two_units(self):
        pay = Pay(Decimal("3.00"))
        expected = {(BOT, pay), (RENDER, pay)}
        assert dr_traces(dr(Single(2), "3.00", "flatrate")) == expected

    def test_peruse_three_units_counts_renders(self):
        zero, two, four = Pay(Decimal("0.00")), Pay(Decimal("2.00")), Pay(Decimal("4.00"))
        expected = {
            (BOT, BOT, zero),
            (RENDER, BOT, two),
            (BOT, RENDER, two),
            (RENDER, RENDER, four),
        }
        assert dr_traces(dr(Single(3), "2.00", "peruse")) == expected

    def test_peruse_sums_large_amounts_exactly(self):
        # twice the amount has 29 significant digits, one past the default context
        entry = dr(Single(3), "99999999999999999999999999.99", "peruse")
        payments = {trace[-1] for trace in dr_traces(entry)}
        assert payments == {Pay(Decimal(text)) for text in ("0", entry.amount, "199999999999999999999999999.98")}
        assert traces(compile_dr(entry), entry.total_units) == dr_traces(entry)

    def test_flatrate_degenerates_at_period_one(self):
        assert dr_traces(dr(Single(1), "3.00", "flatrate")) == {(Pay(Decimal("3.00")),)}

    def test_peruse_degenerates_to_zero_payment(self):
        assert dr_traces(dr(Single(1), "3.00", "peruse")) == {(Pay(Decimal("0.00")),)}

    def test_cap_exceeded_is_an_error(self):
        with pytest.raises(DrCapExceeded):
            dr_traces(dr(Exactly(100, 100), "1.00", "flatrate"))


class TestRepetitions:
    def test_exactly_concatenates(self):
        single = dr_traces(dr(Single(2), "1.00", "upfront"))
        double = dr_traces(dr(Exactly(2, 2), "1.00", "upfront"))
        assert double == {a + b for a in single for b in single}

    def test_upto_contains_empty_and_is_monotone(self):
        one = dr_traces(dr(Upto(1, 2), "1.00", "flatrate"))
        two = dr_traces(dr(Upto(2, 2), "1.00", "flatrate"))
        assert () in one
        assert one <= two

    def test_lengths_are_period_multiples(self):
        for schedule in ("upfront", "flatrate", "peruse"):
            for period, count in ((1, 2), (2, 2), (3, 1)):
                lic = dr(Exactly(count, period), "1.00", schedule)
                assert {len(t) for t in dr_traces(lic)} == {period * count}


class TestCompilation:
    def test_upfront_single_unit_is_one_payment(self):
        lic = compile_dr(dr(Single(1), "2.00", "upfront"))
        assert traces(lic, 4) == {(Pay(Decimal("2.00")),)}

    def test_flatrate_two_units(self):
        lic = compile_dr(dr(Single(2), "3.00", "flatrate"))
        assert traces(lic, 4) == dr_traces(dr(Single(2), "3.00", "flatrate"))

    def test_differential_equivalence_full_grid(self):
        works_options = (frozenset({"w"}), frozenset({"w", "v"}))
        devices_options = (frozenset({"d"}), frozenset({"d", "e"}))
        repetitions = [Single(1), Single(2), Single(3), Exactly(2, 2), Exactly(2, 3), Upto(2, 2)]
        for schedule, repetition, works, devices in itertools.product(
            ("upfront", "flatrate", "peruse"), repetitions, works_options, devices_options
        ):
            entry = dr(repetition, "1.50", schedule, works, devices)
            compiled = compile_dr(entry)
            bound = entry.total_units
            assert traces(compiled, bound) == dr_traces(entry), entry

    def test_paper_flatrate_example_at_reduced_scale(self):
        entry = parse_dr("for 3 3 pay 10.00 flatrate for {w} on {d}")
        compiled = compile_dr(entry)
        assert traces(compiled, 9) == dr_traces(entry)


@st.composite
def small_drs(draw):
    """DR licenses of 1 to 4 units a period, 1 or 2 periods, on 1 to 4 render slots."""
    period = draw(st.integers(1, 4))
    count = draw(st.integers(1, 2))
    repetition = draw(st.sampled_from((Single(period), Exactly(count, period), Upto(count, period))))
    amount = draw(st.decimals("0.00", "99.99", places=2))
    works = draw(st.frozensets(st.sampled_from("wv"), min_size=1))
    devices = draw(st.frozensets(st.sampled_from("de"), min_size=1))
    return DrLicense(repetition, amount, draw(st.sampled_from(SCHEDULES)), works, devices)


class TestCompiledLanguage:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(entry=small_drs())
    def test_compiled_and_printed_accept_the_dr_traces(self, entry):
        compiled = compile_dr(entry)
        expected = dr_traces(entry)
        assert traces(compiled, entry.total_units) == expected
        assert traces(parse_compiled(pretty_license(compiled)), entry.total_units) == expected
        assert compiled_size(entry) == tree_size(compiled)


class TestSharing:
    def test_peruse_period_is_a_quadratic_dag(self):
        entry = parse_dr("for 8 pay 1.00 peruse for {w,v} on {d}")
        lic = compile_dr(entry)
        seen, stack = set(), [lic]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack += [getattr(node, name) for name in ("left", "right", "body") if hasattr(node, name)]
        # each rest of the period, by slot and renders so far, is one object;
        # the 2^7 render patterns spelled out apart would take over 2^8 nodes
        assert len(seen) <= 2 * 8**2
        # the size limit counts the tree that the printed text spells out
        assert tree_size(lic) == license_size(lic)
        assert traces(lic, entry.total_units) == dr_traces(entry)

    def test_size_limit_admits_period_17_and_refuses_18(self):
        text = "for {} pay 2.00 peruse for {{w,v}} on {{d}}"
        assert tree_size(compile_dr(parse_dr(text.format(17)))) == 524_281 <= DR_SIZE_LIMIT
        with pytest.raises(DrCapExceeded, match="1048569 nodes"):
            compile_dr(parse_dr(text.format(18)))

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("repetition", ["", "3 ", "upto 3 "])
    @pytest.mark.parametrize("period", [1, 2, 7, 12])
    def test_compiled_size_is_the_tree_size(self, schedule, repetition, period):
        entry = parse_dr(f"for {repetition}{period} pay 1.50 {schedule} for {{w,v}} on {{d,e}}")
        assert compiled_size(entry) == tree_size(compile_dr(entry))

    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("count", [1, 8, 64])
    def test_upto_powers_share_their_nodes(self, schedule, count):
        # each power extends the one before: one concatenation and one union
        # per period, and the empty license, on top of one period's nodes
        period = post_order(compile_dr(parse_dr(f"for 3 pay 1.00 {schedule} for {{w,v}} on {{d}}")))
        entry = parse_dr(f"for upto {count} 3 pay 1.00 {schedule} for {{w,v}} on {{d}}")
        assert len(post_order(compile_dr(entry, cap=3 * count))) <= len(period) + 2 * count + 1

    @pytest.mark.parametrize(
        "text",
        [
            "for 18 pay 2.00 peruse for {w,v} on {d}",
            "for 2000 pay 2.00 peruse for {w} on {d}",
            "for upto 40000 25 pay 1.00 flatrate for {w} on {d}",
        ],
    )
    def test_size_limit_is_checked_before_building(self, text, monkeypatch):
        def build(dr):
            raise AssertionError("built a license past the limit")

        monkeypatch.setattr(digitalrights, "_period_license", build)
        with pytest.raises(DrCapExceeded, match="above the limit"):
            compile_dr(parse_dr(text), cap=10**6)

    def test_a_count_too_long_to_print_is_shown_as_a_power_of_two(self):
        entry = parse_dr("for 100000 pay 2.00 peruse for {w} on {d}")
        with pytest.raises(DrCapExceeded, match=r"over 2\^100001 nodes"):
            compile_dr(entry, cap=10**5)


class TestPipeline:
    def test_following_any_trace_never_violates(self):
        entries = [
            dr(Single(3), "2.00", "peruse"),
            dr(Exactly(2, 2), "1.00", "upfront"),
            dr(Upto(2, 2), "0.50", "flatrate"),
        ]
        for entry in entries:
            lic = compile_dr(entry)
            for trace in dr_traces(entry):
                horizon = max(len(trace), 1)
                actions = [
                    (t, "n", action)
                    for t, action in enumerate(trace)
                    if action != BOT
                ]
                run = make_run([(0, "n", lic)], actions, horizon=horizon)
                perms = compute_permissions(run)
                for t, action in enumerate(trace):
                    assert action in perms.permitted("n", t), (entry, trace, t)
