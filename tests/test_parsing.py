"""Grammar front ends: round trips, precedence, and error reporting."""

import os
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lict import (
    BOT,
    Atom,
    Concat,
    DrLicense,
    Exactly,
    Pay,
    ParseError,
    Render,
    Single,
    Star,
    Union,
    Upto,
    parse_action,
    parse_dr,
    parse_formula,
    parse_license,
    parse_run,
    pretty_formula,
    pretty_license,
    pretty_run,
)
from lict import make_run, parsing, reference
from lict.formulas import Act, ActionExpr, And, Issue, Next, Not, Perm, Truth, Until

from gen import licenses, random_formula, random_license, random_run

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


class TestActions:
    def test_pay(self):
        assert parse_action("pay[1.5]") == Pay(Decimal("1.50"))

    def test_render(self):
        assert parse_action("render[journal, d]") == Render("journal", "d")

    def test_bot(self):
        assert parse_action("bot") == BOT

    def test_three_fraction_digits_rejected(self):
        with pytest.raises(ParseError):
            parse_action("pay[1.005]")


class TestLicenses:
    def test_single_atom(self):
        assert parse_license("pay[1.00]") == Atom(Pay(Decimal("1.00")))

    def test_journal_shape(self):
        lic = parse_license("((pay[1.00] bot* render[journal,d]) | bot)*")
        assert isinstance(lic, Star)
        assert isinstance(lic.body, Union)
        inner = lic.body.left
        assert isinstance(inner, Concat)

    def test_star_binds_tighter_than_concat(self):
        lic = parse_license("pay[1.00] bot*")
        assert lic == Concat(Atom(Pay(Decimal("1.00"))), Star(Atom(BOT)))

    def test_concat_binds_tighter_than_union(self):
        lic = parse_license("bot bot | bot")
        assert isinstance(lic, Union)

    def test_unclosed_bracket_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_license("pay[1.00")
        assert "line 1" in str(err.value)

    def test_zero_one_literals_rejected(self):
        with pytest.raises(ParseError):
            parse_license("1")
        with pytest.raises(ParseError):
            parse_license("bot | 0")

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(200):
            lic = random_license(rng, 5)
            assert parse_license(pretty_license(lic)) == lic

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lic=licenses())
    def test_round_trip_of_nested_stars_and_unions(self, lic):
        assert parse_license(pretty_license(lic)) == lic

    def test_one_atom_per_distinct_action_text(self):
        lic = parse_license("pay[1.00] pay[1.00] pay[1.0]")
        assert lic.left.left is lic.left.right
        assert lic.right == lic.left.right and lic.right is not lic.left.right

    def test_deep_licenses(self):
        assert parse_license("(" * 1000 + "bot" + ")" * 1000) == Atom(BOT)
        nest = "(" * 1000 + "bot" + " | pay[1.00])*" * 1000
        flat = " ".join(["bot", "pay[1.00]", "render[w,d]"] * 1000)
        for text in (nest, flat):
            lic = parse_license(text)
            assert pretty_license(lic) == text
            # a twin built apart of the shared map, so == walks both trees
            twin = reference.parse_license(text)
            assert twin is not lic and twin == lic
            assert parse_license(text) is lic

    # Malformed licenses with the message, line and column each must give; an
    # action read again from the parse's memo must not move any of them.
    @pytest.mark.parametrize("grammar, text, message, line, col", [
        ('license', '', 'expected a license (line 1, column 1)', 1, 1),
        ('license', '(', 'expected a license (line 1, column 2)', 1, 2),
        ('license', ')', 'expected a license (line 1, column 1)', 1, 1),
        ('license', '()', 'expected a license (line 1, column 2)', 1, 2),
        ('license', 'pay[1.00] |', 'expected a license (line 1, column 12)', 1, 12),
        ('license', '| bot', 'expected a license (line 1, column 1)', 1, 1),
        ('license', 'bot ||bot', 'expected a license (line 1, column 6)', 1, 6),
        ('license', '(bot', "expected ')', found end of input (line 1, column 5)", 1, 5),
        ('license', '((bot)', "expected ')', found end of input (line 1, column 7)", 1, 7),
        ('license', 'bot)', "unexpected trailing input ')' (line 1, column 4)", 1, 4),
        ('license', 'bot )*', "unexpected trailing input ')' (line 1, column 5)", 1, 5),
        ('license', '*', 'expected a license (line 1, column 1)', 1, 1),
        ('license', 'bot (*)', 'expected a license (line 1, column 6)', 1, 6),
        ('license', '0', 'the license constants 0 and 1 are not part of the surface syntax (line 1, column 1)', 1, 1),
        ('license', 'bot | 1', 'the license constants 0 and 1 are not part of the surface syntax (line 1, column 7)', 1, 7),
        ('license', 'bot 0', "unexpected trailing input '0' (line 1, column 5)", 1, 5),
        ('license', 'pay', "expected '[', found end of input (line 1, column 4)", 1, 4),
        ('license', 'pay[', 'expected a decimal amount (line 1, column 5)', 1, 5),
        ('license', 'pay[1.001]', 'amount 1.001 has more than two fractional digits (line 1, column 5)', 1, 5),
        ('license', 'pay[x]', 'expected a decimal amount (line 1, column 5)', 1, 5),
        ('license', 'render[w]', "expected ',', found ']' (line 1, column 9)", 1, 9),
        ('license', 'render[w,]', 'expected a device identifier (line 1, column 10)', 1, 10),
        ('license', 'render[bot,d]', 'expected a work identifier (line 1, column 8)', 1, 8),
        ('license', 'bot*)', "unexpected trailing input ')' (line 1, column 5)", 1, 5),
        ('license', 'bot ,', "unexpected trailing input ',' (line 1, column 5)", 1, 5),
        ('license', 'x', 'expected a license (line 1, column 1)', 1, 1),
        ('license', '(bot | )', 'expected a license (line 1, column 8)', 1, 8),
        ('license', '(bot) (pay[1.00]) )', "unexpected trailing input ')' (line 1, column 19)", 1, 19),
        ('license', 'bot # note\n|', 'expected a license (line 2, column 2)', 2, 2),
        ('license', 'bot pay[1.00] render[w,d] |\n (bot', "expected ')', found end of input (line 2, column 6)", 2, 6),
        ('license', '(\n(bot | pay[2.50]* \n', "expected ')', found end of input (line 3, column 1)", 3, 1),
        ('license', 'pay[1.00] pay[1.00] pay[1.001]', 'amount 1.001 has more than two fractional digits (line 1, column 25)', 1, 25),
        ('license', 'render[w,d] render[w,d', "expected ']', found end of input (line 1, column 23)", 1, 23),
        ('license', 'pay[1.00] pay[1.00] ]', "unexpected trailing input ']' (line 1, column 21)", 1, 21),
        ('license', 'bot bot bot*| (bot bot', "expected ')', found end of input (line 1, column 23)", 1, 23),
        ('formula', 'issue(n, bot', "expected ')', found end of input (line 1, column 13)", 1, 13),
        ('formula', 'issue(n, (bot) | )', 'expected a license (line 1, column 18)', 1, 18),
        ('formula', 'issue(n, pay[1.00] 1)', "expected ')', found '1' (line 1, column 20)", 1, 20),
        ('run', '@0 issue n = (bot\n', "expected ')', found end of input (line 1, column 18)", 1, 18),
        ('run', '@0 do n bot\n@1 issue n = bot | (pay[2.50] *\n', "expected ')', found end of input (line 2, column 32)", 2, 32),
    ])
    def test_malformed_license_errors(self, grammar, text, message, line, col):
        parse = {"license": parse_license, "formula": parse_formula, "run": parse_run}[grammar]
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line, err.value.col) == (message, line, col)


class TestFormulas:
    def test_permission_atom(self):
        formula = parse_formula("P(pay[1.00], n)")
        assert formula == Perm(ActionExpr(True, Pay(Decimal("1.00")), "n"))

    def test_complement_atom(self):
        formula = parse_formula("(~pay[1.00], n)")
        assert formula == Act(ActionExpr(False, Pay(Decimal("1.00")), "n"))

    def test_obligation_desugars(self):
        formula = parse_formula("O(bot, n)")
        assert formula == Not(Perm(ActionExpr(False, BOT, "n")))

    def test_issue_atom(self):
        formula = parse_formula("issue(n, pay[1.00] bot)")
        assert isinstance(formula, Issue)
        assert formula.name == "n"

    def test_truth(self):
        assert parse_formula("true") == Truth()

    def test_journal_property_shape(self):
        formula = parse_formula("(pay[1.00], n) -> X(!O(render[journal,d], n))")
        assert isinstance(formula, Not)  # implication desugars to core forms

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_formula("(P(bot, n) & true")

    def test_precedence_until_between_unary_and_and(self):
        formula = parse_formula("(bot, n) U (bot, m) & true")
        # '&' is looser than 'U': parses as ((bot,n) U (bot,m)) & true
        assert isinstance(formula, And)
        assert isinstance(formula.left, Until)

    def test_next_unary(self):
        formula = parse_formula("X (bot, n)")
        assert isinstance(formula, Next)

    def test_round_trip(self):
        rng = random.Random(37)
        licenses = [("n", random_license(rng, 2)), ("m", random_license(rng, 2))]
        for _ in range(300):
            formula = random_formula(rng, 5, names=("n", "m"), licenses=licenses)
            assert parse_formula(pretty_formula(formula)) == formula

    def test_deep_formulas_round_trip(self):
        nexts = "X " * 1000 + "true"
        grouped = "true U (bot, n)"
        for _ in range(300):
            grouped = f"({grouped}) U (bot, n)"
        assert grouped.startswith("(" * 300)
        for text, size in ((nexts, 1001), (grouped, 603)):
            formula = parse_formula(text)
            assert pretty_formula(formula) == text
            assert parse_formula(text) == formula
            assert reference.formula_size(formula) == size
        assert pretty_formula(parse_formula("(" * 300 + "true" + ")" * 300)) == "true"


class TestRuns:
    def test_empty_file(self):
        run = parse_run("")
        assert run.horizon == 0
        assert run.names == frozenset()

    def test_journal_scenario(self):
        run = parse_run(
            """
            # scenario
            @0 issue n = ((pay[1.00] bot* render[journal,d]) | bot)*
            @0 do n pay[1.00]
            @2 do n render[journal,d]
            """
        )
        assert run.horizon == 2
        assert run.action("n", 0) == Pay(Decimal("1.00"))
        assert run.action("n", 1) == BOT

    def test_name_reuse_rejected(self):
        with pytest.raises(ValueError, match="name reused"):
            parse_run("@0 issue n = bot\n@1 issue n = bot")

    def test_double_action_rejected(self):
        with pytest.raises(ValueError, match="two actions"):
            parse_run("@0 do n bot\n@0 do n pay[1.00]")

    def test_times_need_not_be_sorted(self):
        run = parse_run("@2 do n bot\n@0 issue n = bot*")
        assert run.horizon == 2

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(100):
            run = random_run(rng, horizon=4)
            again = parse_run(pretty_run(run))
            assert again.issuances == tuple(sorted(run.issuances))
            assert set(again.actions) == set(run.actions)

    def test_crlf_lines(self):
        run = parse_run("# runs\r\n@0 issue n = bot*\r\n\r\n@1 do n bot # done\r\n")
        assert run == make_run([(0, "n", Star(Atom(BOT)))], [(1, "n", BOT)])
        with pytest.raises(ParseError) as err:
            parse_run("@0 do n bot\r\n@1 do n pay[x]\r\n")
        assert str(err.value) == "expected a decimal amount (line 2, column 13)"

    def test_lone_carriage_return_does_not_end_a_line(self):
        with pytest.raises(ParseError) as err:
            parse_run("@0 do n bot\r@1 do n bot")
        assert str(err.value) == "unexpected trailing input '@' (line 1, column 13)"

    @pytest.mark.parametrize(
        "text, bad, line, col",
        [
            ("@0 do n bot\x0c@1 do n bot", "\x0c", 1, 12),
            ("@0 do n bot\n\x0c\n", "\x0c", 2, 1),
            ("@0 do n bot\n@1 do n bot\x85\n@2 do n bot", "\x85", 2, 12),
            ("@0 do n bot\u2028@1 do n pay[x]", "\u2028", 1, 12),
        ],
    )
    def test_only_newline_ends_a_line(self, text, bad, line, col):
        # str.splitlines breaks lines at these too, which shifts every later line
        with pytest.raises(ParseError) as err:
            parse_run(text)
        assert str(err.value) == f"unexpected character {bad!r} (line {line}, column {col})"
        assert (err.value.line, err.value.col) == (line, col)


class TestDr:
    def test_paper_flatrate(self):
        dr = parse_dr("for 3 100 pay 10.00 flatrate for {w} on {d}")
        assert dr == DrLicense(
            Exactly(3, 100), Decimal("10.00"), "flatrate", frozenset({"w"}), frozenset({"d"})
        )

    def test_single_period(self):
        dr = parse_dr("for 2 pay 1.00 upfront for {w} on {d}")
        assert dr.repetition == Single(2)

    def test_upto(self):
        dr = parse_dr("for upto 2 3 pay 0.50 peruse for {a,b} on {d}")
        assert dr.repetition == Upto(2, 3)
        assert dr.works == frozenset({"a", "b"})

    def test_missing_schedule_rejected(self):
        with pytest.raises(ParseError):
            parse_dr("for 2 pay 1.00 for {w} on {d}")

    def test_zero_period_rejected(self):
        with pytest.raises(ValueError):
            parse_dr("for 0 pay 1.00 upfront for {w} on {d}")


class TestAsciiOnly:
    """Letters and digits outside ASCII are unexpected characters, reported where they stand."""

    @staticmethod
    def error(parse, text: str) -> ParseError:
        with pytest.raises(ParseError) as err:
            parse(text)
        return err.value

    def test_arabic_indic_digit_in_amount(self):
        err = self.error(parse_formula, "issue(n, pay[\u0663])")
        assert str(err) == "unexpected character '\u0663' (line 1, column 14)"
        assert (err.line, err.col) == (1, 14)

    def test_superscript_digit_is_a_parse_error(self):
        err = self.error(parse_action, "pay[\u00b2]")
        assert (err.line, err.col) == (1, 5)

    def test_run_file_reports_the_line(self):
        err = self.error(parse_run, "@0 do n bot\n@1 do n pay[\u00b2]\n")
        assert str(err) == "unexpected character '\u00b2' (line 2, column 13)"
        assert (err.line, err.col) == (2, 13)

    def test_non_ascii_name(self):
        err = self.error(parse_formula, "P(bot, n\u00e9)")
        assert str(err) == "unexpected character '\u00e9' (line 1, column 9)"
        err = self.error(parse_run, "# names\n@0 issue n\u00e9 = bot\n")
        assert (err.line, err.col) == (2, 11)


def _samples() -> list[str]:
    texts = []
    for name in sorted(os.listdir(SAMPLES)):
        with open(os.path.join(SAMPLES, name), encoding="ascii") as handle:
            texts.append(handle.read())
    return texts


# ASCII operator, digit, comment, blank and line-break characters, and a few
# that no grammar accepts.
_MUTATIONS = tuple("()[]{},*|&!=@~->#0123456789.\t\r\n _x$")


def _lexed(lex, text: str):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(text, first_line=3)]
    except ParseError as err:
        return (str(err), err.line, err.col)


class TestLexerOracle:
    """The regex lexer agrees with the character-by-character one on ASCII input."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_tokens_and_errors_match_the_reference(self, data):
        text = data.draw(st.sampled_from(_samples()))
        start = data.draw(st.integers(0, len(text)))
        text = text[start : data.draw(st.integers(start, len(text)))]
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(_MUTATIONS)) + text[at:]
        assert _lexed(parsing.tokenize, text) == _lexed(reference.tokenize, text)

    @pytest.mark.parametrize(
        "text", ["", "# only a comment", "bot # trailing", "a\n# last", "bot  \r", "1.", "1.5.3", "- >"]
    )
    def test_edges_match_the_reference(self, text):
        assert _lexed(parsing.tokenize, text) == _lexed(reference.tokenize, text)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ParseError as err:
        return (str(err), err.line, err.col)
    except ValueError as err:  # a well-formed file that is not a run
        return str(err)


# Each production parser and its token-stream oracle in lict.reference.
_PARSERS = (
    (parse_action, reference.parse_action),
    (parse_license, reference.parse_license),
    (parse_formula, reference.parse_formula),
    (parse_run, reference.parse_run),
    (parse_dr, reference.parse_dr),
)
# non-ASCII letters and digits, which no grammar accepts
_ORACLE_MUTATIONS = _MUTATIONS + ("é", "٣")


class TestParserOracles:
    """Every parser gives the tree, or the message, line and column, that its oracle gives."""

    @staticmethod
    def _mutated_inputs_match(data, warm: bool):
        text = data.draw(st.one_of(
            st.sampled_from(_samples()),
            licenses().map(pretty_license),
            st.builds(lambda rng: pretty_run(random_run(rng, horizon=4)), st.randoms(use_true_random=False)),
        ))
        if data.draw(st.booleans()):
            start = data.draw(st.integers(0, len(text)))
            text = text[start : data.draw(st.integers(start, len(text)))]
        if warm:  # every license the unmutated text holds is met again below
            for parse, _ in _PARSERS:
                _outcome(parse, text)
        for _ in range(data.draw(st.integers(0, 4))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(_ORACLE_MUTATIONS)) + text[at:]
        for parse, oracle in _PARSERS:
            assert _outcome(parse, text) == _outcome(oracle, text)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_values_and_errors_match_the_reference(self, data):
        self._mutated_inputs_match(data, warm=False)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_values_and_errors_match_the_reference_after_the_unmutated_text(self, data):
        self._mutated_inputs_match(data, warm=True)

    @pytest.mark.parametrize("text", [
        "", "#", "bot #", "pay[1.00", "render[w,d]]", "(bot", "bot)", "@", "@0", "@0 do", "@ 7 do n bot",
        "@1. do n bot", "@0 do n bot\n@1 do n bot $", "é bot |", "for upto 2 pay 1.00 upfront for {w} on {d}",
        "for 0 pay 1.00 upfront for {w} on {d}", "for 2 3 pay 1.001 flatrate for {w,} on {d}", "X" * 50 + " (bot, n",
        "O(~bot, n) ٣", "issue(n, pay[1.00] ) & P(bot, n)", "G ((bot, n) -> F (render[w,d], n))",
        "@" + "9" * 5000 + " do n bot", "@" + "9" * 5000 + " do n bot $", "for " + "9" * 5000 + " pay x",
        # reserved words where a name is expected
        "render[w,bot]", "render[X,d]", "@0 issue do = bot", "@0 do issue bot", "P(bot, U)",
        "issue(true, bot)", "for 2 pay 1.00 upfront for {w,pay} on {d}", "for 2 w pay 1.00 upfront for {w} on {d}",
        # a failing line repeated: the first one is reported
        "@0 do n bot\n@1 do n pay[x]\n@1 do n pay[x]", "# x\ndo n bot\ndo n bot",
    ])
    def test_edges_match_the_reference(self, text):
        for parse, oracle in _PARSERS:
            assert _outcome(parse, text) == _outcome(oracle, text)


class TestSharedLicenses:
    """Equal license texts parse to one object, and no error depends on what was parsed before."""

    @staticmethod
    def _respaced(text: str, blank: str) -> str:
        return blank.join(parsing._token_texts(text)[:-1]) + blank + "# comment"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lic=licenses(), blank=st.sampled_from((" ", "  ", "\t", " \t ")))
    def test_equal_texts_are_one_object(self, lic, blank):
        text = pretty_license(lic)
        first = parse_license(text)
        assert parse_license(text) is first
        assert parse_license(self._respaced(text, blank)) is first
        assert first == reference.parse_license(text)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lic=licenses(), run_first=st.booleans())
    def test_a_formula_shares_its_runs_license(self, lic, run_first):
        text = pretty_license(lic)
        parses = [lambda: parse_run(f"@0 issue n = {text}").issuances[0][2],
                  lambda: parse_formula(f"issue(n, {text})").license]
        if not run_first:
            parses.reverse()
        assert parses[0]() is parses[1]()

    def test_the_map_is_bounded(self):
        bound = parsing._license_of.cache_info().maxsize
        texts = [f"pay[{i}.00] bot*" for i in range(bound + 10)]
        first, kept = parse_license(texts[0]), parse_license(texts[1])
        for text in texts[2:]:
            assert parse_license(texts[1]) is kept  # used most recently, so never evicted
            parse_license(text)
        assert parsing._license_of.cache_info().currsize == bound
        again = parse_license(texts[0])  # evicted, so parsed afresh
        assert again == first and again is not first

    @pytest.mark.parametrize("parse, oracle, text", [
        (parse_formula, reference.parse_formula, "issue(n, bot*) &"),
        (parse_run, reference.parse_run, "@0 issue n = bot* )"),
        (parse_run, reference.parse_run, "@0 issue n = bot* bot*]"),
    ])
    def test_errors_after_the_license_was_met(self, parse, oracle, text):
        parsing._license_of.cache_clear()
        cold = _outcome(parse, text)
        assert isinstance(cold, tuple)  # (message, line, column)
        assert parse_license("bot*") is parse_license("bot*")
        assert _outcome(parse, text) == cold == _outcome(oracle, text)


def _line_by_line(text: str):
    """``parse_run`` one line at a time, each at its own line number."""
    issuances, actions = [], []
    for index, line in enumerate(text.split("\n")):
        run = parse_run("\n" * index + line)
        issuances += run.issuances
        actions += run.actions
    return make_run(issuances, actions)


# A few texts after the time, so that tails repeat; the times include
# lexemes that are not naturals.
_TAILS = (" do n bot", " do n pay[1.00]", "  do m render[w,d] # seen", " issue k = bot*", "do n bot")
_TIMES = ("0", "1", "2", "007", "12", "1.5", "1.", "")
_BLANKS = ("", "   ", "# a comment", " \t# @1 do n bot")


class TestRunTails:
    """Parsing each distinct line tail once agrees with parsing every line alone."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_agrees_with_parsing_each_line_alone(self, data):
        lines = []
        for _ in range(data.draw(st.integers(0, 8))):
            shape = data.draw(st.integers(0, 5))
            if shape == 0:
                lines.append(data.draw(st.sampled_from(_BLANKS)))
            else:
                lead = data.draw(st.sampled_from(("", " ")))
                time = data.draw(st.sampled_from(_TIMES))
                lines.append(f"{lead}@{time}{data.draw(st.sampled_from(_TAILS))}")
        text = "\n".join(lines)
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(_MUTATIONS)) + text[at:]
        assert _outcome(parse_run, text) == _outcome(_line_by_line, text)
