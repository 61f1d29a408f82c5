"""The command line: exit codes, result lines, JSON mode, and the REPL."""

import contextlib
import io
import json
import os
import random
import tempfile
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lict.cli import main
from lict.repl import step_repl
from lict import BOT, Pay, Render, accepts, build_nfa, compile_dr, parse_dr, parse_run

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

JOURNAL_RUN = """
@0 issue n = ((pay[1.00] bot* render[journal,d]) | bot)*
@0 do n pay[1.00]
@2 do n render[journal,d]
"""

JOURNAL_PROPERTY = "(pay[1.00], n) -> X(!O(render[journal,d], n))"


def invoke(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_valid_formula_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "P(pay[1.00], n) | P(~pay[1.00], n)")
        code, out = invoke(capsys, "valid", path)
        assert code == 0
        assert out.splitlines()[0] == "result=valid"

    def test_invalid_formula_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "P(pay[1.00], n)")
        code, out = invoke(capsys, "valid", path)
        assert code == 1
        assert out.splitlines()[0] == "result=invalid"

    def test_unsat_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "(bot, n) & !(bot, n)")
        code, out = invoke(capsys, "sat", path)
        assert code == 1
        assert out.splitlines()[0] == "result=unsat"

    def test_sat_exits_zero_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "issue(n, pay[1.00]) & O(pay[1.00], n)")
        code, out = invoke(capsys, "sat", path)
        assert code == 0
        assert out.splitlines()[0] == "result=sat"
        assert "issue n" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "P(pay[1.00")
        code, out = invoke(capsys, "sat", path)
        assert code == 2
        assert out.splitlines()[0] == "result=error"

    def test_missing_file_exits_two(self, capsys):
        code, out = invoke(capsys, "sat", "no-such-file.lic")
        assert code == 2

    def test_budget_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "issue(n, (pay[1.00] | bot)*) & F O(pay[1.00], n)")
        code, out = invoke(capsys, "sat", path, "--budget", "3")
        assert code == 3
        assert out.splitlines()[0] == "result=budget-exceeded"


class TestCheckSpec:
    def test_holds(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", JOURNAL_RUN)
        prop = write(tmp_path, "p.lic", JOURNAL_PROPERTY)
        code, out = invoke(capsys, "check-spec", run, prop)
        assert code == 0
        assert out.splitlines()[0] == "result=holds"

    def test_fails_on_violating_run(self, tmp_path, capsys):
        run = write(
            tmp_path,
            "r.run",
            "@0 issue n = (pay[1.00] bot* render[journal,d] | bot)*\n@0 do n render[journal,d]",
        )
        prop = write(
            tmp_path,
            "p.lic",
            "issue(n, (pay[1.00] bot* render[journal,d] | bot)*) -> G((render[journal,d], n) -> P(render[journal,d], n))",
        )
        code, out = invoke(capsys, "check-spec", run, prop)
        assert code == 1
        assert out.splitlines()[0] == "result=fails"

    def test_at_single_time(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", "@0 issue m = pay[1.00]")
        prop = write(tmp_path, "p.lic", "O(pay[1.00], m)")
        code, _ = invoke(capsys, "check-spec", run, prop, "--at", "0")
        assert code == 0
        code, _ = invoke(capsys, "check-spec", run, prop, "--at", "1")
        assert code == 1


class TestPermissionsDump:
    def test_line_format(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", "@0 issue m = pay[1.00]")
        code, out = invoke(capsys, "permissions", run, "--horizon", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t=0 n=m permits={pay[1.00]} obligated=pay[1.00]"
        assert lines[2] == "t=1 n=m permits={bot} obligated=bot"

    def test_nfa_dump_flag(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", "@0 issue m = pay[1.00]")
        code, out = invoke(capsys, "permissions", run, "--dump-nfa")
        assert code == 0
        assert "digraph" in out


class TestJsonFormat:
    def test_valid_object(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "O(pay[1.00], n) -> P(pay[1.00], n)")
        code, out = invoke(capsys, "--format", "json", "valid", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["command"] == "valid"
        assert payload["result"] == "valid"

    def test_counterexample_field(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "P(pay[1.00], n)")
        code, out = invoke(capsys, "--format", "json", "valid", path)
        payload = json.loads(out)
        assert code == 1
        assert payload["result"] == "invalid"
        assert "counterexample" in payload


class TestEncodeAndTranslate:
    def test_encode_run_reparses_and_reproduces_check_spec(self, tmp_path, capsys):
        run_path = write(tmp_path, "r.run", "@0 issue m = pay[1.00]\n@0 do m pay[1.00]")
        code, out = invoke(capsys, "encode-run", run_path)
        assert code == 0
        psi_text = "\n".join(out.splitlines()[1:])
        probe = "O(bot, m)"
        # validity of psi -> X probe must match checking the probe at t=1
        formula_path = write(tmp_path, "f.lic", f"({psi_text}) -> X ({probe})")
        probe_path = write(tmp_path, "probe.lic", probe)
        via_validity, _ = invoke(capsys, "valid", formula_path)
        directly, _ = invoke(capsys, "check-spec", run_path, probe_path, "--at", "1")
        assert via_validity == directly == 0

    def test_translate_emits_target_logic(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "P(pay[1.00], n) & X (bot, n)")
        code, out = invoke(capsys, "translate-ltl", path)
        assert code == 0
        assert "permitted(pay[1.00], n) & X done(bot, n)" in out

    def test_translate_with_restrictions(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "issue(n, pay[1.00])")
        code, out = invoke(capsys, "translate-ltl", path, "--with-restrictions")
        assert code == 0
        assert "instate(" in out
        assert "over(n)" in out

    def test_compile_dr_output_parses(self, tmp_path, capsys):
        from lict import parse_license, traces as license_traces, dr_traces, parse_dr

        path = write(tmp_path, "l.dr", "for 2 2 pay 1.00 upfront for {w} on {d}")
        code, out = invoke(capsys, "compile-dr", path)
        assert code == 0
        compiled = parse_license("\n".join(out.splitlines()[1:]))
        entry = parse_dr("for 2 2 pay 1.00 upfront for {w} on {d}")
        assert license_traces(compiled, 4) == dr_traces(entry)

    def test_compile_dr_cap_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, "l.dr", "for 99 99 pay 1.00 flatrate for {w} on {d}")
        code, out = invoke(capsys, "compile-dr", path)
        assert code == 3

    @pytest.mark.parametrize("period", [11, 12])
    def test_compile_dr_long_peruse_period(self, tmp_path, capsys, period):
        # 2^(period-1) alternatives once nested as deep as they were many
        text = f"for {period} pay 2.00 peruse for {{w,v}} on {{d}}"
        code, out = invoke(capsys, "compile-dr", write(tmp_path, "l.dr", text))
        assert code == 0
        assert out.splitlines()[0] == "result=ok"
        nfa = build_nfa(compile_dr(parse_dr(text)))
        rng = random.Random(period)
        slots = (BOT, Render("w", "d"), Render("v", "d"))
        for _ in range(20):
            body = tuple(rng.choice(slots) for _ in range(period - 1))
            fee = Decimal("2.00") * sum(1 for action in body if action != BOT)
            assert accepts(nfa, body + (Pay(fee),))
            assert not accepts(nfa, body + (Pay(fee + Decimal("0.01")),))


class TestDeepInput:
    """Inputs nested beyond the interpreter's stack end in a usage error."""

    @pytest.mark.parametrize(
        "text", ["(" * 300 + "true" + ")" * 300, "X " * 1000 + "true"]
    )
    def test_nested_too_deeply_exits_two(self, tmp_path, capsys, text):
        code, out = invoke(capsys, "sat", write(tmp_path, "f.lic", text))
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "result=error"
        assert "nested too deeply" in lines[1]


# Pieces of every input language: formulas, licenses, runs, DR licenses and
# REPL lines.  Numbers only appear inside pieces, so an edit never builds a
# long time stamp out of loose digits.
_FUZZ_TOKENS = (
    "(", ")", "!", "&", "|", "->", "~", "*", ",", "=", "#", "\n",
    "X", "G", "F", "U", "true", "issue", "P", "O", "do", "n", "m",
    "pay[1.00]", "pay[2.00]", "render[w,d]", "bot", "issue(n, pay[1.00])",
    "(pay[1.00], n)", "P(bot, n)", "O(pay[1.00], n)", "@0", "@1 ", "@3 ",
    "for", "upto", " 2 ", " 3 ", "pay 2.00", "peruse", "flatrate", "upfront",
    "{w}", "{w,v}", "on", "{d}", "show", "eval", "undo", "quit",
)


# Each command with the kind of file it reads; ``{file}`` is the fuzzed input.
_FUZZ_COMMANDS = (
    (".lic", ("sat", "--budget", "{small}", "{file}")),
    (".lic", ("valid", "--budget", "{small}", "{file}")),
    (".lic", ("translate-ltl", "--with-restrictions", "{file}")),
    (".lic", ("check-spec", "{run}", "{file}", "--at", "0")),
    (".run", ("check-spec", "{file}", "{property}")),
    (".run", ("permissions", "{file}", "--horizon", "3")),
    (".run", ("encode-run", "{file}")),
    (".run", ("step", "{file}")),
    (".dr", ("compile-dr", "--cap", "{small}", "{file}")),
)


def _fuzz_text(draw, suffix: str) -> str:
    """Token soup, or a sample of the given kind with a few pieces deleted or inserted."""
    if draw(st.integers(0, 3)) == 0:
        return " ".join(draw(st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=24)))
    names = sorted(name for name in os.listdir(SAMPLES) if name.endswith(suffix))
    with open(os.path.join(SAMPLES, draw(st.sampled_from(names))), encoding="ascii") as handle:
        text = handle.read()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
        else:
            text = text[:at] + draw(st.sampled_from(_FUZZ_TOKENS)) + text[at:]
    return text


class TestFuzz:
    """Any input to any command ends with a documented exit code."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), small=st.integers(0, 40), json_format=st.booleans())
    def test_every_command_exits_with_a_documented_code(self, data, small, json_format):
        suffix, command = data.draw(st.sampled_from(_FUZZ_COMMANDS))
        text = _fuzz_text(data.draw, suffix)
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "input" + suffix)
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text)
            fill = {
                "file": path,
                "small": str(small),
                "property": os.path.join(SAMPLES, "journal-property.lic"),
                "run": os.path.join(SAMPLES, "journal.run"),
            }
            argv = ["--format=json"] if json_format else []
            argv += [part.format(**fill) for part in command]
            with (
                mock.patch("sys.stdin", io.StringIO(text)),
                contextlib.redirect_stdout(io.StringIO()),
                contextlib.redirect_stderr(io.StringIO()),
            ):
                code = main(argv)
        assert code in (0, 1, 2, 3)


def _samples(suffix: str) -> list[str]:
    return sorted(name[: -len(suffix)] for name in os.listdir(SAMPLES) if name.endswith(suffix))


class TestGoldenOutput:
    """Exact output on the samples, pinned so printer changes show up."""

    @staticmethod
    def expected(name: str) -> str:
        with open(os.path.join(GOLDEN, name), encoding="ascii") as handle:
            return handle.read()

    @pytest.mark.parametrize("sample", _samples(".lic"))
    def test_translate_with_restrictions(self, capsys, sample):
        path = os.path.join(SAMPLES, f"{sample}.lic")
        code, out = invoke(capsys, "translate-ltl", "--with-restrictions", path)
        assert code == 0
        assert out == self.expected(f"translate-ltl-{sample}.txt")

    @pytest.mark.parametrize("command", ["sat", "valid"])
    @pytest.mark.parametrize("sample", _samples(".lic"))
    def test_decide(self, capsys, command, sample):
        code, out = invoke(capsys, command, os.path.join(SAMPLES, f"{sample}.lic"))
        assert code in (0, 1)
        assert out == self.expected(f"{command}-{sample}.txt")

    @pytest.mark.parametrize("sample", _samples(".run"))
    def test_encode_run(self, capsys, sample):
        code, out = invoke(capsys, "encode-run", os.path.join(SAMPLES, f"{sample}.run"))
        assert code == 0
        assert out == self.expected(f"encode-run-{sample}.txt")


class TestSamples:
    """The shipped sample files stay parseable and behave as documented."""

    @staticmethod
    def sample(name: str) -> str:
        import os

        return os.path.join(os.path.dirname(__file__), "..", "samples", name)

    def test_journal_samples(self, capsys):
        code, out = invoke(
            capsys, "check-spec", self.sample("journal.run"), self.sample("journal-property.lic")
        )
        assert code == 0
        code, _ = invoke(
            capsys, "check-spec", self.sample("journal.run"), self.sample("journal-noviolation.lic")
        )
        assert code == 0

    def test_prop1_valid(self, capsys):
        code, _ = invoke(capsys, "valid", self.sample("prop1.lic"))
        assert code == 0

    def test_contradiction_unsat(self, capsys):
        code, _ = invoke(capsys, "sat", self.sample("contradiction.lic"))
        assert code == 1

    def test_mortgage_late_obligation(self, capsys):
        code, _ = invoke(
            capsys,
            "check-spec",
            self.sample("mortgage.run"),
            self.sample("late-obligation.lic"),
            "--at",
            "0",
        )
        assert code == 0

    def test_dr_samples_compile(self, capsys):
        for name in ("flatrate.dr", "peruse.dr"):
            code, _ = invoke(capsys, "compile-dr", self.sample(name))
            assert code == 0


class TestRepl:
    def run_session(self, script: str, base: str = "") -> str:
        out = io.StringIO()
        step_repl(parse_run(base), io.StringIO(script), out)
        return out.getvalue()

    def test_issue_then_show_obligation(self):
        out = self.run_session("issue n pay[1.00]\nshow\nquit\n")
        assert "issued n at t=0" in out
        assert "n=n permits={pay[1.00]} obligated=pay[1.00]" in out

    def test_do_bot_violates(self):
        out = self.run_session("issue n pay[1.00]\ndo n bot\nshow\nquit\n")
        assert "n=n permits={bot} obligated=bot" in out

    def test_undo_restores(self):
        out = self.run_session(
            "issue n pay[1.00]\ndo n bot\nundo\nshow\nquit\n"
        )
        assert "n=n permits={pay[1.00]} obligated=pay[1.00]" in out.split("undone")[1]

    def test_name_reuse_rejected_session_continues(self):
        out = self.run_session("issue n bot\nissue n bot\nshow\nquit\n")
        assert "error: name reused" in out
        assert "n=n" in out

    def test_eval(self):
        out = self.run_session("issue n pay[1.00]\neval O(pay[1.00], n)\nquit\n")
        assert "lict> true" in out
