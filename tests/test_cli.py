"""The command line: exit codes, result lines, JSON mode, and the REPL."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lict import automata, cli, parsing, repl
from lict.cli import main
from lict.repl import NESTED_TOO_DEEPLY, TOO_LARGE, ReplSession, step_repl
from lict import BOT, Exactly, Pay, Render, Single, compile_dr, parse_dr, parse_license, parse_run, pretty_license
from lict.digitalrights import DEFAULT_DR_CAP
from lict.automata import build_nfa
from lict.licenses import Node
from lict.reference import accepts, dr_traces, traces

from gen import parse_compiled, repeating_run_text, subset_blowup_text

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
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

    @pytest.mark.parametrize("command", ["sat", "valid"])
    def test_negative_budget_is_an_error(self, capsys, command):
        code, out = invoke(capsys, command, os.path.join(SAMPLES, "prop1.lic"), "--budget", "-5")
        assert code == 2
        assert out.splitlines() == ["result=error", "--budget -5 is negative"]


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

    def test_negative_time_is_an_error(self, capsys):
        run = os.path.join(SAMPLES, "journal.run")
        prop = os.path.join(SAMPLES, "journal-property.lic")
        code, out = invoke(capsys, "check-spec", run, prop, "--at", "-1")
        assert code == 2
        assert out.splitlines()[0] == "result=error"

    def test_each_license_text_is_built_and_compared_once(self, tmp_path, capsys, monkeypatch):
        licenses = {
            "a": "(pay[7.01] bot* render[w,d] | bot)*",
            "b": "(pay[7.02] bot bot | bot pay[7.03] bot)*",
            "c": "bot* render[v,e]",
        }
        run = write(tmp_path, "r.run", "".join(f"@0 issue {n} = {lic}\n" for n, lic in licenses.items())
                    + "@1 do a pay[7.01]\n@2 do b pay[7.02]\n@3 do c render[v,e]\n")
        prop = write(tmp_path, "p.lic", " & ".join(
            f"(issue({n}, {lic}) -> G((bot, {n}) -> P(bot, {n})))" for n, lic in licenses.items()))
        built = []
        monkeypatch.setattr(automata, "build_nfa", lambda lic, padded=False: built.append(lic)
                            or build_nfa(lic, padded))
        compared = []
        node_eq = Node.__eq__
        monkeypatch.setattr(Node, "__eq__", lambda self, other: self is other
                            or compared.append((self, other)) or node_eq(self, other))
        parsing._license_of.cache_clear()  # so each text is parsed, and its automaton built, afresh
        for repeat in (False, True):
            code, out = invoke(capsys, "check-spec", run, prop)
            assert (code, out.splitlines()[0]) == (0, "result=holds")
            # one automaton per distinct text, and none built again
            assert sorted(map(pretty_license, built)) == ([] if repeat else sorted(licenses.values()))
            built.clear()
        assert compared == []

    def test_module_run_goes_through_the_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        run = os.path.join(SAMPLES, "journal.run")
        prop = os.path.join(SAMPLES, "journal-property.lic")
        completed = subprocess.run(
            [sys.executable, "-m", "lict.cli", "check-spec", run, prop, "--at", "-1"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2, completed.stderr
        assert completed.stdout.splitlines()[0] == "result=error"


# 28 and 30 significant digits: past the 28 digits of the default decimal context
BIG = "99999999999999999999999999.99"
HUGE = "9999999999999999999999999999.99"


class TestLargeAmounts:
    def test_sat_pays_the_amount(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", f"(pay[{BIG}], n)")
        code, out = invoke(capsys, "sat", path)
        assert code == 0
        assert out.splitlines() == ["result=sat", "witness run:", f"@0 do n pay[{BIG}]"]

    def test_sat_witness_pays_one_more_than_every_amount(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", f"(~bot, n) & !(pay[{BIG}], n) & !(pay[{HUGE}], n)")
        code, out = invoke(capsys, "sat", path)
        assert code == 0
        assert out.splitlines()[-1] == "@0 do n pay[10000000000000000000000000000.99]"

    def test_unsat_and_valid(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", f"(pay[{HUGE}], n) & !(pay[{HUGE}], n)")
        code, out = invoke(capsys, "sat", path)
        assert (code, out.splitlines()[0]) == (1, "result=unsat")
        path = write(tmp_path, "g.lic", f"issue(n, pay[{HUGE}] bot*) -> X P(bot, n)")
        code, out = invoke(capsys, "valid", path)
        assert (code, out.splitlines()[0]) == (0, "result=valid")

    def test_invalid(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", f"P(pay[{HUGE}], n)")
        code, out = invoke(capsys, "valid", path)
        assert (code, out.splitlines()[0]) == (1, "result=invalid")

    def test_permissions_and_check_spec(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", f"@0 issue n = pay[{HUGE}] render[w,d]\n@0 do n pay[{HUGE}]\n")
        code, out = invoke(capsys, "permissions", run)
        assert code == 0
        assert out.splitlines()[1] == f"t=0 n=n permits={{pay[{HUGE}]}} obligated=pay[{HUGE}]"
        holds = write(tmp_path, "p.lic", f"O(pay[{HUGE}], n) & X O(render[w,d], n)")
        code, out = invoke(capsys, "check-spec", run, holds, "--at", "0")
        assert (code, out.splitlines()[0]) == (0, "result=holds")
        fails = write(tmp_path, "q.lic", f"X P(pay[{HUGE}], n)")
        code, out = invoke(capsys, "check-spec", run, fails, "--at", "0")
        assert (code, out.splitlines()[0]) == (1, "result=fails")


class TestPermissionsDump:
    def test_line_format(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", "@0 issue m = pay[1.00]")
        code, out = invoke(capsys, "permissions", run, "--horizon", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t=0 n=m permits={pay[1.00]} obligated=pay[1.00]"
        assert lines[2] == "t=1 n=m permits={bot} obligated=bot"

    def test_negative_horizon_is_an_error(self, capsys):
        code, out = invoke(capsys, "permissions", os.path.join(SAMPLES, "journal.run"), "--horizon", "-1")
        assert code == 2
        assert out.splitlines() == ["result=error", "horizon -1 is negative; the model starts at time 0"]

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

    @pytest.mark.parametrize("copies", [10, 16])
    def test_translate_with_restrictions_past_the_subset_limit_exits_three(self, tmp_path, capsys, copies):
        # 3073 and 196609 subsets; the search stops past the 1024th, before
        # any restriction formula is built
        path = write(tmp_path, "f.lic", subset_blowup_text(copies))
        start = time.perf_counter()
        code, out = invoke(capsys, "translate-ltl", path, "--with-restrictions")
        assert time.perf_counter() - start < 2
        assert code == 3
        lines = out.splitlines()
        assert lines[0] == "result=budget-exceeded"
        assert len(lines) == 2
        assert "(pay[1.00] | bot)* pay[1.00] (pay[1.00] | bot)" in lines[1]
        assert "more than 1024 automaton subsets" in lines[1]

    def test_translate_with_restrictions_within_the_subset_limit(self, tmp_path, capsys):
        # 769 subsets: the formulas are built and printed, tens of megabytes
        path = write(tmp_path, "f.lic", subset_blowup_text(8))
        code, out = invoke(capsys, "translate-ltl", path, "--with-restrictions")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "result=ok"
        assert lines[1].startswith("issued(n, (pay[1.00] | bot)* pay[1.00]")
        assert "instate(n, " in lines[2]

    def test_sat_of_a_subset_blowup_spends_only_its_budget(self, tmp_path, capsys):
        # rows are built as the product reaches them, not for all 196609 subsets
        path = write(tmp_path, "f.lic", subset_blowup_text(16))
        start = time.perf_counter()
        code, out = invoke(capsys, "sat", path, "--budget", "1000")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out.splitlines()[0] == "result=budget-exceeded"

    def test_compile_dr_output_parses(self, tmp_path, capsys):
        from lict import parse_license, parse_dr
        from lict.reference import traces as license_traces, dr_traces

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

    def test_compile_dr_cap_defaults_to_the_library_cap(self):
        args = cli.build_parser().parse_args(["compile-dr", "any.dr"])
        assert args.cap == DEFAULT_DR_CAP

    def test_compile_dr_negative_cap_is_an_error(self, capsys):
        code, out = invoke(capsys, "compile-dr", os.path.join(SAMPLES, "flatrate.dr"), "--cap", "-1")
        assert code == 2
        assert out.splitlines() == ["result=error", "--cap -1 is negative"]

    @pytest.mark.parametrize("period", [30, 64, 600, 20000])
    def test_compile_dr_size_limit_exits_three(self, tmp_path, capsys, period):
        # the time cap admits these periods; their printed trees would not
        # fit, and the limit is checked before the period is built
        path = write(tmp_path, "l.dr", f"for {period} pay 2.00 peruse for {{w,v}} on {{d}}")
        start = time.perf_counter()
        code, out = invoke(capsys, "compile-dr", path, "--cap", str(max(period, DEFAULT_DR_CAP)))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out.splitlines()[0] == "result=budget-exceeded"
        assert "above the limit of 1000000" in out

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


# 2000 actions in one left-deep chain, far longer than the recursion limit:
# parsing, hashing, comparing and printing it all run on explicit stacks.
FLAT_LICENSE = " ".join(["bot"] * 2000)


def deep_license(depth: int) -> str:
    return "(" * depth + "pay[1.00] bot*" + ")" * depth


class TestDeepInput:
    """Formulas and licenses of any nesting depth, and flat licenses of any
    length, are decided."""

    @pytest.mark.parametrize(
        "text", ["(" * 300 + "true" + ")" * 300, "X " * 1000 + "true"]
    )
    def test_deep_formula_is_decided(self, tmp_path, capsys, text):
        path = write(tmp_path, "f.lic", text)
        code, out = invoke(capsys, "sat", path)
        assert code == 0
        assert out.splitlines()[0] == "result=sat"
        code, out = invoke(capsys, "translate-ltl", "--with-restrictions", path)
        assert code == 0
        assert out.splitlines()[0] == "result=ok"

    @pytest.mark.parametrize("depth", [300, 1000])
    def test_deep_license_is_decided(self, tmp_path, capsys, depth):
        lic = deep_license(depth)
        code, out = invoke(capsys, "sat", write(tmp_path, "f.lic", f"issue(n, {lic}) & O(pay[1.00], n)"))
        assert code == 0
        assert out.splitlines()[:3] == ["result=sat", "witness run:", "@0 issue n = pay[1.00] bot*"]
        run = write(tmp_path, "r.run", f"@0 issue n = {lic}\n@0 do n pay[1.00]\n")
        code, out = invoke(capsys, "permissions", run)
        assert code == 0
        assert out.splitlines() == [
            "result=ok",
            "t=0 n=n permits={pay[1.00]} obligated=pay[1.00]",
        ]
        with mock.patch("sys.stdin", io.StringIO(f"issue m {lic}\nshow\nquit\n")):
            code, out = invoke(capsys, "step", run)
        assert code == 0
        assert "issued m at t=1" in out
        assert "  n=m permits={pay[1.00]} obligated=pay[1.00]" in out.splitlines()

    def test_flat_license_is_decided(self, tmp_path, capsys):
        code, out = invoke(capsys, "sat", write(tmp_path, "f.lic", f"issue(n, {FLAT_LICENSE})"))
        assert code == 0
        assert out.splitlines() == ["result=sat", "witness run:", f"@0 issue n = {FLAT_LICENSE}"]
        run = write(tmp_path, "r.run", f"@0 issue n = {FLAT_LICENSE}\n")
        code, out = invoke(capsys, "permissions", run)
        assert code == 0
        assert out.splitlines() == ["result=ok", "t=0 n=n permits={bot} obligated=bot"]
        with mock.patch("sys.stdin", io.StringIO(f"issue m {FLAT_LICENSE}\nshow\nquit\n")):
            code, out = invoke(capsys, "step", run)
        assert code == 0
        assert "issued m at t=1" in out
        assert "  n=m permits={bot} obligated=bot" in out.splitlines()

    def test_recursion_error_is_a_usage_error(self, tmp_path, capsys):
        # No known input recurses; should one, the command and the session
        # report it and the session goes on.
        path = write(tmp_path, "f.lic", "true")
        with mock.patch.object(cli, "lic_sat", side_effect=RecursionError):
            code, out = invoke(capsys, "sat", path)
        assert code == 2
        assert out.splitlines() == ["result=error", NESTED_TOO_DEEPLY]
        run = write(tmp_path, "r.run", "")
        script = io.StringIO("issue n pay[1.00]\neval true\nshow\nquit\n")
        with mock.patch("sys.stdin", script), mock.patch.object(repl, "evaluate", side_effect=RecursionError):
            code, out = invoke(capsys, "step", run)
        assert code == 0
        lines = out.splitlines()
        assert f"lict> error: {NESTED_TOO_DEEPLY}" in lines
        assert "  n=n permits={pay[1.00]} obligated=pay[1.00]" in lines

    def test_encoding_at_horizon_1000_holds_on_its_run(self, tmp_path, capsys):
        run_path = write(tmp_path, "r.run", "@0 issue n = pay[1.00] bot*\n@0 do n pay[1.00]\n@1000 do n bot\n")
        code, out = invoke(capsys, "encode-run", run_path)
        assert code == 0
        encoding = write(tmp_path, "e.lic", "\n".join(out.splitlines()[1:]))
        code, out = invoke(capsys, "check-spec", run_path, encoding, "--at", "0")
        assert code == 0
        assert out.splitlines()[0] == "result=holds"


# a time past the largest length a list can have
HUGE_TIME = "99999999999999999999"


class TestTooLarge:
    """Numbers too large to lay a run out are one error, exit 2, never a traceback."""

    def test_a_huge_time_in_a_run(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", f"@0 issue n = bot*\n@{HUGE_TIME} do n bot\n")
        prop = write(tmp_path, "p.lic", "P(bot, n)")
        for argv in (("permissions", run), ("check-spec", run, prop), ("encode-run", run)):
            assert invoke(capsys, *argv) == (2, f"result=error\n{TOO_LARGE}\n"), argv

    def test_a_huge_horizon(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", "@0 issue n = bot*\n")
        assert invoke(capsys, "permissions", "--horizon", HUGE_TIME, run) == (2, f"result=error\n{TOO_LARGE}\n")

    def test_memory_error_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "f.lic", "true")
        with mock.patch.object(cli, "lic_sat", side_effect=MemoryError):
            assert invoke(capsys, "sat", path) == (2, f"result=error\n{TOO_LARGE}\n")

    def test_show_at_a_huge_time_session_continues(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", f"@0 issue n = bot*\n@{HUGE_TIME} do n bot\n")
        script = io.StringIO("show\nissue m bot*\neval true\nundo\nquit\n")
        with mock.patch("sys.stdin", script):
            code, out = invoke(capsys, "step", run)
        assert code == 0
        lines = out.splitlines()
        assert lines.count(f"lict> error: {TOO_LARGE}") == 2
        assert f"lict> issued m at t={int(HUGE_TIME) + 1}" in lines
        assert "lict> undone" in lines

    def test_a_memory_error_in_the_session(self, tmp_path, capsys):
        run = write(tmp_path, "r.run", "")
        script = io.StringIO("issue n pay[1.00]\neval true\nshow\nquit\n")
        with mock.patch("sys.stdin", script), mock.patch.object(repl, "evaluate", side_effect=MemoryError):
            code, out = invoke(capsys, "step", run)
        assert code == 0
        lines = out.splitlines()
        assert f"lict> error: {TOO_LARGE}" in lines
        assert "  n=n permits={pay[1.00]} obligated=pay[1.00]" in lines


class _ClosedAfter(io.StringIO):
    """A standard output whose reader goes away after ``limit`` characters."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def write(self, text: str) -> int:
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


class TestClosedPipe:
    """A reader that stops early ends the output, not the command: no traceback, its own exit code."""

    LONG_RUN = "@0 issue n = bot*\n" + "".join(f"@{t} do n bot\n" for t in range(1, 20000))

    @pytest.mark.parametrize("json_format", [False, True])
    def test_main_returns_the_command_code(self, tmp_path, capsys, json_format):
        run = write(tmp_path, "long.run", self.LONG_RUN)
        stream = _ClosedAfter(100)
        with contextlib.redirect_stdout(stream):
            code = main(["--format=json"] * json_format + ["permissions", run])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert json_format or stream.getvalue() == "result=ok\n"

    def test_the_entry_point_exits_with_the_command_code(self, tmp_path):
        run = write(tmp_path, "long.run", self.LONG_RUN)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stream, contextlib.redirect_stdout(stream), \
                mock.patch("sys.argv", ["lict", "permissions", run]), pytest.raises(SystemExit) as exit_info:
            cli.entry_point()
        assert exit_info.value.code == 0

    def test_a_pipe_closed_after_the_first_line(self, tmp_path):
        run = write(tmp_path, "long.run", self.LONG_RUN)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "lict.cli", "permissions", run],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = child.stdout.readline()
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (first, child.returncode, err) == (b"result=ok\n", 0, b"")


def invoke_ascii(*argv) -> tuple[int, str]:
    """Run a command whose standard output can only encode ASCII."""
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="ascii")
    with contextlib.redirect_stdout(stream):
        code = main(list(argv))
    stream.flush()
    return code, raw.getvalue().decode("ascii")


class TestNonAsciiFiles:
    """A character outside the grammar is a parse error at its line and
    column, whatever the file's bytes and the output's encoding."""

    def write_bytes(self, tmp_path, name, data: bytes) -> str:
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    def test_sat_of_a_non_ascii_name(self, tmp_path):
        path = self.write_bytes(tmp_path, "f.lic", "P(bot, n\u00e9)".encode("utf-8"))
        code, out = invoke_ascii("sat", path)
        assert code == 2
        assert out.splitlines() == ["result=error", "unexpected character '\\xe9' (line 1, column 9)"]
        code, out = invoke_ascii("--format=json", "sat", path)
        assert code == 2
        assert json.loads(out)["detail"] == "unexpected character '\u00e9' (line 1, column 9)"

    def test_sat_of_a_byte_that_is_not_utf8(self, tmp_path):
        path = self.write_bytes(tmp_path, "f.lic", b"P(bot,\n n\xff)")
        code, out = invoke_ascii("sat", path)
        assert code == 2
        assert out.splitlines() == ["result=error", "unexpected character '\\ufffd' (line 2, column 3)"]

    def test_check_spec_of_a_non_ascii_run(self, tmp_path):
        run = self.write_bytes(tmp_path, "r.run", "@0 issue n = bot*\n@1 do n\u00e9 bot\n".encode("utf-8"))
        formula = self.write_bytes(tmp_path, "f.lic", b"P(bot, n)")
        code, out = invoke_ascii("check-spec", run, formula)
        assert code == 2
        assert "unexpected character '\\xe9' (line 2, column 8)" in out

    def test_check_spec_of_a_formula_byte_that_is_not_utf8(self, tmp_path):
        run = self.write_bytes(tmp_path, "r.run", b"@0 issue n = bot*\n")
        formula = self.write_bytes(tmp_path, "f.lic", b"# \xc3\n P(bot, n) & \xc3(")
        code, out = invoke_ascii("check-spec", run, formula)
        assert code == 2
        assert "unexpected character '\\ufffd' (line 2, column 14)" in out

    def test_a_utf8_output_shows_the_character(self, tmp_path, capsys):
        path = self.write_bytes(tmp_path, "f.lic", "P(bot, n\u00e9)".encode("utf-8"))
        code, out = invoke(capsys, "sat", path)
        assert code == 2
        assert "unexpected character '\u00e9' (line 1, column 9)" in out


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

    @pytest.mark.parametrize(
        "variant, argv",
        [
            ("", ("permissions", "{run}")),
            ("-dump-nfa", ("permissions", "{run}", "--dump-nfa")),
            ("-horizon-40", ("permissions", "{run}", "--horizon", "40")),
            ("-json", ("--format=json", "permissions", "{run}")),
        ],
    )
    @pytest.mark.parametrize("sample", _samples(".run"))
    def test_permissions(self, capsys, sample, variant, argv):
        run = os.path.join(SAMPLES, f"{sample}.run")
        code, out = invoke(capsys, *(part.format(run=run) for part in argv))
        assert code == 0
        assert out == self.expected(f"permissions-{sample}{variant}.txt")

    @pytest.mark.parametrize("sample", _samples(".run"))
    def test_encode_run(self, capsys, sample):
        code, out = invoke(capsys, "encode-run", os.path.join(SAMPLES, f"{sample}.run"))
        assert code == 0
        assert out == self.expected(f"encode-run-{sample}.txt")

    def test_encode_run_with_repeating_states(self, tmp_path, capsys):
        code, out = invoke(capsys, "encode-run", write(tmp_path, "r.run", repeating_run_text()))
        assert code == 0
        assert out == self.expected("encode-run-repeating-300.txt")

    @pytest.mark.parametrize("sample", _samples(".dr"))
    def test_compile_dr(self, capsys, sample):
        code, out = invoke(capsys, "compile-dr", os.path.join(SAMPLES, f"{sample}.dr"))
        assert code == 0
        assert out == self.expected(f"compile-dr-{sample}.txt")

    def test_compile_dr_exactly_peruse(self, tmp_path, capsys):
        code, out = invoke(capsys, "compile-dr", write(tmp_path, "l.dr", EXACTLY_PERUSE_7))
        assert code == 0
        assert out == self.expected("compile-dr-exactly-peruse-7.txt")

    @pytest.mark.parametrize("name", ["flatrate", "peruse", "exactly-peruse-7"])
    def test_compile_dr_golden_parses_to_the_dr_language(self, name):
        if name == "exactly-peruse-7":
            entry = parse_dr(EXACTLY_PERUSE_7)
        else:
            with open(os.path.join(SAMPLES, f"{name}.dr"), encoding="ascii") as handle:
                entry = parse_dr(handle.read())
        lic = parse_compiled(self.expected(f"compile-dr-{name}.txt").split("\n")[1])
        if entry.schedule == "peruse" and isinstance(entry.repetition, Exactly):
            # a peruse period is a union, so each is parenthesised and parses
            # back whole: count equal periods in a row.  Checking one checks
            # them all, where enumerating 2 x 7 units would take 531 441 traces.
            periods = []
            for _ in range(entry.repetition.count - 1):
                lic, last = lic.left, lic.right
                periods.append(last)
            assert all(period == lic for period in periods)
            entry = replace(entry, repetition=Single(entry.period))
        assert traces(lic, entry.total_units) == dr_traces(entry)

    def test_parse_errors(self, tmp_path, capsys):
        blocks = []
        for case, command, name, text in PARSE_ERROR_CASES:
            code, out = invoke(capsys, *command, write(tmp_path, name, text))
            assert code == 2
            blocks.append(f"# {case}: lict {' '.join(command)} {name}\n{out}")
        assert "".join(blocks) == self.expected("parse-errors.txt")


EXACTLY_PERUSE_7 = "for 2 7 pay 1.50 peruse for {w,v} on {d}"


def memoised_run_text() -> str:
    """A run file whose line 500 is malformed after 498 lines of one repeated tail."""
    lines = ["@0 issue n = (bot | pay[1.00])*"]
    lines += [f"@{t} do n bot" for t in range(1, 499)]
    lines.append("@499 do n pay[1.00]]")
    return "\n".join(lines) + "\n"


# (case, command, input file, text): malformed inputs whose result=error
# output is pinned, so where an error is reported cannot move.
PARSE_ERROR_CASES = [
    ("run-line-500", ("permissions",), "line500.run", memoised_run_text()),
    ("run-reserved-device", ("permissions",), "device.run", "@0 issue n = render[w,bot]\n"),
    ("run-reserved-device-json", ("--format=json", "permissions"), "device.run", "@0 issue n = render[w,bot]\n"),
    ("run-time-not-natural", ("encode-run",), "time.run", "@0 do n bot\n@1.5 do n bot\n"),
    ("run-no-at", ("permissions",), "at.run", "# plan\n  do n bot\n"),
    ("run-unclosed-after-comments", ("permissions",), "open.run", "# a\n\n@0 issue n = (bot | pay[2.50]\n@1 do n bot\n"),
    ("run-form-feed", ("permissions",), "feed.run", "@0 issue n = bot*\n@1 do n bot\x0c\n"),
    ("run-two-actions", ("permissions",), "twice.run", "@0 issue n = bot*\n@1 do n bot\n@1 do n bot\n"),
    ("bad-character-after-grammar-error", ("sat",), "late.lic", "issue(n, bot |) & (bot, n) $"),
    ("long-license-three-fraction-digits", ("sat",), "long.lic",
     "issue(n, " + " ".join(["pay[1.00] bot* (render[w,d] | bot)"] * 60) + " pay[1.234])"),
    ("comment-ends-input", ("sat",), "comment.lic", "(bot, n) &\n  # nothing follows"),
    ("complement-obligation", ("valid",), "oblig.lic", "G (P(bot, n) -> O(~bot, n))"),
    ("formula-missing-comma", ("translate-ltl",), "comma.lic", "G (\n  (pay[1.00], n) ->\n  F (render[w,d] n))"),
    ("dr-unknown-schedule", ("compile-dr",), "monthly.dr", "for 2 pay 1.00 monthly for {w} on {d}"),
    ("dr-upto-one-number", ("compile-dr",), "upto.dr", "for upto 2 pay 1.00 upfront for {w} on {d}"),
]


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


class TestParserOnce:
    """``main`` builds its argument parser once and reuses it on every call."""

    def test_two_calls_share_one_parser(self, capsys):
        parse_args = argparse.ArgumentParser.parse_args
        with mock.patch.object(
            argparse.ArgumentParser, "parse_args", autospec=True, side_effect=parse_args
        ) as spy:
            invoke(capsys, "sat", os.path.join(SAMPLES, "prop1.lic"))
            invoke(capsys, "encode-run", os.path.join(SAMPLES, "journal.run"))
        first, second = (call.args[0] for call in spy.call_args_list)
        assert first is second is cli.build_parser()

    def test_usage_error_leaves_the_next_call_unchanged(self, capsys):
        argv = ["check-spec", "--at", "1", os.path.join(SAMPLES, "journal.run"),
                os.path.join(SAMPLES, "journal-property.lic")]
        before = invoke(capsys, *argv)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["--format", "json", "check-spec", "--at", "soon", argv[3], argv[4]]) == 2
            assert main(["sat", "--budget", "5"]) == 2
            assert main(["no-such-command"]) == 2
        capsys.readouterr()
        assert invoke(capsys, *argv) == before

    def test_json_after_a_plain_call(self, capsys):
        path = os.path.join(SAMPLES, "prop1.lic")
        plain = invoke(capsys, "valid", path)
        code, out = invoke(capsys, "--format", "json", "valid", path)
        payload = json.loads(out)
        assert code == plain[0]
        assert payload["command"] == "valid"
        assert f"result={payload['result']}" == plain[1].splitlines()[0]
        assert invoke(capsys, "valid", path) == plain


class TestRepl:
    def run_session(self, script: str, base: str = "") -> str:
        out = io.StringIO()
        step_repl(parse_run(base), io.StringIO(script), out)
        return out.getvalue()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(base=st.sampled_from(["", "@0 issue n = bot*", "@0 issue n = bot*\n@3 do n bot", "@2 issue k = bot*"]),
           edits=st.lists(st.tuples(st.sampled_from(["issue", "do", "undo"]), st.sampled_from(["n", "m"])),
                          max_size=20))
    def test_every_recorded_action_lies_before_the_clock(self, base, edits):
        session = ReplSession(parse_run(base))
        lic = parse_license("bot*")
        for kind, name in edits:
            if kind == "issue":
                try:
                    session.issue(name, lic)
                except ValueError:  # a name reused
                    continue
            elif kind == "do":
                session.do(name, Pay(Decimal(1)))
            else:
                session.undo()
            run = session.current_run()  # raises on an edit a run refuses
            assert all(t < session.time for t, _, _ in run.actions)
            assert len(run.actions) == len(session.base.actions) + sum(
                event[0] == "do" for event in session.events)

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

    def test_deep_and_flat_inputs_session_continues(self):
        deep = "(" * 300 + "true" + ")" * 300
        out = self.run_session(
            f"issue n pay[1.00]\neval {deep}\nissue k {deep_license(1000)}\nshow\n"
            f"issue m {FLAT_LICENSE}\nshow\nundo\nshow\nquit\n"
        )
        assert "lict> true" in out
        assert "issued k at t=0" in out
        assert "  n=k permits={pay[1.00]} obligated=pay[1.00]" in out.splitlines()
        assert "issued m at t=0" in out
        assert "  n=m permits={bot} obligated=bot" in out.splitlines()
        assert "error" not in out
        after_undo = out.split("undone")[1]
        assert after_undo.count("n=n permits={pay[1.00]} obligated=pay[1.00]") == 1
        assert "n=m" not in after_undo

    def test_non_ascii_digit_session_continues(self, tmp_path, capsys):
        path = write(tmp_path, "empty.run", "")
        script = "issue n pay[1.00]\ndo n pay[\u00b2]\nshow\nquit\n"
        with mock.patch("sys.stdin", io.StringIO(script)):
            code, out = invoke(capsys, "step", path)
        assert code == 0
        assert "error: unexpected character '\u00b2' (line 1, column 5)" in out
        assert "n=n permits={pay[1.00]} obligated=pay[1.00]" in out

    def test_ascii_output_escapes_and_session_continues(self):
        raw = io.BytesIO()
        out = io.TextIOWrapper(raw, encoding="ascii")
        step_repl(parse_run(""), io.StringIO("do n pay[\u00b2]\nshow\n"), out)
        out.flush()
        lines = raw.getvalue().decode("ascii").splitlines()
        assert lines[1] == "lict> error: unexpected character '\\xb2' (line 1, column 5)"
        assert lines[2:] == ["lict> t=0", "  (nothing issued)", "lict> "]
