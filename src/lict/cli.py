"""Command-line front end.

Exit codes: 0 the property holds / formula satisfiable / valid / success,
1 fails / unsat / invalid, 2 usage or parse error, 3 budget exceeded.
Every command but ``step`` prints one machine-readable ``result=...`` line
first, then human-readable detail; ``step`` prints it after the session, on
a line of its own.  ``--format=json`` emits a single structured object instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .automata import dump_dot, mask_actions, padded_nfa
from .digitalrights import DEFAULT_DR_CAP, DrCapExceeded, compile_dr
from .formulas import check_spec, encode_run, evaluate, pretty_formula
from .licenses import pretty_license
from .licsat import lic_sat, lic_valid
from .ltl import SubsetLimitExceeded, implicit_restrictions, translate
from .parsing import ParseError, parse_dr, parse_formula, parse_run
from .repl import NESTED_TOO_DEEPLY, TOO_LARGE, printable, step_repl
from .runs import compute_permissions, permission_line, pretty_run
from .tableau import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Outcome:
    def __init__(self, result: str, exit_code: int, detail: str = "", counterexample: str | None = None):
        self.result = result
        self.exit_code = exit_code
        self.detail = detail
        self.counterexample = counterexample


def _read(path: str) -> str:
    # A byte that is not UTF-8 becomes U+FFFD, which the lexer, like any
    # character outside its ASCII grammar, rejects at its line and column.
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _print(text: str) -> None:
    """Print, escaping what the output's encoding cannot represent."""
    print(printable(text, sys.stdout))


def permissions_lines(run, horizon: int) -> list[str]:
    perms = compute_permissions(run)
    columns = []  # per name, its row at each time
    for name in sorted(run.names):
        letters, column = perms.permitted_masks(name, horizon + 1)
        rows = {mask: permission_line(name, mask_actions(letters, mask)) for mask in set(column)}
        columns.append([rows[mask] for mask in column])
    return [f"t={t} {row}" for t, rows_at in enumerate(zip(*columns)) for row in rows_at]


def _cmd_check_spec(args) -> _Outcome:
    run = parse_run(_read(args.run_file))
    formula = parse_formula(_read(args.formula_file))
    if args.at is not None:
        holds = evaluate(run, compute_permissions(run), args.at, formula)
        detail = f"formula {'holds' if holds else 'fails'} at time {args.at}"
    else:
        holds = check_spec(run, formula)
        detail = f"formula {'holds' if holds else 'fails'} at every time of the run"
    return _Outcome("holds" if holds else "fails", EXIT_OK if holds else EXIT_FAIL, detail)


def _cmd_permissions(args) -> _Outcome:
    run = parse_run(_read(args.run_file))
    horizon = args.horizon if args.horizon is not None else run.horizon
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative; the model starts at time 0")
    lines = permissions_lines(run, horizon)
    if args.dump_nfa:
        for time, name, lic in run.issuances:
            lines.append(dump_dot(padded_nfa(lic), title=f"{name}@{time}"))
    return _Outcome("ok", EXIT_OK, "\n".join(lines))


def _nonnegative(option: str, value: int) -> int:
    """An option's value, refused as a usage error when it is negative."""
    if value < 0:
        raise ValueError(f"{option} {value} is negative")
    return value


def _cmd_sat(args) -> _Outcome:
    budget = _nonnegative("--budget", args.budget)
    report = lic_sat(parse_formula(_read(args.formula_file)), budget=budget)
    if report.status == "budget":
        return _Outcome("budget-exceeded", EXIT_BUDGET, "the search exceeded its budget")
    if report.status == "unsat":
        return _Outcome("unsat", EXIT_FAIL, "no finite run satisfies the formula")
    witness = pretty_run(report.run)
    detail = "witness run:\n" + (witness if witness else "(the empty run)")
    return _Outcome("sat", EXIT_OK, detail, counterexample=None)


def _cmd_valid(args) -> _Outcome:
    budget = _nonnegative("--budget", args.budget)
    report = lic_valid(parse_formula(_read(args.formula_file)), budget=budget)
    if report.status == "budget":
        return _Outcome("budget-exceeded", EXIT_BUDGET, "the search exceeded its budget")
    if report.status == "valid":
        return _Outcome("valid", EXIT_OK, "the formula holds in every run at every time")
    counterexample = pretty_run(report.counterexample)
    detail = "counterexample run:\n" + (counterexample if counterexample else "(the empty run)")
    return _Outcome("invalid", EXIT_FAIL, detail, counterexample=counterexample)


def _cmd_compile_dr(args) -> _Outcome:
    cap = _nonnegative("--cap", args.cap)
    lic = compile_dr(parse_dr(_read(args.dr_file)), cap=cap)
    return _Outcome("ok", EXIT_OK, pretty_license(lic))


def _cmd_encode_run(args) -> _Outcome:
    run = parse_run(_read(args.run_file))
    return _Outcome("ok", EXIT_OK, pretty_formula(encode_run(run)))


def _cmd_translate_ltl(args) -> _Outcome:
    formula = parse_formula(_read(args.formula_file))
    text = pretty_formula(translate(formula))
    if args.with_restrictions:
        text += "\n" + pretty_formula(implicit_restrictions(formula))
    return _Outcome("ok", EXIT_OK, text)


def _cmd_step(args) -> _Outcome:
    run = parse_run(_read(args.run_file))
    step_repl(run, sys.stdin, sys.stdout)
    return _Outcome("ok", EXIT_OK, "")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; later calls return the same one."""
    parser = argparse.ArgumentParser(
        prog="lict",
        description="Verify digital-rights licenses: permissions, specs, satisfiability.",
    )
    parser.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check-spec", help="check a formula against a run")
    check.add_argument("run_file")
    check.add_argument("formula_file")
    check.add_argument("--at", type=int, default=None, help="check at one time only")
    check.set_defaults(handler=_cmd_check_spec)

    perms = commands.add_parser("permissions", help="dump permitted/obligated actions")
    perms.add_argument("run_file")
    perms.add_argument("--horizon", type=int, default=None, help="last time to dump")
    perms.add_argument("--dump-nfa", action="store_true", help="also dump license automata as DOT")
    perms.set_defaults(handler=_cmd_permissions)

    sat = commands.add_parser("sat", help="decide satisfiability of a formula")
    sat.add_argument("formula_file")
    sat.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sat.set_defaults(handler=_cmd_sat)

    valid = commands.add_parser("valid", help="decide validity of a formula")
    valid.add_argument("formula_file")
    valid.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    valid.set_defaults(handler=_cmd_valid)

    dr = commands.add_parser("compile-dr", help="compile a DR license to a regular one")
    dr.add_argument("dr_file")
    dr.add_argument("--cap", type=int, default=DEFAULT_DR_CAP, help="largest time span to compile")
    dr.set_defaults(handler=_cmd_compile_dr)

    enc = commands.add_parser("encode-run", help="encode a run as a formula")
    enc.add_argument("run_file")
    enc.set_defaults(handler=_cmd_encode_run)

    trans = commands.add_parser("translate-ltl", help="translate a formula to the target logic")
    trans.add_argument("formula_file")
    trans.add_argument(
        "--with-restrictions",
        action="store_true",
        help="also emit the implicit run restrictions",
    )
    trans.set_defaults(handler=_cmd_translate_ltl)

    step = commands.add_parser("step", help="interactively extend a run")
    step.add_argument("run_file")
    step.set_defaults(handler=_cmd_step)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        outcome = args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        if isinstance(exc, (DrCapExceeded, SubsetLimitExceeded)):
            outcome = _Outcome("budget-exceeded", EXIT_BUDGET, str(exc))
        else:
            outcome = _Outcome("error", EXIT_USAGE, str(exc))
    except RecursionError:
        outcome = _Outcome("error", EXIT_USAGE, NESTED_TOO_DEEPLY)
    except (OverflowError, MemoryError):
        outcome = _Outcome("error", EXIT_USAGE, TOO_LARGE)
    try:
        if args.format == "json":
            payload = {"command": args.command, "result": outcome.result, "detail": outcome.detail}
            if outcome.counterexample is not None:
                payload["counterexample"] = outcome.counterexample
            print(json.dumps(payload))
        else:
            _print(f"result={outcome.result}")
            if outcome.detail:
                _print(outcome.detail)
    except BrokenPipeError:
        pass  # the reader has stopped reading, which ends the output, not the command
    return outcome.exit_code


def entry_point() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered has no reader: send it nowhere, not to a failing flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
