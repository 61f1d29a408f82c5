"""The four workloads: each pass is a fixed list of operation shapes.

An operation is the argument list a user would type for ``lict``, the input
files it reads, and a check of its exit code and output against a known
answer.  ``build(workload, seed, pass_index)`` gives one pass; every pass of
one seed has the same shapes (same run behaviours, horizons, formula sizes)
under fresh names and amounts.  Each pass has an odd number of operations,
so the median operation of a run always falls on one shape.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import families as fam
import syntax

WORKLOADS = ("monitor", "encode", "decide-names", "decide-temporal")


class CheckFailed(AssertionError):
    """An operation's output disagrees with its known answer."""


@dataclass
class Op:
    shape: str
    argv: list
    files: dict  # file name -> text, written before the operation
    check: object  # check(code, out, verify) -> verdict or None
    parts: tuple = ()  # shapes of the conjuncts, for conjunction ops
    verdict: object = field(default=None, init=False)


def build(workload: str, seed: int, pass_index: int) -> list[Op]:
    fresh = fam.Fresh(seed, pass_index)
    return {
        "monitor": _monitor,
        "encode": _encode,
        "decide-names": _decide_names,
        "decide-temporal": _decide_temporal,
    }[workload](seed, fresh)


def check_pass(ops: list[Op]) -> None:
    """A conjunction over distinct names is sat (valid) iff every conjunct is.

    Operations without a verdict (they failed, or their check did) are left
    out; they are counted elsewhere.
    """
    verdicts = {op.shape: op.verdict for op in ops}
    for op in ops:
        known = [verdicts[p] for p in op.parts]
        if not known or op.verdict is None or None in known:
            continue
        if op.verdict != all(known):
            raise CheckFailed(f"{op.shape}: verdict {op.verdict} disagrees with its conjuncts")


def _rng(seed: int, shape: str) -> random.Random:
    return random.Random(f"{seed}:{shape}")


def _result(out: str, code: int, expected: str, expected_code: int) -> list[str]:
    lines = out.splitlines()
    if not lines or lines[0] != f"result={expected}" or code != expected_code:
        head = lines[0] if lines else "(no output)"
        raise CheckFailed(f"expected result={expected} exit {expected_code}, got {head} exit {code}")
    return lines[1:]


# ---------------------------------------------------------------------------
# monitor: check-spec and permissions over generated runs

# (shape, command, horizon, journals, mortgage months, planted fault).
# Costs rise from top to bottom, and permissions-1000 sits between
# operations at least half again as cheap and twice as dear, so the median
# operation of a run is always that shape.
MONITOR_SHAPES = (
    ("response-300-unread", "response", 300, 2, 12, "unread"),
    ("permissions-500", "permissions", 500, 2, 20, None),
    ("comply-300-violated", "comply", 300, 2, 10, "violation"),
    ("permissions-1000-violated", "permissions", 1000, 2, 30, "violation"),
    ("comply-600", "comply", 600, 2, 16, None),
    ("response-200", "response", 200, 2, 0, None),
    ("response-300", "response", 300, 2, 10, None),
)


def _monitor(seed, fresh):
    ops = []
    for shape, command, horizon, journals, months, plant in MONITOR_SHAPES:
        case = fam.monitor_case(_rng(seed, shape), fresh, horizon, journals, months, plant)
        run_file = f"{shape}.run"
        if command == "permissions":
            ops.append(Op(shape, ["permissions", run_file], {run_file: case.text()},
                          _permissions_check(case)))
            continue
        if command == "response":
            spec, holds = fam.response_spec(case), fam.response_holds(case)
        else:
            spec, holds = fam.compliance_spec(case), fam.compliance_holds(case)
        if holds != (plant is None):
            raise CheckFailed(f"{shape}: the generator did not plant what it was asked")
        spec_file = f"{shape}.lic"
        ops.append(Op(shape, ["check-spec", run_file, spec_file],
                      {run_file: case.text(), spec_file: spec}, _verdict_check(holds)))
    return ops


def _verdict_check(holds: bool):
    def check(code, out, verify):
        _result(out, code, "holds" if holds else "fails", 0 if holds else 1)
        return holds

    return check


_PERMISSION_LINE = re.compile(r"t=(\d+) n=(\w+) permits=\{(.*)\} obligated=(\S+)$")
_ACTION = re.compile(r"pay\[[^\]]*\]|render\[[^\]]*\]|bot")


def _permissions_check(case):
    def check(code, out, verify):
        lines = _result(out, code, "ok", 0)
        table = case.permitted_table(case.horizon)
        if len(lines) != len(table):
            raise CheckFailed(f"{len(lines)} permission lines for {len(table)} (time, name) pairs")
        for line in lines:
            match = _PERMISSION_LINE.match(line)
            if match is None:
                raise CheckFailed(f"unreadable permission line {line!r}")
            t, name, permits, obligated = match.groups()
            expected = table.get((int(t), name))
            permitted = frozenset(_ACTION.findall(permits))
            if permitted != expected:
                raise CheckFailed(f"t={t} {name}: permits {sorted(permitted)}, expected {sorted(expected)}")
            sole = next(iter(expected)) if len(expected) == 1 else "none"
            if obligated != sole:
                raise CheckFailed(f"t={t} {name}: obligated {obligated}, expected {sole}")
        return None

    return check


# ---------------------------------------------------------------------------
# encode: encode-run and compile-dr

ENCODE_HORIZONS = (150, 300, 600, 900)

# (shape, repetition, count, period, schedule, works, devices)
DR_SHAPES = (
    ("peruse-10", "single", 1, 10, "peruse", 2, 1),
    ("upfront-6x8", "exactly", 6, 8, "upfront", 2, 1),
    ("flatrate-12x5", "exactly", 12, 5, "flatrate", 1, 2),
    ("flatrate-upto-4x6", "upto", 4, 6, "flatrate", 1, 1),
    ("peruse-upto-3x7", "upto", 3, 7, "peruse", 1, 1),
)
DR_SAMPLES = 8


def _encode(seed, fresh):
    ops = []
    for horizon in ENCODE_HORIZONS:
        shape = f"encode-{horizon}"
        case = fam.encode_case(_rng(seed, shape), fresh, horizon)
        run_file = f"{shape}.run"
        ops.append(Op(shape, ["encode-run", run_file], {run_file: case.text()}, _encoding_check(case)))
    for role, (shape, repetition, count, period, schedule, works, devices) in enumerate(DR_SHAPES):
        case = fam.DrCase(
            repetition, count, period, fresh.amount(role + 1)[4:-1], schedule,
            tuple(fresh.work(k) for k in range(works)), tuple("de"[:devices]),
        )
        dr_file = f"{shape}.dr"
        ops.append(Op(shape, ["compile-dr", dr_file], {dr_file: case.text()},
                      _compiled_check(case, _rng(seed, shape))))
    return ops


def _encoding_check(case):
    def check(code, out, verify):
        lines = _result(out, code, "ok", 0)
        acts, issues, idles = syntax.encoding_facts(syntax.formula_tree("\n".join(lines)))
        names = {h.name for h in case.holders}
        expected_acts = {(t, h.name): h.action(t) for h in case.holders for t in range(case.horizon + 1)}
        if acts != expected_acts:
            wrong = sorted(set(acts.items()) ^ set(expected_acts.items()))[:3]
            raise CheckFailed(f"encoding pins down other actions, e.g. {wrong}")
        expected_issues = {
            h.name: (h.issued, syntax.parse_license_text(h.lic.text)) for h in case.holders
        }
        if issues != expected_issues:
            raise CheckFailed("encoding pins down other issuances")
        if idles != [(case.horizon + 1, frozenset(names))]:
            raise CheckFailed(f"encoding closes with {idles}, expected every name idle from {case.horizon + 1}")
        return None

    return check


def _compiled_check(case, rng):
    samples = [case.sample(rng, 0), case.sample(rng, case.period - 1)]
    samples += [case.sample(rng) for _ in range(DR_SAMPLES)]

    def check(code, out, verify):
        lines = _result(out, code, "ok", 0)
        tokens = syntax.tokenize("\n".join(lines))
        rpn, end = syntax.license_rpn(tokens)
        if end != len(tokens):
            raise CheckFailed("compiled license has trailing text")
        automaton = syntax.Glushkov(rpn)
        for periods in samples:
            trace = tuple(a for p in periods for a in p)
            if not automaton.accepts(trace):
                raise CheckFailed(f"compiled license rejects the scheduled trace {trace}")
            wrong = fam.wrong_payment(periods, case, rng)
            if automaton.accepts(wrong):
                raise CheckFailed(f"compiled license accepts the wrongly paid trace {wrong}")
        return None

    return check


# ---------------------------------------------------------------------------
# decide-names and decide-temporal: sat and valid with known answers


def _decide_op(shape, prop, parts=()):
    formula_file = f"{shape}.lic"

    def check(code, out, verify):
        if prop.role == "sat":
            lines = _result(out, code, "sat" if prop.answer else "unsat", 0 if prop.answer else 1)
            header, holds = "witness run:", True
        else:
            lines = _result(out, code, "valid" if prop.answer else "invalid", 0 if prop.answer else 1)
            header, holds = "counterexample run:", False
        if prop.answer == holds:
            if not lines or lines[0] != header:
                raise CheckFailed(f"expected {header!r}")
            run_text = "\n".join(lines[1:])
            if run_text == "(the empty run)":
                run_text = ""
            got_code, got = verify(["check-spec", "shown.run", formula_file, "--at", "0"],
                                   {"shown.run": run_text + "\n"})
            _result(got, got_code, "holds" if holds else "fails", 0 if holds else 1)
        return prop.answer

    return Op(shape, [prop.role, formula_file], {formula_file: prop.text}, check, tuple(parts))


def _decide_names(seed, fresh):
    """Chains of per-name properties over names 0, 1, 2 (k = 1..3)."""
    singles = {
        "read-0": fam.read_later(fresh, 0),
        "read-1": fam.read_later(fresh, 1),
        "read-2": fam.read_later(fresh, 2),
        "obliged-1": fam.obliged_read(fresh, 1),
        "idle-0": fam.idle_allowed(fresh, 0),
        "idle-1": fam.idle_allowed(fresh, 1),
        "idle-2": fam.idle_allowed(fresh, 2),
        "payread-1": fam.pay_or_read(fresh, 1),
        # Dearer than any other single name and cheaper than any
        # conjunction: the median operation of a run.
        "window-0": fam.late_window(fresh, 0),
    }
    chains = {
        "sat-all": ("read-0", "read-1", "read-2"),
        "sat-one-unsat": ("read-0", "obliged-1", "read-2"),
        "valid-all": ("idle-0", "idle-1", "idle-2"),
        "valid-one-invalid": ("idle-0", "payread-1", "idle-2"),
    }
    ops = [_decide_op(shape, prop) for shape, prop in singles.items()]
    for chain, members in chains.items():
        for k in (2, 3):
            parts = members[:k]
            prop = fam.conjunction(singles[p] for p in parts)
            ops.append(_decide_op(f"{chain}-k{k}", prop, parts))
    return ops


def _decide_temporal(seed, fresh):
    """One name: response conjunctions, until chains, obligation windows."""
    props = {
        "responses-2-sat": fam.responses(fresh, 2, "sat"),
        "responses-3-valid": fam.responses(fresh, 3, "valid"),
        "responses-4-unsat": fam.responses(fresh, 4, "unsat"),
        "responses-5-invalid": fam.responses(fresh, 5, "invalid"),
        "until-5-sat": fam.until_chain(fresh, 5, True),
        "until-4-unsat": fam.until_chain(fresh, 4, False),
        "window-sat": fam.mortgage_window(fresh, "sat"),
        "window-valid": fam.mortgage_window(fresh, "valid"),
        "window-invalid": fam.mortgage_window(fresh, "invalid"),
    }
    return [_decide_op(shape, prop) for shape, prop in props.items()]
