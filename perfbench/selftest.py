"""Checks the benchmark's known-answer generators against brute force.

    python3 perfbench/selftest.py

On small cases, and without lict:
- the hand-written license automata give exactly the actions that keep a
  history extendable to a complete, bot-padded trace, found by enumerating
  the license's traces;
- the DR schedule generator gives exactly the traces that the schedule's
  definition admits, found by enumerating every action sequence;
- planted monitor verdicts agree with evaluating the specs on the run;
- each decide family's verdict agrees with a search over all short runs.
Exits 1 on the first disagreement.
"""

from __future__ import annotations

import random
import sys
from itertools import product

import families as fam
import syntax

FOREIGN = "pay[99.99]"


def language(lic, max_len: int) -> set:
    """Complete traces of a license up to ``max_len``, by word enumeration."""
    automaton = syntax.Glushkov(syntax.license_rpn(syntax.tokenize(lic.text))[0])
    alphabet = lic.alphabet
    words = set()
    frontier = [()]
    for _ in range(max_len + 1):
        grown = []
        for word in frontier:
            if automaton.accepts(word):
                words.add(word)
            grown += [word + (a,) for a in alphabet]
        frontier = grown
    return words


def viable(history, traces) -> bool:
    """Some complete trace, padded with bot, extends the history."""
    for w in traces:
        n = min(len(w), len(history))
        if history[:n] == w[:n] and all(a == fam.BOT for a in history[len(w):]):
            return True
    return False


def check_automata() -> int:
    fresh = fam.Fresh(7, 0)
    licenses = [
        fam.Journal(fresh.amount(1), fresh.work(0)),
        fam.Mortgage(fresh.amount(1), fresh.amount(2), 1),
        fam.Mortgage(fresh.amount(1), fresh.amount(2), 2),
    ]
    checked = 0
    for lic in licenses:
        alphabet = lic.alphabet + (FOREIGN,)
        traces = language(lic, 7)
        for length in range(6):
            for history in product(alphabet, repeat=length):
                if not viable(history, traces):
                    continue
                state = fam.run_states(lic, history)[-1]
                expected = {a for a in alphabet if viable(history + (a,), traces)}
                if lic.permitted(state) != expected:
                    raise AssertionError(f"{lic.text} after {history}: automaton permits "
                                         f"{sorted(lic.permitted(state))}, brute force {sorted(expected)}")
                checked += 1
        # A history that is not viable leaves only bot.
        dead = fam.run_states(lic, (FOREIGN,))[-1]
        if lic.permitted(dead) != {fam.BOT}:
            raise AssertionError(f"{lic.text}: a violated license must permit only bot")
    return checked


def check_dr() -> int:
    fresh = fam.Fresh(7, 0)
    cases = [
        fam.DrCase("single", 1, 3, "2.00", "peruse", ("wa",), ("d",)),
        fam.DrCase("exactly", 2, 3, "2.00", "upfront", ("wa",), ("d",)),
        fam.DrCase("upto", 2, 2, "1.50", "flatrate", ("wa", "wb"), ("d",)),
        fam.DrCase("exactly", 2, 3, fresh.amount(3)[4:-1], "peruse", ("wa",), ("d",)),
    ]
    rng = random.Random(3)
    checked = 0
    for case in cases:
        pays = {case.payment(uses) for uses in range(case.period + 1)}
        alphabet = [fam.BOT] + case.renders() + sorted(pays)
        brute = set()
        for length in range(case.count * case.period + 1):
            brute |= {t for t in product(alphabet, repeat=length) if case.in_schedule(t)}
        if case.all_traces() != brute:
            raise AssertionError(f"{case.text()}: generator and definition differ")
        for _ in range(50):
            periods = case.sample(rng)
            trace = tuple(a for p in periods for a in p)
            if trace not in brute or fam.wrong_payment(periods, case, rng) in brute:
                raise AssertionError(f"{case.text()}: sample or wrong payment misplaced")
        checked += len(brute)
    return checked


def world_of(case):
    return fam.RunWorld(case, syntax.parse_license_text)


def holds_throughout(spec: str, world) -> bool:
    """``check-spec`` semantics: the spec holds at every time."""
    tree = syntax.formula_tree(spec)
    return all(syntax.evaluate(tree, world, t) for t in range(world.last + 1))


def check_planted() -> int:
    checked = 0
    for seed in range(40):
        fresh = fam.Fresh(seed, 3)
        for plant in (None, "unread", "violation"):
            rng = random.Random(f"{seed}:{plant}")
            case = fam.monitor_case(rng, fresh, 45 + seed % 7, 2, 4 + seed % 3, plant)
            world = world_of(case)
            if holds_throughout(fam.response_spec(case), world) != fam.response_holds(case):
                raise AssertionError(f"seed {seed} plant {plant}: response verdict differs")
            if holds_throughout(fam.compliance_spec(case), world) != fam.compliance_holds(case):
                raise AssertionError(f"seed {seed} plant {plant}: compliance verdict differs")
            expected = {None: (True, True), "unread": (False, True), "violation": (None, False)}[plant]
            if expected[0] is not None and fam.response_holds(case) != expected[0]:
                raise AssertionError(f"seed {seed}: plant {plant} changed the response verdict")
            if fam.compliance_holds(case) != expected[1]:
                raise AssertionError(f"seed {seed}: plant {plant} changed the compliance verdict")
            checked += 1
    return checked


def decide_families(fresh):
    props = [
        (fam.read_later(fresh, 0), fam.Journal(fresh.amount(1), fresh.work(0))),
        (fam.obliged_read(fresh, 0), fam.Journal(fresh.amount(1), fresh.work(0))),
        (fam.idle_allowed(fresh, 0), fam.Journal(fresh.amount(1), fresh.work(0))),
        (fam.pay_or_read(fresh, 0), fam.Journal(fresh.amount(1), fresh.work(0))),
    ]
    journal = fam.Journal(fresh.amount(1), fresh.work(0))
    for count, goal in ((2, "sat"), (3, "valid"), (4, "unsat"), (5, "invalid"), (5, "sat")):
        props.append((fam.responses(fresh, count, goal), journal))
    props += [(fam.until_chain(fresh, 5, True), journal), (fam.until_chain(fresh, 4, False), journal)]
    mortgage = fam.Mortgage(fresh.amount(1), fresh.amount(2), 2)
    props += [(fam.mortgage_window(fresh, goal), mortgage) for goal in ("sat", "valid", "invalid")]
    props.append((fam.late_window(fresh, 0), mortgage))
    return props


def check_decide(length: int = 5) -> int:
    fresh = fam.Fresh(11, 2)
    name = fresh.name(0)
    checked = 0
    for prop, lic in decide_families(fresh):
        tree = syntax.formula_tree(prop.text)
        alphabet = lic.alphabet + (FOREIGN,)
        found = None
        for actions in product(alphabet, repeat=length):
            holder = fam.Holder(name, lic, 0, {t: a for t, a in enumerate(actions) if a != fam.BOT})
            value = syntax.evaluate(tree, world_of(fam.RunCase(length, [holder])), 0)
            if value == (prop.role == "sat"):
                found = actions
                break
        answer = found is not None if prop.role == "sat" else found is None
        if answer != prop.answer:
            raise AssertionError(f"{prop.text}: known answer {prop.answer}, brute force {answer} ({found})")
        checked += 1
    return checked


def main() -> int:
    try:
        print(f"automata: {check_automata()} histories agree with brute-force viability")
        print(f"dr schedules: {check_dr()} traces agree with the schedule definition")
        print(f"planted runs: {check_planted()} runs keep their verdicts")
        print(f"decide families: {check_decide()} known answers agree with a search of short runs")
    except AssertionError as exc:
        print(f"MISMATCH {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
