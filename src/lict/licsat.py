"""Satisfiability and validity for the license logic.

A formula is satisfiable when some finite run makes it true at time zero.
The decision runs the translated formula's tableau in lockstep with a
run-shaped transition system: per license name a status (unissued, tracking
a subset of its automaton, or violated) whose labels are exactly the
propositions a real run would produce.  Those labels are matched against the
tableau's literal obligations, and a model is an accepting lasso whose loop
is quiet (no issuances and only bot actions), so every witness unwinds into
an actual run value.  Each witness run is re-checked against the direct
semantics before being returned.

Client actions outside the formula's vocabulary are folded into a single
"other" choice; a witness materializes it as a payment amount the vocabulary
does not mention.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import product

from .automata import padded_nfa, permitted_from, reachable_subsets
from .formulas import Act, Formula, Not, Perm, evaluate, formula_atoms
from .licenses import BOT, Action, License, Pay, action_key, license_actions
from .ltl import Prop, build_vocabulary, name_props, translate
from .runs import Run, compute_permissions, make_run
from .tableau import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    accepting_lasso,
    build_tableau,
    to_nnf,
)


class _OtherAction:
    """Stand-in for any client action the vocabulary does not mention."""

    def __repr__(self) -> str:
        return "OTHER"


OTHER = _OtherAction()

_UNISSUED = ("unissued",)
_OVER = ("over",)
_ONLY_BOT = frozenset({BOT})


def fresh_action(actions) -> Action:
    """A concrete non-bot action distinct from every action in ``actions``."""
    amounts = [a.amount for a in actions if isinstance(a, Pay)]
    base = max(amounts) + 1 if amounts else Decimal("1")
    return Pay(base)


class _RunSpace:
    """Per-name statuses, alphabets and automaton graphs for one formula."""

    def __init__(self, formula: Formula):
        self.vocab = build_vocabulary(formula)
        self.names = self.vocab.names
        exprs = [atom.expr for atom in formula_atoms(formula) if isinstance(atom, (Act, Perm))]
        self.start_subsets: dict[License, frozenset] = {}
        self.graphs: dict[License, dict] = {}
        self.alphabet: dict[str, tuple] = {}
        self.issue_options: dict[str, tuple] = {}
        for name in self.names:
            actions = {BOT}
            actions |= {expr.action for expr in exprs if expr.name == name}
            for lic in self.vocab.licenses_of(name):
                actions |= license_actions(lic)
                if lic not in self.graphs:
                    nfa = padded_nfa(lic)
                    self.start_subsets[lic] = nfa.start_subset()
                    self.graphs[lic] = reachable_subsets(nfa, self.vocab.actions)
            self.alphabet[name] = tuple(sorted(actions, key=action_key)) + (OTHER,)
            self.issue_options[name] = (None,) + self.vocab.licenses_of(name)
        self._label_cache: dict = {}

    def initial_statuses(self) -> tuple:
        return tuple(_UNISSUED for _ in self.names)

    def effective(self, status, issue):
        if issue is None:
            return status
        start = self.start_subsets[issue]
        if not start:
            return _OVER
        return ("active", issue, start)

    def labels(self, name: str, effective, issue, act) -> frozenset[Prop]:
        key = (name, effective, issue, act)
        cached = self._label_cache.get(key)
        if cached is not None:
            return cached
        if effective == _UNISSUED:
            subset, permitted = None, _ONLY_BOT
        elif effective == _OVER:
            subset, permitted = frozenset(), _ONLY_BOT
        else:
            _, lic, subset = effective
            permitted = permitted_from(padded_nfa(lic), subset, padding_ok=True)
        result = name_props(name, issue, None if act is OTHER else act, subset, permitted)
        self._label_cache[key] = result
        return result

    def next_status(self, effective, act):
        if effective == _UNISSUED or effective == _OVER:
            return effective
        _, lic, subset = effective
        if act is OTHER:
            return _OVER
        successor = self.graphs[lic][subset][act]
        if not successor:
            return _OVER
        return ("active", lic, successor)


@dataclass
class LicSatResult:
    status: str  # "sat" | "unsat" | "budget"
    run: Run | None = None


@dataclass
class ValidityResult:
    status: str  # "valid" | "invalid" | "budget"
    counterexample: Run | None = None


def _name_choices(space: _RunSpace, name: str, status, positive, negative):
    """Per-name (issue, act) options whose labels meet the literal obligations."""
    issue_options = space.issue_options[name] if status == _UNISSUED else (None,)
    for issue in issue_options:
        effective = space.effective(status, issue)
        for act in space.alphabet[name]:
            labels = space.labels(name, effective, issue, act)
            if not positive <= labels:
                continue
            if negative & labels:
                continue
            quiet = issue is None and act == BOT
            yield issue, act, labels, space.next_status(effective, act), quiet


def lic_sat(formula: Formula, budget: int = DEFAULT_BUDGET) -> LicSatResult:
    """Decide whether some finite run satisfies the formula at time zero."""
    try:
        tableau = build_tableau(to_nnf(translate(formula)), budget)
    except BudgetExceededError:
        return LicSatResult("budget")
    space = _RunSpace(formula)
    names = space.names

    positive = {state: tableau.positive_props(state) for state in tableau.old_sets}
    negative = {state: tableau.negative_props(state) for state in tableau.old_sets}

    def split_by_name(props) -> dict[str, set]:
        out: dict[str, set] = {name: set() for name in names}
        for prop in props:
            if prop.name in out:
                out[prop.name].add(prop)
        return out

    pos_by_state = {s: split_by_name(props) for s, props in positive.items()}
    neg_by_state = {s: split_by_name(props) for s, props in negative.items()}

    # The product graph: nodes are (tableau state, statuses); ``edges[node]``
    # maps each successor to the first joint choice reaching it, so a witness
    # can be read back as run events.  Quiet edges (no issuance, all names
    # doing bot) are kept apart in ``quiet[node]``: only they may form the
    # lasso loop, which keeps every witness a finite run.
    edges: dict[tuple, dict[tuple, tuple]] = {}
    quiet: dict[tuple, dict[tuple, tuple]] = {}
    initial = []
    start = space.initial_statuses()
    worklist = []
    seen = set()
    for state in tableau.initial:
        node = (state, start)
        if node not in seen:
            seen.add(node)
            worklist.append(node)
            initial.append(node)
    ticks = 0
    while worklist:
        node = worklist.pop()
        state, statuses = node
        per_name = []
        feasible = True
        for index, name in enumerate(names):
            options = list(
                _name_choices(
                    space,
                    name,
                    statuses[index],
                    pos_by_state[state].get(name, set()),
                    neg_by_state[state].get(name, set()),
                )
            )
            if not options:
                feasible = False
                break
            per_name.append(options)
        node_edges: dict[tuple, tuple] = {}
        node_quiet: dict[tuple, tuple] = {}
        if feasible:
            for combo in product(*per_name):
                ticks += 1
                if ticks > budget:
                    return LicSatResult("budget")
                next_statuses = tuple(option[3] for option in combo)
                is_quiet = all(option[4] for option in combo)
                choice = tuple((option[0], option[1]) for option in combo)
                for successor_state in tableau.edges[state]:
                    successor = (successor_state, next_statuses)
                    node_edges.setdefault(successor, choice)
                    if is_quiet:
                        node_quiet.setdefault(successor, choice)
                    if successor not in seen:
                        seen.add(successor)
                        worklist.append(successor)
        edges[node] = node_edges
        quiet[node] = node_quiet

    accept_sets = [
        {node for node in edges if node[0] in members}
        for members in tableau.accept_sets
    ]

    lasso = accepting_lasso(
        initial,
        lambda node: edges[node],
        lambda node: [child for child in edges[node] if child in quiet[node]],
        accept_sets,
    )
    if lasso is None:
        return LicSatResult("unsat")

    prefix, loop = lasso
    run = _extract_run(space, list(prefix), list(loop), edges, quiet)
    if not evaluate(run, compute_permissions(run), 0, formula):
        raise RuntimeError("internal error: extracted witness run failed re-verification")
    return LicSatResult("sat", run)


def _extract_run(space: _RunSpace, prefix, loop, edges, quiet) -> Run:
    other = fresh_action(space.vocab.actions)
    issuances = []
    actions = []
    visit = prefix + loop
    for t in range(len(visit)):
        source = visit[t]
        target = visit[t + 1] if t + 1 < len(visit) else loop[0]
        choice = (quiet if t >= len(prefix) else edges)[source][target]
        for name, (issue, act) in zip(space.names, choice):
            if issue is not None:
                issuances.append((t, name, issue))
            if act is OTHER:
                actions.append((t, name, other))
            elif act != BOT:
                actions.append((t, name, act))
    return make_run(issuances, actions)


def lic_valid(formula: Formula, budget: int = DEFAULT_BUDGET) -> ValidityResult:
    """Validity via unsatisfiability of the negation; counterexamples are runs."""
    result = lic_sat(Not(formula), budget)
    if result.status == "budget":
        return ValidityResult("budget")
    if result.status == "unsat":
        return ValidityResult("valid")
    return ValidityResult("invalid", result.run)
