"""Satisfiability and validity for the license logic.

A formula is satisfiable when some finite run makes it true at time zero.
The decision runs the translated formula's tableau in lockstep with a
run-shaped transition system: per license name an int status (unissued,
violated, or one reachable subset of one license's automaton), whose options
come from a choice table built once per formula.  Each option's labels are
exactly the propositions a real run would produce; they are matched against
the tableau's literal obligations, and a model is an accepting lasso whose loop
is quiet (no issuances and only bot actions), so every witness unwinds into
an actual run value.  Each witness run is re-checked against the direct
semantics before being returned.

A product node's row of edges depends only on its tableau state's
successor list, which the tableau shares per next-obligation mask, and on
each name's options that meet the state's literals; the product builds each
distinct row once and points every node with it at the same dicts.  Budget
ticks still count every node's joint choices, shared or not.

Every atom speaks about one license name and each name's license evolves on
its own, so a formula is first split at its boolean top (a conjunction or a
disjunction under its leading negations) into groups over pairwise disjoint
names, each through the product on its own: k names then cost k small
products instead of one exponential in k.  A conjunction merges its groups'
witnesses, a disjunction takes its first; validity is sat of the negation.

Client actions outside the formula's vocabulary are folded into a single
"other" choice; a witness materializes it as a payment amount the whole
formula's vocabulary does not mention.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import reduce
from itertools import product
from math import prod

from .automata import padded_nfa, permitted_from, reachable_subsets
from .formulas import Act, And, Formula, Issue, Not, Perm, evaluate, formula_atoms
from .licenses import BOT, Action, License, Pay, action_key, license_actions
from .ltl import build_vocabulary, name_props, translate
from .runs import Run, compute_permissions, make_run
from .tableau import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _strip,
    accepting_lasso,
    build_tableau,
    to_nnf,
)


class _OtherAction:
    """Stand-in for any client action the vocabulary does not mention."""

    def __repr__(self) -> str:
        return "OTHER"


OTHER = _OtherAction()

_ONLY_BOT = frozenset({BOT})


def fresh_action(actions) -> Action:
    """A concrete non-bot action distinct from every action in ``actions``."""
    amounts = [a.amount for a in actions if isinstance(a, Pay)]
    base = max(amounts) + 1 if amounts else Decimal("1")
    return Pay(base)


class _RunSpace:
    """The run-shaped transition system of one formula: one choice table per name.

    A name's status is an int: 0 unissued, 1 over (violated), and from 2 on
    one int per reachable automaton subset of each license the formula
    issues to the name, numbered license by license (equal subsets of two
    licenses stay apart).  ``choices[name][status]`` lists every
    ``(issue, act, labels, next status, quiet)`` option of that status: no
    issuance first, then each license (from status 0 only), and acts in
    alphabet order within each.
    """

    def __init__(self, formula: Formula):
        self.vocab = build_vocabulary(formula)
        self.names = self.vocab.names
        exprs = [atom.expr for atom in formula_atoms(formula) if isinstance(atom, (Act, Perm))]
        graphs: dict[License, dict] = {}
        self.choices: dict[str, list[list[tuple]]] = {}
        for name in self.names:
            licenses = self.vocab.licenses_of(name)
            actions = {BOT} | {expr.action for expr in exprs if expr.name == name}
            for lic in licenses:
                actions |= license_actions(lic)
                if lic not in graphs:
                    graphs[lic] = reachable_subsets(padded_nfa(lic), self.vocab.actions)
            alphabet = tuple(sorted(actions, key=action_key)) + (OTHER,)
            self.choices[name] = _choice_table(name, licenses, alphabet, graphs)


def _choice_table(name: str, licenses, alphabet, graphs) -> list[list[tuple]]:
    # Per status: its subset (None before issuance), permitted set, and
    # next status by act.
    statuses = [
        (subset, _ONLY_BOT, {act: status for act in alphabet})
        for status, subset in enumerate((None, frozenset()))
    ]

    def options(status: int, issue) -> list[tuple]:
        subset, permitted, successor = statuses[status]
        return [
            (
                issue,
                act,
                name_props(name, issue, None if act is OTHER else act, subset, permitted),
                successor[act],
                issue is None and act == BOT,
            )
            for act in alphabet
        ]

    issuances = []
    for lic in licenses:
        nfa = padded_nfa(lic)
        number = {subset: len(statuses) + i for i, subset in enumerate(graphs[lic])}
        for subset, row in graphs[lic].items():
            successor = {act: 1 if act is OTHER else number.get(row[act], 1) for act in alphabet}
            statuses.append((subset, permitted_from(nfa, subset, padding_ok=True), successor))
        issuances += options(number.get(nfa.start_subset(), 1), lic)
    table = [options(status, None) for status in range(len(statuses))]
    table[0] += issuances
    return table


@dataclass
class LicSatResult:
    status: str  # "sat" | "unsat" | "budget"
    run: Run | None = None


@dataclass
class ValidityResult:
    status: str  # "valid" | "invalid" | "budget"
    counterexample: Run | None = None


def _name_choices(row: list[tuple], positive, negative) -> list[tuple]:
    """The options of one status row whose labels meet the literal obligations."""
    return [option for option in row if positive <= option[2] and not negative & option[2]]


def _components(formula: Formula) -> tuple[bool, list[Formula]]:
    """The formula's boolean top, split into groups over pairwise disjoint names.

    Under its leading negations the formula is an ``And``, a conjunction of
    its operands, or a negated ``And``, a disjunction of their negations;
    operands that are ``And``s under the same polarity are flattened in, so
    ``!(a | b | c)`` has the parts ``!a``, ``!b``, ``!c``.  Parts that share
    a license name, directly or through other parts, fall in one group,
    which conjoins them in their order (negated, for a disjunction); groups
    come in the order of their first part.  Returns whether the top is a
    conjunction, and the groups; a formula with one group is its own group.
    """
    top, conjunctive = _strip(formula, True)
    parts = []
    stack = [top]
    while stack:
        node = stack.pop()
        inner, same = _strip(node, True)
        if isinstance(inner, And) and same:
            stack += (inner.right, inner.left)
        else:
            parts.append(node)
    parent = list(range(len(parts)))  # union-find over part indices

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[str, int] = {}
    for index, part in enumerate(parts):
        for atom in formula_atoms(part):
            name = atom.name if isinstance(atom, Issue) else atom.expr.name
            parent[root(owner.setdefault(name, index))] = root(index)
    groups: dict[int, list[Formula]] = {}
    for index, part in enumerate(parts):
        groups.setdefault(root(index), []).append(part)
    if len(groups) == 1:
        return conjunctive, [formula]
    joined = [reduce(And, members) for members in groups.values()]
    return conjunctive, joined if conjunctive else [Not(group) for group in joined]


def lic_sat(formula: Formula, budget: int = DEFAULT_BUDGET) -> LicSatResult:
    """Decide whether some finite run satisfies the formula at time zero.

    The formula is split at its boolean top into groups over pairwise
    disjoint license names, each decided by its own product.  A conjunction
    is unsat when some group is, else it runs out of budget when some group
    does, else the groups' witness runs are merged into one.  A disjunction
    is sat with the first sat group's witness, else it runs out of budget
    when some group does, else it is unsat.  The budget applies per group
    (each group's tableau and product get all of ``budget``), so the total
    work is at most the number of groups times ``budget``.  A witness is
    re-checked against the whole formula before it is returned.
    """
    other = fresh_action(build_vocabulary(formula).actions)
    conjunctive, groups = _components(formula)
    runs = []
    exhausted = False
    for group in groups:
        result = _product_sat(group, budget, other)
        exhausted = exhausted or result.status == "budget"
        if result.status == "sat":
            runs.append(result.run)
            if not conjunctive:
                break
        elif result.status == "unsat" and conjunctive:
            return result
    else:
        if exhausted or not conjunctive:
            return LicSatResult("budget" if exhausted else "unsat")
    run = make_run(
        [event for part in runs for event in part.issuances],
        [event for part in runs for event in part.actions],
    )
    if not evaluate(run, compute_permissions(run), 0, formula):
        raise RuntimeError("internal error: extracted witness run failed re-verification")
    return LicSatResult("sat", run)


def _product_sat(formula: Formula, budget: int, other: Action) -> LicSatResult:
    """The tableau x run-space product of one formula; the run is not re-checked.

    ``other`` is the concrete action a witness does for the "other" choice.
    """
    try:
        tableau = build_tableau(to_nnf(translate(formula)), budget)
    except BudgetExceededError:
        return LicSatResult("budget")
    space = _RunSpace(formula)
    tables = [space.choices[name] for name in space.names]

    # Per tableau state, each name's (required, forbidden) propositions.
    literals = {}
    for state in tableau.old_sets:
        split = {name: (set(), set()) for name in space.names}
        for side, props in enumerate((tableau.positive_props(state), tableau.negative_props(state))):
            for prop in props:
                if prop.name in split:
                    split[prop.name][side].add(prop)
        literals[state] = list(split.values())

    # The product graph: nodes are (tableau state, status ints); ``edges[node]``
    # maps each successor to the first joint choice reaching it, so a witness
    # can be read back as run events.  Quiet edges (no issuance, all names
    # doing bot) are kept apart in ``quiet[node]``: only they may form the
    # lasso loop, which keeps every witness a finite run.
    #
    # A node's row (its edges, quiet edges and loop successors) depends only
    # on its tableau successor list, one list per next mask, and on each
    # name's filtered options, so each distinct row is built once and shared,
    # keyed by the successor list's id and the ids of each name's options.
    # A shared row is charged its joint choices again, and its successors
    # were all seen when it was built, so the worklist and the budget run as
    # if the row were rebuilt.
    edges: dict[tuple, dict[tuple, tuple]] = {}
    quiet: dict[tuple, dict[tuple, tuple]] = {}
    loop_successors: dict[tuple, list[tuple]] = {}
    rows: dict[tuple, tuple] = {}
    initial = []
    start = (0,) * len(space.names)
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
        successor_states = tableau.edges[state]
        per_name = [
            _name_choices(table[status], positive, negative)
            for table, status, (positive, negative) in zip(tables, statuses, literals[state])
        ]
        # the options are the table's own tuples, so their ids name them
        key = (id(successor_states), *(tuple(map(id, options)) for options in per_name))
        row = rows.get(key)
        if row is None:
            node_edges: dict[tuple, tuple] = {}
            node_quiet: dict[tuple, tuple] = {}
            for combo in product(*per_name):
                ticks += 1
                if ticks > budget:
                    return LicSatResult("budget")
                next_statuses = tuple(option[3] for option in combo)
                is_quiet = all(option[4] for option in combo)
                choice = tuple((option[0], option[1]) for option in combo)
                for successor_state in successor_states:
                    successor = (successor_state, next_statuses)
                    node_edges.setdefault(successor, choice)
                    if is_quiet:
                        node_quiet.setdefault(successor, choice)
                    if successor not in seen:
                        seen.add(successor)
                        worklist.append(successor)
            loop = [child for child in node_edges if child in node_quiet]
            row = rows[key] = (node_edges, node_quiet, loop, prod(map(len, per_name)))
        else:
            ticks += row[3]
            if ticks > budget:
                return LicSatResult("budget")
        edges[node], quiet[node], loop_successors[node] = row[:3]

    accept_sets = [
        {node for node in edges if node[0] in members}
        for members in tableau.accept_sets
    ]

    lasso = accepting_lasso(initial, edges.__getitem__, loop_successors.__getitem__, accept_sets)
    if lasso is None:
        return LicSatResult("unsat")

    prefix, loop = lasso
    return LicSatResult("sat", _extract_run(space, list(prefix), list(loop), edges, quiet, other))


def _extract_run(space: _RunSpace, prefix, loop, edges, quiet, other: Action) -> Run:
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
    """Validity as unsatisfiability of the negation; counterexamples are runs.

    ``lic_sat`` decides ``Not(formula)`` like any formula: split at its
    boolean top, each group with all of ``budget``, a definite answer before
    a budget one, and the counterexample re-checked against the negation.
    """
    result = lic_sat(Not(formula), budget)
    status = {"sat": "invalid", "unsat": "valid"}.get(result.status, "budget")
    return ValidityResult(status, result.run)
