"""Satisfiability and validity for the license logic.

A formula is satisfiable when some finite run makes it true at time zero.
The decision runs the translated formula's tableau in lockstep with a
run-shaped transition system: per license name an int status (unissued,
violated, or one reachable subset of one license's automaton), whose options
come from a choice table built once per formula.  Each literal atom of a
name gets one bit; an option's label is the int mask of those atoms that
hold of it, read straight off the atoms: a ``permitted`` or ``obligated``
bit off its status's permitted set, an ``issued`` bit off the license it
issues (by equality), a ``done`` bit off its act.  Each tableau state holds
a (required, forbidden) mask pair per name, so an option meets the state's
literal obligations by two int tests.  A model is an accepting lasso
whose loop is quiet (no issuances and only bot actions), so every witness
unwinds into an actual run value.  Each witness run is re-checked against
the direct semantics before being returned.

The tableau is read as a transition-based automaton: its states are the
next-obligation masks and each tableau state is a transition out of every
mask whose successor list holds it.  A product node pairs one mask with the
names' statuses, each edge is one tableau state taken with one joint choice
of options, and acceptance is read off the edges' tableau states.  Before
the product is built, dominated transitions are dropped from each successor
list (``_undominated``): a state is dropped when another of the same next
mask asks for a subset of its literals and is in every accept set it is
in.  It adds no lasso the other does not, and it is never taken or charged.
The move of one tableau state from one statuses tuple (its joint choices,
first edge per target and quiet edge) is built once and replayed for every
node whose mask lists that state, and each replay is charged its joint
choices again.

Every atom speaks about one license name and each name's license evolves on
its own, so a formula is first split at its boolean top (a conjunction or a
disjunction under its leading negations) into groups over pairwise disjoint
names, each through the product on its own with its own vocabulary: k
names then cost k small products instead of one exponential in k.  A
conjunction merges its groups' witnesses, a disjunction takes its first;
validity is sat of the negation.

Client actions outside the formula's vocabulary are folded into a single
"other" choice; a witness materializes it as a payment amount that no
group's vocabulary mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import reduce
from itertools import product
from math import prod

from .automata import padded_nfa, reachable_subsets
from .formulas import And, Formula, Issue, Not, evaluate, formula_atoms
from .licenses import BOT, EXACT, Action, License, Pay, action_key, license_actions
from .ltl import Done, Issued, Permitted, Vocabulary, build_vocabulary, translate
from .runs import Run, compute_permissions, make_run
from .tableau import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Tableau,
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
    base = EXACT.add(max(amounts), 1) if amounts else Decimal("1")
    return Pay(base)


def _choice_tables(vocab: Vocabulary, atom_bits: dict[str, dict[Formula, int]]) -> list:
    """The run-shaped transition system of one formula: one choice table per name.

    A name's status is an int: 0 unissued, 1 over (violated), and from 2 on
    one int per reachable automaton subset of each license the formula
    issues to the name, numbered license by license (equal subsets of two
    licenses stay apart).  The table of ``vocab.names[i]`` is at ``i``, and
    its row ``status`` lists every ``(issue, act, label mask, next status,
    quiet)`` option of that status: no issuance first, then each license
    (from status 0 only), and acts in alphabet order within each.
    ``atom_bits[name]`` gives each of the name's literal atoms its bit, and
    an option's label mask has the bits of the atoms that hold of it.
    """
    graphs: dict[License, dict] = {}
    tables = []
    for name in vocab.names:
        licenses = vocab.licenses_of(name)
        for lic in licenses:
            if lic not in graphs:
                graphs[lic] = reachable_subsets(padded_nfa(lic), vocab.actions)
        tables.append(_choice_table(licenses, graphs, atom_bits[name]))
    return tables


def _atom_bits(tableau) -> dict[str, dict[Formula, int]]:
    """One bit per literal atom of each name, in the tableau's literal order."""
    atom_bits: dict[str, dict[Formula, int]] = {}
    for _, atom, _ in tableau.literals:
        bits = atom_bits.setdefault(atom.name, {})
        bits.setdefault(atom, 1 << len(bits))
    return atom_bits


def _choice_table(licenses, graphs, bits) -> list[list[tuple]]:
    # An option's label is its status's, its issuance's and its act's bits,
    # each read straight off the name's literal atoms (what
    # ``reference.name_props`` would hold of the option, cut to ``bits``).
    # The alphabet is bot, the atoms' actions and the licenses' actions.
    issued, done, permitted, obligated = [], {}, [], []
    actions = {BOT}
    for atom, bit in bits.items():
        if isinstance(atom, Issued):
            issued.append((atom.license, bit))
            continue
        actions.add(atom.action)
        if isinstance(atom, Done):
            done[atom.action] = bit
        else:
            (permitted if isinstance(atom, Permitted) else obligated).append((atom.action, bit))
    for lic in licenses:
        actions |= license_actions(lic)
    alphabet = tuple(sorted(actions, key=action_key)) + (OTHER,)

    def status_label(allowed) -> int:
        label = sum(bit for action, bit in permitted if action in allowed)
        if len(allowed) == 1:
            label += sum(bit for action, bit in obligated if action in allowed)
        return label

    act_bits = {act: done.get(act, 0) for act in alphabet}

    # Per status: its label mask and next status by act.  Unissued and over
    # both permit only bot and stay put.
    idle = status_label(_ONLY_BOT)
    statuses = [(idle, dict.fromkeys(alphabet, status)) for status in (0, 1)]

    def options(status: int, issue) -> list[tuple]:
        label, successor = statuses[status]
        if issue is not None:
            # equal licenses parsed apart share one atom, so match by equality
            label |= sum(bit for lic, bit in issued if lic == issue)
        return [
            (issue, act, label | act_bits[act], successor[act], issue is None and act == BOT)
            for act in alphabet
        ]

    issuances = []
    for lic in licenses:
        nfa = padded_nfa(lic)
        # a successor id outside the graph is 0, the empty subset: over
        number = {subset: len(statuses) + i for i, subset in enumerate(graphs[lic])}
        for subset, row in graphs[lic].items():
            successor = {act: 1 if act is OTHER else number.get(row[act], 1) for act in alphabet}
            statuses.append((status_label(nfa.permitted_id(subset)), successor))
        issuances += options(number.get(nfa.start, 1), lic)
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
    conjunctive, groups = _components(formula)
    vocabs = [build_vocabulary(group) for group in groups]
    other = fresh_action({action for vocab in vocabs for action in vocab.actions})
    runs = []
    exhausted = False
    for group, vocab in zip(groups, vocabs):
        result = _product_sat(group, vocab, budget, other)
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


def _undominated(tableau: Tableau) -> dict[int, list[int]]:
    """Each successor list of the tableau, keyed by its id, without its dominated states.

    Within one list, state ``s`` is dominated by ``d`` when both have the
    same next mask (share one ``edges`` list), ``d``'s literal bits are a
    subset of ``s``'s, and ``d`` is in every accept set holding ``s``
    (Gastin & Oddoux, "Fast LTL to Buchi automata translation", CAV 2001).
    Every joint choice meeting ``s`` then meets ``d`` and enters the same
    product node, quiet or not, so dropping ``s`` loses no accepting lasso.
    Of equal states the first is kept, and the kept states stay in list
    order.  Candidates of one next mask are tried fewest literal bits first,
    then most accept sets, which tries every dominator of a state before
    the state itself; as domination is transitive, a dominated state always
    finds a kept dominator.
    """
    # One int per state: its literal bits, and above them the accept sets it
    # is not in.  ``d`` dominates ``s`` exactly when d's int is a subset of s's.
    literal_bits = sum(bit for bit, _, _ in tableau.literals)  # one distinct bit each
    outside = dict.fromkeys(tableau.old_sets, (1 << len(tableau.accept_sets)) - 1)
    for number, accept_set in enumerate(tableau.accept_sets):
        for state in accept_set:
            outside[state] ^= 1 << number
    demands = {}
    rank = {}
    for state, old in tableau.old_sets.items():
        lits = old & literal_bits
        demands[state] = lits | outside[state] << literal_bits.bit_length()
        rank[state] = (lits.bit_count(), outside[state].bit_count())

    pruned: dict[int, list[int]] = {}
    for successors in (tableau.initial, *tableau.edges.values()):
        if id(successors) in pruned:
            continue
        pruned[id(successors)] = successors
        if len(successors) < 2:
            continue
        groups: dict[int, list[int]] = {}
        for state in successors:
            groups.setdefault(id(tableau.edges[state]), []).append(state)
        dropped = set()
        for group in groups.values():
            if len(group) < 2:
                continue
            kept: list[int] = []
            for state in sorted(group, key=rank.__getitem__):  # stable: ties in list order
                mine = demands[state]
                if any(other | mine == mine for other in kept):
                    dropped.add(state)
                else:
                    kept.append(mine)
        if dropped:
            pruned[id(successors)] = [state for state in successors if state not in dropped]
    return pruned


def _product_sat(formula: Formula, vocab: Vocabulary, budget: int, other: Action) -> LicSatResult:
    """The tableau x run-space product of one formula; the run is not re-checked.

    ``vocab`` is the formula's vocabulary and ``other`` the concrete action a
    witness does for the "other" choice.
    """
    try:
        tableau = build_tableau(to_nnf(translate(formula)), budget)
    except BudgetExceededError:
        return LicSatResult("budget")
    successor_lists = _undominated(tableau)
    atom_bits = _atom_bits(tableau)
    tables = _choice_tables(vocab, atom_bits)

    # Per tableau state left in some pruned list, each name's (required,
    # forbidden) label masks.
    index = {name: i for i, name in enumerate(vocab.names)}
    marks = [
        (bit, index[atom.name], 0 if positive else 1, atom_bits[atom.name][atom])
        for bit, atom, positive in tableau.literals
    ]
    literals = {}
    for state in set().union(*successor_lists.values()):
        old = tableau.old_sets[state]
        split = [[0, 0] for _ in tables]
        for bit, i, side, label in marks:
            if old & bit:
                split[i][side] |= label
        literals[state] = split

    # The product graph: a node is a next-obligation mask, named by the id of
    # the successor list the tableau shares among the states holding it, and
    # the names' status ints.  Each tableau state in the list, with each joint
    # choice of options meeting its literals, is an edge ``(target, state,
    # choice)`` into the state's own mask and the options' next statuses, so
    # a witness can be read back as run events; every joint choice is one
    # budget tick.  Dominated states are gone from the lists, so they are
    # never taken or charged.  ``edges[node]`` keeps the first edge into each
    # target.  ``quiet[node]`` lists the quiet edges (no issuance, all names
    # doing bot), at most one per state as each status has one quiet option:
    # only they may form the lasso loop, which keeps every witness a finite
    # run.  The move of a (state, statuses) pair is built once, on first use,
    # and replayed for every later node reaching it; a replay is charged its
    # joint choices again, as if they were enumerated anew.
    next_mask = {state: id(successors) for state, successors in tableau.edges.items()}
    start = (id(tableau.initial), (0,) * len(tables))
    edges: dict[tuple, dict] = {}
    quiet: dict[tuple, list] = {}
    moves: dict[tuple, list] = {}  # per statuses, each state's move or None
    worklist = [start]
    seen = {start}
    ticks = 0
    while worklist:
        node = worklist.pop()
        mask, statuses = node
        node_edges = edges[node] = {}
        node_quiet = quiet[node] = []
        row_moves = moves.get(statuses)
        if row_moves is None:
            row_moves = moves[statuses] = [None] * len(tableau.old_sets)
        for state in successor_lists[mask]:
            move = row_moves[state]
            if move is None:
                per_name = [
                    [
                        option
                        for option in table[status]
                        if not required & ~option[2] and not forbidden & option[2]
                    ]
                    for table, status, (required, forbidden) in zip(tables, statuses, literals[state])
                ]
                count = prod(map(len, per_name))
                # checked before the joint choices are enumerated
                if ticks + count > budget:
                    return LicSatResult("budget")
                move = row_moves[state] = (count, *_move(state, next_mask[state], per_name))
            count, move_edges, quiet_edge = move
            ticks += count
            if ticks > budget:
                return LicSatResult("budget")
            for edge in move_edges:
                target = edge[0]
                if target not in node_edges:
                    node_edges[target] = edge
                    if target not in seen:
                        seen.add(target)
                        worklist.append(target)
            if quiet_edge is not None:
                node_quiet.append(quiet_edge)

    lasso = accepting_lasso(
        [start], lambda node: edges[node].values(), quiet.__getitem__, tableau.accept_sets
    )
    if lasso is None:
        return LicSatResult("unsat")
    prefix, loop = lasso
    return LicSatResult("sat", _extract_run(vocab.names, prefix + loop, other))


def _move(state: int, mask: int, per_name: list[list[tuple]]) -> tuple[list, tuple | None]:
    """One tableau state taken from one statuses tuple, given each name's meeting options.

    Returns the first edge into each target, in the order the joint choices
    are enumerated, and the quiet edge, or None when some name has no quiet
    option.
    """
    first: dict[tuple, tuple] = {}
    for combo in product(*per_name):
        target = (mask, tuple([option[3] for option in combo]))
        if target not in first:
            first[target] = (target, state, combo)
    still = tuple(option for options in per_name for option in options if option[4])
    quiet_edge = None
    if len(still) == len(per_name):
        quiet_edge = ((mask, tuple([option[3] for option in still])), state, still)
    return list(first.values()), quiet_edge


def _extract_run(names, path, other: Action) -> Run:
    """The run doing each edge's joint choice at its time."""
    issuances = []
    actions = []
    for t, (_, _, choice) in enumerate(path):
        for name, (issue, act, *_) in zip(names, choice):
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
