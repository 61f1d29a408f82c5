"""Satisfiability and validity for the license logic.

A formula is satisfiable when some finite run makes it true at time zero.
The decision runs the translated formula's tableau in lockstep with a
run-shaped transition system: per license name an int status (unissued,
violated, or one subset of one license's automaton), whose row of options is
built the first time the product reaches the status, stepping the
automaton's subset ids on the name's alphabet: the subset construction
(Rabin & Scott, 1959) filled on the fly inside an on-the-fly product
(Couvreur, FM 1999), so subsets the product never reaches are never built.
Each literal atom of a name gets one bit; an option's label is the int mask
of those atoms that hold of it, read straight off the atoms: a
``permitted`` or ``obligated`` bit off the bits of its subset's permitted
letters, an ``issued`` bit off the license it issues (by equality), a
``done`` bit off its act.  Each tableau state holds a (required, forbidden)
mask pair per name, so an option meets the state's literal obligations by
two int tests.  A model is an accepting lasso whose loop is quiet (no
issuances and only bot actions), so every witness unwinds into an actual
run value.  Each witness run is re-checked against the direct semantics
before being returned.

The tableau is read as a transition-based automaton: its states are the
next-obligation masks and each tableau state is a transition out of every
mask whose successor list holds it.  A product node pairs one mask with the
names' statuses, each edge is one tableau state taken with one joint choice
of options, and acceptance is read off the edges' tableau states.  The move
of one tableau state from one statuses tuple (its joint choices, first edge
per target and quiet edge) is built once and replayed for every node whose
mask lists that state, and each replay is charged its joint choices again.

Every atom speaks about one license name and each name's license evolves on
its own, so a formula is first split at its boolean top (a conjunction or a
disjunction under its leading negations) into groups over pairwise disjoint
names, each through the product on its own with its own vocabulary, built
from the atoms the split read: k names then cost k small products instead
of one exponential in k.  A
conjunction merges its groups' witnesses, a disjunction takes its first;
validity is sat of the negation.

Client actions outside the formula's vocabulary are folded into a single
"other" choice; a witness materializes it as a payment amount that no
group's vocabulary mentions.
"""

from __future__ import annotations

from decimal import Decimal
from functools import reduce
from itertools import product
from math import prod

from .automata import padded_nfa
# Not called here: kept for the WRAPS entry ("licsat", "reachable_subsets", ...)
# of perfbench/tracing.py, which looks the name up in this module.
from .automata import reachable_subsets
from .formulas import And, Formula, Issue, Not, evaluate, formula_atoms
from .licenses import BOT, EXACT, Action, Pay, Value, action_key
from .ltl import Done, Issued, Permitted, Vocabulary, translate, vocabulary_of
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


def fresh_action(actions) -> Action:
    """A concrete non-bot action distinct from every action in ``actions``."""
    amounts = [a.amount for a in actions if isinstance(a, Pay)]
    base = EXACT.add(max(amounts), 1) if amounts else Decimal("1")
    return Pay(base)


def _atom_bits(tableau) -> dict[str, dict[Formula, int]]:
    """One bit per literal atom of each name, in the tableau's literal order."""
    atom_bits: dict[str, dict[Formula, int]] = {}
    for _, atom, _ in tableau.literals:
        bits = atom_bits.setdefault(atom.name, {})
        bits.setdefault(atom, 1 << len(bits))
    return atom_bits


class _RunSpace:
    """One name's part of the run-shaped transition system, its rows built on first reach.

    A status is an int: 0 unissued, 1 over (violated), and from 2 on one
    (license index, subset id) pair of a license issued to the name,
    numbered the first time a built row steps or issues into it (equal
    subsets of two licenses stay apart).  ``rows[status]`` is None until ``build`` fills it
    with every ``(issue, act, label mask, next status, quiet)`` option of the
    status: no issuance first, then each license (from status 0 only), and
    acts in alphabet order within each.  ``bits`` gives each of the name's
    literal atoms its bit, and an option's label mask has the bits of the
    atoms that hold of it, read straight off the atoms (what
    ``reference.name_props`` would hold of the option, cut to ``bits``): a
    ``permitted`` or ``obligated`` bit off the status's permitted letters,
    an ``issued`` bit off the license it issues, a ``done`` bit off its act.
    """

    __slots__ = ("licenses", "automata", "alphabet", "act_bits", "issued", "columns", "atom_letters",
                 "statuses", "numbers", "cores", "rows")

    def __init__(self, licenses, bits: dict[Formula, int]):
        """``licenses`` are the licenses issued to the name."""
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
        self.licenses = licenses
        automata = self.automata = [padded_nfa(lic) for lic in licenses]
        for nfa in automata:
            actions.update(nfa.letters)
        self.alphabet = tuple(sorted(actions, key=action_key)) + (OTHER,)
        self.act_bits = [done.get(act, 0) for act in self.alphabet]
        # equal licenses parsed apart share one atom, so match by equality
        self.issued = [sum(bit for lic, bit in issued if lic == issue) for issue in licenses]
        # per license: each act's letter (OTHER's is the column outside the
        # alphabet, which steps to 0), and the permitted and obligated atoms'
        # bits by letter mask
        self.columns = [[nfa.letter(act) for act in self.alphabet[:-1]] + [len(nfa.letters)] for nfa in automata]
        self.atom_letters = [
            ([(1 << nfa.letter(act), bit) for act, bit in permitted],
             [(1 << nfa.letter(act), bit) for act, bit in obligated])
            for nfa in automata
        ]
        self.statuses: list[tuple | None] = [None, None]  # (license index, subset id) per status
        self.numbers: dict[tuple, int] = {}
        # Per status: its label mask and next statuses by act, None until a
        # row needs them.  Unissued and over both permit only bot and stay put.
        idle = sum(bit for act, bit in permitted + obligated if act == BOT)
        self.cores: list[tuple | None] = [(idle, [status] * len(self.alphabet)) for status in (0, 1)]
        self.rows: list[list | None] = [None, None]

    def _number(self, license_index: int, subset: int) -> int:
        """The status of a subset of one license's automaton; the empty subset is over."""
        if not subset:
            return 1
        key = (license_index, subset)
        status = self.numbers.get(key)
        if status is None:
            status = self.numbers[key] = len(self.statuses)
            self.statuses.append(key)
            self.cores.append(None)
            self.rows.append(None)
        return status

    def _core(self, status: int) -> tuple:
        core = self.cores[status]
        if core is None:
            license_index, subset = self.statuses[status]
            nfa = self.automata[license_index]
            mask = nfa.masks[subset]
            permitted, obligated = self.atom_letters[license_index]
            label = sum(bit for letter, bit in permitted if mask & letter)
            if not mask & (mask - 1):  # one permitted letter: it is obligated
                label += sum(bit for letter, bit in obligated if mask & letter)
            successors = [
                self._number(license_index, nfa.step_id(subset, column))
                for column in self.columns[license_index]
            ]
            core = self.cores[status] = (label, successors)
        return core

    def _options(self, status: int, license_index: int | None) -> list[tuple]:
        """The options of ``status``, issuing the license at ``license_index`` unless it is None."""
        label, successors = self._core(status)
        lic = None
        if license_index is not None:
            lic = self.licenses[license_index]
            label |= self.issued[license_index]
        return [
            (lic, act, label | act_bit, successor, lic is None and act == BOT)
            for act, act_bit, successor in zip(self.alphabet, self.act_bits, successors)
        ]

    def build(self, status: int) -> None:
        """Fill ``rows[status]``; issuing a license enters its start subset's status."""
        row = self._options(status, None)
        if status == 0:
            for index, nfa in enumerate(self.automata):
                row += self._options(self._number(index, nfa.start), index)
        self.rows[status] = row


def _run_spaces(vocab: Vocabulary, atom_bits: dict[str, dict[Formula, int]]) -> list[_RunSpace]:
    """The run space of each of ``vocab.names``, in order, with no row built yet."""
    return [_RunSpace(vocab.licenses_of(name), atom_bits.get(name, {})) for name in vocab.names]


class LicSatResult(Value):
    __slots__ = ("status", "run")

    def __init__(self, status: str, run: Run | None = None) -> None:
        _sat_status(self, status)  # "sat" | "unsat" | "budget"
        _sat_run(self, run)


class ValidityResult(Value):
    __slots__ = ("status", "counterexample")

    def __init__(self, status: str, counterexample: Run | None = None) -> None:
        _valid_status(self, status)  # "valid" | "invalid" | "budget"
        _valid_counterexample(self, counterexample)


_sat_status, _sat_run = LicSatResult.status.__set__, LicSatResult.run.__set__
_valid_status, _valid_counterexample = ValidityResult.status.__set__, ValidityResult.counterexample.__set__


def _components(formula: Formula) -> tuple[bool, list[tuple[Formula, frozenset]]]:
    """The formula's boolean top, split into groups over pairwise disjoint names.

    Under its leading negations the formula is an ``And``, a conjunction of
    its operands, or a negated ``And``, a disjunction of their negations;
    operands that are ``And``s under the same polarity are flattened in, so
    ``!(a | b | c)`` has the parts ``!a``, ``!b``, ``!c``.  Parts that share
    a license name, directly or through other parts, fall in one group,
    which conjoins them in their order (negated, for a disjunction); groups
    come in the order of their first part.  Returns whether the top is a
    conjunction, and each group with its atoms; a formula with one group is
    its own group.
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
    atoms = [formula_atoms(part) for part in parts]
    if len(parts) == 1:
        return conjunctive, [(formula, atoms[0])]
    parent = list(range(len(parts)))  # union-find over part indices

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[str, int] = {}
    for index, part_atoms in enumerate(atoms):
        for atom in part_atoms:
            name = atom.name if isinstance(atom, Issue) else atom.expr.name
            parent[root(owner.setdefault(name, index))] = root(index)
    groups: dict[int, list[int]] = {}
    for index in range(len(parts)):
        groups.setdefault(root(index), []).append(index)
    if len(groups) == 1:
        return conjunctive, [(formula, frozenset().union(*atoms))]
    joined = []
    for members in groups.values():
        group = reduce(And, [parts[i] for i in members])
        joined.append((group if conjunctive else Not(group), frozenset().union(*(atoms[i] for i in members))))
    return conjunctive, joined


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
    vocabs = [vocabulary_of(atoms) for _, atoms in groups]
    other = fresh_action({action for vocab in vocabs for action in vocab.actions})
    runs = []
    exhausted = False
    for (group, _), vocab in zip(groups, vocabs):
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


def _product_sat(formula: Formula, vocab: Vocabulary, budget: int, other: Action) -> LicSatResult:
    """The tableau x run-space product of one formula; the run is not re-checked.

    ``vocab`` is the formula's vocabulary and ``other`` the concrete action a
    witness does for the "other" choice.
    """
    try:
        tableau = build_tableau(to_nnf(translate(formula)), budget)
    except BudgetExceededError:
        return LicSatResult("budget")
    successor_lists = {id(listed): listed for listed in (tableau.initial, *tableau.edges.values())}
    atom_bits = _atom_bits(tableau)
    spaces = _run_spaces(vocab, atom_bits)
    tables = [space.rows for space in spaces]

    # Per tableau state, each name's (required, forbidden) label masks.
    index = {name: i for i, name in enumerate(vocab.names)}
    marks = [
        (bit, index[atom.name], 0 if positive else 1, atom_bits[atom.name][atom])
        for bit, atom, positive in tableau.literals
    ]
    literals = {}
    for state, old in tableau.old_sets.items():
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
    # budget tick.  Nodes are explored breadth-first and ``parent`` keeps the
    # first edge into each, the tree the lasso search reads.  ``quiet[node]``
    # lists the quiet edges (no issuance, all names doing bot), at most one
    # per state as each status has one quiet option: only they may form the
    # lasso loop, which keeps every witness a finite run.  The move of a
    # (state, statuses) pair is built once, on first use, and replayed for
    # every later node reaching it; a replay is charged its joint choices
    # again, as if they were enumerated anew.  A name's row of a status is
    # built when a node first holds the status, which only a charged joint
    # choice (or the start) leads to, so rows cost no ticks of their own: a
    # group builds at most ticks x names + 1 of them.
    next_mask = {state: id(successors) for state, successors in tableau.edges.items()}
    start = (id(tableau.initial), (0,) * len(tables))
    parent: dict[tuple, tuple | None] = {start: None}
    nodes = [start]  # breadth-first: read while it grows
    quiet: dict[tuple, list] = {}
    moves: dict[tuple, list] = {}  # per statuses, each state's move or None
    ticks = 0
    for node in nodes:
        mask, statuses = node
        node_quiet = quiet[node] = []
        row_moves = moves.get(statuses)
        if row_moves is None:
            row_moves = moves[statuses] = [None] * len(tableau.old_sets)
            for space, status in zip(spaces, statuses):
                if space.rows[status] is None:
                    space.build(status)
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
                if edge[0] not in parent:
                    parent[edge[0]] = (node, edge)
                    nodes.append(edge[0])
            if quiet_edge is not None:
                node_quiet.append(quiet_edge)

    lasso = accepting_lasso(parent, quiet.__getitem__, tableau.accept_sets)
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
