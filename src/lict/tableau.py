"""Tableau-based satisfiability for the target temporal logic.

The formula is put in negation normal form and expanded on the fly into a
graph of obligation states (the classic expansion-graph construction): each
state records what must hold now and what is postponed to the next step.
Until-formulas contribute generalized acceptance sets, and a model is found
as a reachable lasso whose cycle honors every acceptance set.  The witness
is an ultimately periodic word labeling each state with the propositions it
requires to be true.

Construction work is metered: exceeding the node budget raises
:class:`BudgetExceededError`, an outcome deliberately distinct from "unsat".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .formulas import Always, And, Formula, Next, Not, Truth, Until
from .ltl import LinearStructure, ltl_eval

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """The search exceeded its node budget before reaching an answer."""


# ---------------------------------------------------------------------------
# Negation normal form, interned

# The expansion works on interned formula ids rather than AST nodes:
# obligation sets hash fast, and processing picks the cheapest obligation
# first (falsum, literals, conjunctions before any disjunctive split), which
# both prunes contradictions early and makes the construction deterministic.

_KIND_FALSE, _KIND_TRUE, _KIND_LIT, _KIND_AND, _KIND_X, _KIND_RELEASE, _KIND_OR, _KIND_UNTIL = range(8)

_TRUTH = Truth()


def _strip(formula: Formula, positive: bool) -> tuple[Formula, bool]:
    """Drop leading negations into the polarity."""
    while isinstance(formula, Not):
        formula = formula.operand
        positive = not positive
    return formula, positive


def _shape(formula: Formula, positive: bool) -> tuple[int, tuple]:
    """The NNF kind of a formula under a polarity, and its (operand, polarity)s.

    Box becomes release(false, body), its dual until(true, negated body).
    """
    if isinstance(formula, Truth):
        return (_KIND_TRUE if positive else _KIND_FALSE), ()
    if isinstance(formula, And):
        kind = _KIND_AND if positive else _KIND_OR
        return kind, (_strip(formula.left, positive), _strip(formula.right, positive))
    if isinstance(formula, Next):
        return _KIND_X, (_strip(formula.operand, positive),)
    if isinstance(formula, Always):
        if positive:
            return _KIND_RELEASE, ((_TRUTH, False), _strip(formula.operand, True))
        return _KIND_UNTIL, ((_TRUTH, True), _strip(formula.operand, False))
    if isinstance(formula, Until):
        kind = _KIND_UNTIL if positive else _KIND_RELEASE
        return kind, (_strip(formula.left, positive), _strip(formula.right, positive))
    if isinstance(formula, Formula):
        return _KIND_LIT, ()
    raise TypeError(f"not a formula: {formula!r}")


class _Closure:
    """The hash-consed NNF subformulas of one root, as parallel id arrays.

    ``kinds[i]``, ``args[i]`` (child ids) and ``literals[i]`` ((atom,
    polarity) for literals, else None) describe node ``i``; equal NNF
    subformulas share one id, and ids are assigned in post-order, left
    operand first.
    """

    def __init__(self, root: Formula):
        self._ids: dict[tuple, int] = {}
        self.kinds: list[int] = []
        self.args: list[tuple[int, ...]] = []
        self.literals: list[tuple[Formula, bool] | None] = []
        self.root = self._read(*_strip(root, True))
        # pair every literal with its complement up front
        literals = [literal for literal in self.literals if literal is not None]
        for atom, positive in literals:
            self._intern(_KIND_LIT, (), (atom, not positive))
        self.complement = {
            index: self._ids[(_KIND_LIT, (), (literal[0], not literal[1]))]
            for index, literal in enumerate(self.literals)
            if literal is not None
        }

    def _intern(self, kind: int, args: tuple[int, ...], literal=None) -> int:
        key = (kind, args, literal)
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self.kinds)
            self.kinds.append(kind)
            self.args.append(args)
            self.literals.append(literal)
        return found

    def _read(self, root: Formula, positive: bool) -> int:
        # explicit-stack post-order, memoised per (subformula object, polarity)
        # so shared subtrees are read once
        memo: dict[tuple[int, bool], int] = {}
        stack: list = [(root, positive, None)]
        while stack:
            formula, sign, shape = stack.pop()
            key = (id(formula), sign)
            if shape is None:
                if key in memo:
                    continue
                shape = _shape(formula, sign)
                stack.append((formula, sign, shape))
                stack.extend((operand, polarity, None) for operand, polarity in reversed(shape[1]))
                continue
            kind, operands = shape
            args = tuple(memo[(id(operand), polarity)] for operand, polarity in operands)
            literal = (formula, sign) if kind == _KIND_LIT else None
            memo[key] = self._intern(kind, args, literal)
        return memo[(id(root), positive)]

    def untils(self) -> list[int]:
        # complements added after the root walk are literals, so every until
        # here is a genuine subformula of the root
        return [index for index, kind in enumerate(self.kinds) if kind == _KIND_UNTIL]


def to_nnf(formula: Formula) -> _Closure:
    """Push negations to the literals and intern every NNF subformula."""
    return _Closure(formula)


# ---------------------------------------------------------------------------
# Expansion graph


class _Expansion:
    __slots__ = ("incoming", "new", "old", "nxt")

    def __init__(self, incoming, new, old, nxt):
        self.incoming = incoming
        self.new = new
        self.old = old
        self.nxt = nxt

    def fork(self):
        return _Expansion(set(self.incoming), set(self.new), set(self.old), set(self.nxt))


INIT = -1


class Tableau:
    """The expanded obligation graph of one formula."""

    def __init__(self, closure: _Closure):
        self._closure = closure
        self.old_sets: dict[int, frozenset[int]] = {}
        self.edges: dict[int, list[int]] = {}
        self.initial: list[int] = []
        self.accept_sets: list[frozenset[int]] = []

    def _props(self, state: int, positive: bool) -> frozenset:
        literals = self._closure.literals
        return frozenset(
            literals[index][0]
            for index in self.old_sets[state]
            if literals[index] is not None and literals[index][1] == positive
        )

    def positive_props(self, state: int) -> frozenset:
        return self._props(state, True)

    def negative_props(self, state: int) -> frozenset:
        return self._props(state, False)


def build_tableau(closure: _Closure, budget: int = DEFAULT_BUDGET) -> Tableau:
    """Expand an interned NNF formula into its obligation graph."""
    kinds = closure.kinds
    args = closure.args
    complement = closure.complement

    stored: dict[tuple[frozenset, frozenset], int] = {}
    incoming: dict[int, set[int]] = {}
    olds: dict[int, frozenset] = {}
    pending: list[_Expansion] = [_Expansion({INIT}, {closure.root}, set(), set())]
    ticks = 0
    next_id = 0

    while pending:
        ticks += 1
        if ticks > budget:
            raise BudgetExceededError(f"tableau exceeded its budget of {budget} nodes")
        node = pending.pop()
        if not node.new:
            key = (frozenset(node.old), frozenset(node.nxt))
            existing = stored.get(key)
            if existing is not None:
                incoming[existing] |= node.incoming
                continue
            state = next_id
            next_id += 1
            stored[key] = state
            incoming[state] = set(node.incoming)
            olds[state] = key[0]
            pending.append(_Expansion({state}, set(node.nxt), set(), set()))
            continue
        formula = min(node.new, key=lambda index: (kinds[index], index))
        node.new.discard(formula)
        if formula in node.old:
            pending.append(node)
            continue
        kind = kinds[formula]
        if kind == _KIND_TRUE:
            pending.append(node)
        elif kind == _KIND_FALSE:
            continue
        elif kind == _KIND_LIT:
            if complement[formula] in node.old:
                continue
            node.old.add(formula)
            pending.append(node)
        elif kind == _KIND_AND:
            node.old.add(formula)
            node.new.update(args[formula])
            pending.append(node)
        elif kind == _KIND_X:
            node.old.add(formula)
            node.nxt.add(args[formula][0])
            pending.append(node)
        elif kind == _KIND_OR:
            node.old.add(formula)
            left = node.fork()
            left.new.add(args[formula][0])
            node.new.add(args[formula][1])
            pending.append(left)
            pending.append(node)
        elif kind == _KIND_UNTIL:
            node.old.add(formula)
            postponed = node.fork()
            postponed.new.add(args[formula][0])
            postponed.nxt.add(formula)
            node.new.add(args[formula][1])
            pending.append(postponed)
            pending.append(node)
        else:  # release
            node.old.add(formula)
            postponed = node.fork()
            postponed.new.add(args[formula][1])
            postponed.nxt.add(formula)
            node.new.add(args[formula][0])
            node.new.add(args[formula][1])
            pending.append(postponed)
            pending.append(node)

    tableau = Tableau(closure)
    tableau.old_sets = olds
    tableau.edges = {state: [] for state in olds}
    for state, sources in incoming.items():
        for source in sorted(sources):
            if source == INIT:
                tableau.initial.append(state)
            else:
                tableau.edges[source].append(state)
    tableau.initial.sort()
    for edge_list in tableau.edges.values():
        edge_list.sort()

    for until in closure.untils():
        right = args[until][1]
        members = frozenset(
            state
            for state, old in olds.items()
            if until not in old or right in old
        )
        tableau.accept_sets.append(members)
    return tableau


# ---------------------------------------------------------------------------
# Lasso search (generalized Buchi emptiness over explicit graphs)


def _tarjan(nodes, successors):
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, iterator = work[-1]
            advanced = False
            for child in iterator:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    onstack.add(child)
                    work.append((child, iter(successors(child))))
                    advanced = True
                    break
                if child in onstack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    onstack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def _bfs_path(source, target, successors, allowed):
    if source == target:
        return [source]
    parent = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for child in successors(node):
            if child not in allowed or child in parent:
                continue
            parent[child] = node
            if child == target:
                path = [child]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(child)
    return None


def accepting_lasso(initial, succ_all, succ_loop, accept_sets):
    """Find a lasso: any path to a cycle of loop edges hitting every accept set.

    Returns (prefix nodes, loop nodes) where the loop starts right after the
    prefix and wraps onto itself, or None when no such lasso exists.
    """
    order: dict = {}
    parent: dict = {}
    queue = deque()
    for node in initial:
        if node not in order:
            order[node] = len(order)
            parent[node] = None
            queue.append(node)
    while queue:
        node = queue.popleft()
        for child in succ_all(node):
            if child not in order:
                order[child] = len(order)
                parent[child] = node
                queue.append(child)

    loop_successors = {
        node: [child for child in succ_loop(node) if child in order] for node in order
    }.__getitem__

    chosen = None
    nodes_in_order = list(order)
    for component in _tarjan(nodes_in_order, loop_successors):
        members = set(component)
        has_cycle = len(component) > 1 or any(
            node in loop_successors(node) for node in component
        )
        if not has_cycle:
            continue
        if all(members & acc for acc in accept_sets):
            chosen = members
            break
    if chosen is None:
        return None

    def depth(node):
        steps = 0
        while parent[node] is not None:
            node = parent[node]
            steps += 1
        return steps

    entry = min(chosen, key=lambda node: (depth(node), order[node]))
    prefix = []
    walker = entry
    while parent[walker] is not None:
        walker = parent[walker]
        prefix.append(walker)
    prefix.reverse()

    cycle = [entry]
    current = entry
    for acc in accept_sets:
        if any(node in acc for node in cycle):
            continue
        target = min(chosen & acc, key=order.get)
        segment = _bfs_path(current, target, loop_successors, chosen)
        cycle.extend(segment[1:])
        current = target
    if current != entry:
        segment = _bfs_path(current, entry, loop_successors, chosen)
        cycle.extend(segment[1:-1])
    if len(cycle) == 1:
        closers = loop_successors(entry)
        if entry not in closers:
            best = None
            for child in sorted(set(closers) & chosen, key=order.get):
                segment = _bfs_path(child, entry, loop_successors, chosen)
                if segment is not None and (best is None or len(segment) < len(best)):
                    best = segment
            cycle.extend(best[:-1])
    return prefix, cycle


# ---------------------------------------------------------------------------
# Satisfiability


@dataclass
class SatResult:
    status: str  # "sat" | "unsat" | "budget"
    witness: LinearStructure | None = None


def ltl_sat(formula: Formula, budget: int = DEFAULT_BUDGET) -> SatResult:
    """Decide satisfiability; on sat, ship an ultimately periodic witness.

    The witness labels states with exactly the propositions the tableau path
    requires to be true, and is re-checked with ``ltl_eval`` before being
    returned.
    """
    try:
        tableau = build_tableau(to_nnf(formula), budget)
    except BudgetExceededError:
        return SatResult("budget")

    def successors(state):
        return tableau.edges[state]

    lasso = accepting_lasso(
        tableau.initial, successors, successors, tableau.accept_sets
    )
    if lasso is None:
        return SatResult("unsat")
    prefix_ids, loop_ids = lasso
    witness = LinearStructure(
        prefix=tuple(tableau.positive_props(state) for state in prefix_ids),
        loop=tuple(tableau.positive_props(state) for state in loop_ids),
    )
    if not ltl_eval(witness, 0, formula):
        raise RuntimeError("internal error: tableau witness failed evaluation")
    return SatResult("sat", witness)
