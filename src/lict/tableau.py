"""The tableau of the target temporal logic: obligation graph and lasso search.

The formula is put in negation normal form and expanded on the fly into a
graph of obligation states (the classic expansion-graph construction): each
state records what must hold now and what is postponed to the next step.
Until-formulas contribute generalized acceptance sets of states.  Read as a
transition-based generalized Buchi automaton, a next-obligation mask is an
automaton state and each state of the graph is a transition out of every
mask whose successor list holds it; a model is a reachable lasso whose cycle
takes a transition from every acceptance set.

An obligation set is one Python int with a bit per interned NNF subformula.
The closure ids are ranked once by ``(kind, id)`` and bit ``r`` stands for
the id of rank ``r``, so the cheapest pending obligation (falsum, literals,
conjunctions before any disjunctive split) is the lowest set bit, ``x & -x``:
contradictions are pruned early and the construction is deterministic.

:mod:`lict.licsat` runs this search over the product with its run space;
deciding a target formula on the tableau alone is the oracle
``lict.reference.ltl_sat``.

Construction work is metered: exceeding the node budget raises
:class:`BudgetExceededError`, an outcome deliberately distinct from "unsat".
"""

from __future__ import annotations

from collections import deque

from .formulas import Always, And, Formula, Next, Not, Truth, Until

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """The search exceeded its node budget before reaching an answer."""


# ---------------------------------------------------------------------------
# Negation normal form, interned

# The expansion works on interned formula ids rather than AST nodes; the
# kinds are numbered in the order their obligations are processed.

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


class Tableau:
    """The expanded obligation graph of one formula.

    ``old_sets[state]`` is the state's obligation mask over the ranked
    closure ids; ``accept_sets`` hold state ids, one set per until.  A
    state's successors depend only on its next-obligation mask, so
    ``edges[state]`` is the sorted successor list of that mask, one list
    object shared by every state holding the mask, and ``initial`` is the
    list of the root's mask.  ``literals`` holds one ``(bit, atom,
    polarity)`` per literal of the closure, the bit over the ranked ids.
    These lists are read-only.
    """

    def __init__(self, literals: tuple[tuple[int, Formula, bool], ...]):
        self.literals = literals
        self.old_sets: dict[int, int] = {}
        self.edges: dict[int, list[int]] = {}
        self.initial: list[int] = []
        self.accept_sets: list[frozenset[int]] = []


def _expand(
    mask: int, table: list[tuple[int, int, int]], allowance: int
) -> tuple[list[tuple[int, int]], int]:
    """The ordered leaves ``(old, next)`` of one mask's expansion, and its ticks.

    Pending nodes are ``(new, old, next)`` masks on a stack and every pop is
    one tick; the expansion stops once it has used more than ``allowance``.
    """
    leaves = []
    pending = [(mask, 0, 0)]
    ticks = 0
    while pending:
        ticks += 1
        if ticks > allowance:
            break
        new, old, nxt = pending.pop()
        if not new:
            leaves.append((old, nxt))
            continue
        low = new & -new
        new ^= low
        if old & low:
            pending.append((new, old, nxt))
            continue
        kind, first, second = table[low.bit_length() - 1]
        if kind == _KIND_TRUE:
            pending.append((new, old, nxt))
        elif kind == _KIND_FALSE:
            continue
        elif kind == _KIND_LIT:
            if not old & first:
                pending.append((new, old | low, nxt))
        elif kind == _KIND_AND:
            pending.append((new | first | second, old | low, nxt))
        elif kind == _KIND_X:
            pending.append((new, old | low, nxt | first))
        elif kind == _KIND_OR:
            pending.append((new | first, old | low, nxt))
            pending.append((new | second, old | low, nxt))
        elif kind == _KIND_UNTIL:
            pending.append((new | first, old | low, nxt | low))
            pending.append((new | second, old | low, nxt))
        else:  # release
            pending.append((new | second, old | low, nxt | low))
            pending.append((new | first | second, old | low, nxt))
    return leaves, ticks


def build_tableau(closure: _Closure, budget: int = DEFAULT_BUDGET) -> Tableau:
    """Expand an interned NNF formula into its obligation graph.

    A state is keyed by its ``(old, next)`` masks.  The root's mask and each
    distinct next mask are expanded once (``_expand``) into an ordered list
    of leaves.  The lists are walked depth first from the root's, a new
    state's list at once, which numbers the states as one stack-based
    expansion per state would; a list whose leaves are all states already
    is not walked again.  Every use of a list is charged the ticks of its
    expansion, so the budget still counts one expansion per state.
    """
    kinds = closure.kinds
    ranked = [index for _, index in sorted(zip(kinds, range(len(kinds))))]
    bits = [0] * len(ranked)
    for rank, index in enumerate(ranked):
        bits[index] = 1 << rank
    # per rank: kind and two operand masks (a literal's first is its complement)
    table = []
    for index in ranked:
        operands = [bits[arg] for arg in closure.args[index]] + [0, 0]
        if kinds[index] == _KIND_LIT:
            operands[0] = bits[closure.complement[index]]
        table.append((kinds[index], operands[0], operands[1]))

    expansions: dict[int, tuple[list[tuple[int, int]], int]] = {}
    ticks = 0

    def leaves(mask: int) -> list[tuple[int, int]]:
        nonlocal ticks
        expansion = expansions.get(mask)
        if expansion is None:
            expansion = expansions[mask] = _expand(mask, table, budget - ticks)
        ticks += expansion[1]
        if ticks > budget:
            raise BudgetExceededError(f"tableau exceeded its budget of {budget} nodes")
        return expansion[0]

    stored: dict[tuple[int, int], int] = {}  # the state of each (old, next) leaf
    successors: dict[int, list[int]] = {}  # per mask whose leaves are all states
    root = bits[closure.root]
    walk = [(root, iter(leaves(root)))]
    while walk:
        mask, pending = walk[-1]
        for leaf in pending:
            if leaf not in stored:
                stored[leaf] = len(stored)
                found = leaves(leaf[1])
                if leaf[1] not in successors:
                    walk.append((leaf[1], iter(found)))
                break
        else:
            walk.pop()
            if mask not in successors:
                successors[mask] = sorted(set(map(stored.__getitem__, expansions[mask][0])))

    tableau = Tableau(tuple(
        (bits[index], *literal) for index, literal in enumerate(closure.literals) if literal is not None
    ))
    tableau.old_sets = olds = {state: old for (old, _), state in stored.items()}
    tableau.edges = {state: successors[nxt] for (_, nxt), state in stored.items()}
    tableau.initial = successors[root]

    for until in closure.untils():
        pending_bit, right = bits[until], bits[closure.args[until][1]]
        tableau.accept_sets.append(frozenset(
            state for state, old in olds.items() if not old & pending_bit or old & right
        ))
    return tableau


# ---------------------------------------------------------------------------
# Lasso search (generalized Buchi emptiness over explicit edge-labelled graphs)


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


def _bfs_path(source, successors, allowed, goal):
    """The fewest edges from ``source`` inside ``allowed`` whose last meets ``goal``."""
    parent = {source: None}  # node -> (previous node, edge into it)
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for edge in successors(node):
            if edge[0] not in allowed:
                continue
            if goal(edge):
                path = [edge]
                while parent[node] is not None:
                    node, step = parent[node]
                    path.append(step)
                return path[::-1]
            if edge[0] not in parent:
                parent[edge[0]] = (node, edge)
                queue.append(edge[0])
    return None


def accepting_lasso(initial, succ_all, succ_loop, accept_sets):
    """Find a lasso: any path to a cycle of loop edges whose labels meet every accept set.

    An edge is a tuple ``(target, label, ...)``; any further items ride
    along.  ``succ_loop(node)`` lists a node's loop edges, whose targets must
    be among those of ``succ_all(node)``, and an accept set holds labels.
    Returns (prefix edges, cycle edges): the prefix leads from an initial
    node to the cycle's first node and the cycle returns to it; or None when
    no such lasso exists.
    """
    order: dict = {}
    parent: dict = {}  # node -> (previous node, edge into it), None when initial
    queue = deque()
    for node in initial:
        if node not in order:
            order[node] = len(order)
            parent[node] = None
            queue.append(node)
    while queue:
        node = queue.popleft()
        for edge in succ_all(node):
            if edge[0] not in order:
                order[edge[0]] = len(order)
                parent[edge[0]] = (node, edge)
                queue.append(edge[0])

    chosen = None
    for component in _tarjan(list(order), lambda node: [edge[0] for edge in succ_loop(node)]):
        members = set(component)
        # every edge inside a strongly connected component lies on a cycle
        labels = {edge[1] for node in component for edge in succ_loop(node) if edge[0] in members}
        if labels and all(not labels.isdisjoint(acc) for acc in accept_sets):
            chosen = members
            break
    if chosen is None:
        return None

    # BFS numbers nodes level by level, so the first in order is the shallowest
    entry = min(chosen, key=order.get)
    prefix = []
    walker = entry
    while parent[walker] is not None:
        walker, edge = parent[walker]
        prefix.append(edge)
    prefix.reverse()

    cycle = []
    current = entry
    for acc in accept_sets:
        if not any(edge[1] in acc for edge in cycle):
            cycle += _bfs_path(current, succ_loop, chosen, lambda edge, acc=acc: edge[1] in acc)
            current = cycle[-1][0]
    if current != entry or not cycle:
        cycle += _bfs_path(current, succ_loop, chosen, lambda edge: edge[0] == entry)
    return prefix, cycle
