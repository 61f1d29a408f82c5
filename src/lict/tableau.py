"""The tableau of the target temporal logic: transition graph and lasso search.

The formula is put in negation normal form and turned into a generalized
Buchi automaton by the transition construction of Gastin & Oddoux ("Fast
LTL to Buchi automata translation", CAV 2001, sections 3-4).  A transition
is a cube: the literals that must hold now, the mask of subformulas
postponed to the next step, and the acceptance sets it is in, one per
until.  The cubes of each NNF subformula are built bottom-up from its
operands' (a conjunction is the product of its parts' cube sets, a
disjunction their union, and an until or release its one-step unfolding),
and the cubes of a next mask are the product over its subformulas.
Dominated cubes are dropped at every product and union: a cube goes when
another of the same next mask asks for a subset of its literals and is in
every acceptance set it is in, as every run through it has a run through
the other that is accepted whenever it is.

A state of the graph is one distinct cube, and it is a transition out of
every mask whose successor list holds it; a model is a reachable lasso
whose cycle takes a transition from every acceptance set.

The lasso search reads the breadth-first tree its caller's exploration
built and stops at the first accepting component Tarjan's algorithm closes.
:mod:`lict.licsat` runs it over the product with its run space; deciding a
target formula on the tableau alone is the oracle ``lict.reference.ltl_sat``.

Construction work is metered: each product of two cube sets costs its
cube pairs, and each cube put into a set costs the cubes it is checked
against for dominance, all charged before the work is done.  Exceeding the
budget raises :class:`BudgetExceededError`, an outcome deliberately
distinct from "unsat".
"""

from __future__ import annotations

from collections import deque

from .formulas import Always, And, Formula, Next, Not, Truth, Until

DEFAULT_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """The search exceeded its node budget before reaching an answer."""


# ---------------------------------------------------------------------------
# Negation normal form, interned

# The construction works on interned formula ids rather than AST nodes; the
# kinds are numbered in the order lict.reference's stack-based expansion
# processes their obligations.

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
# Transition graph


class Tableau:
    """The transition graph of one formula.

    ``old_sets[state]`` is the state's literal mask, one bit per literal of
    the closure; ``accept_sets`` hold state ids, one set per until.  A
    state's successors depend only on its next mask, so ``edges[state]`` is
    the sorted successor list of that mask, one list object shared by every
    state holding the mask, and ``initial`` is the list of the root's mask.
    ``literals`` holds one ``(bit, atom, polarity)`` per literal of the
    closure.  These lists are read-only.
    """

    def __init__(self, literals: tuple[tuple[int, Formula, bool], ...]):
        self.literals = literals
        self.old_sets: dict[int, int] = {}
        self.edges: dict[int, list[int]] = {}
        self.initial: list[int] = []
        self.accept_sets: list[frozenset[int]] = []


def _add(keys: list[int], key: int) -> None:
    """Put a cube's key among the keys of its next mask, keeping none dominated.

    A key is the cube's literal bits with, above them, a bit per acceptance
    set it is not in, so ``kept`` dominates ``key`` exactly when its bits are
    a subset of key's.  Of equal cubes the first stays.
    """
    for kept in keys:
        if kept | key == key:
            return
        if key | kept == kept:
            # kept keys never dominate each other, so none dominates key
            keys[:] = [other for other in keys if key | other != other]
            break
    keys.append(key)


def build_tableau(closure: _Closure, budget: int = DEFAULT_BUDGET) -> Tableau:
    """Build the transition graph of an interned NNF formula.

    A cube set maps each next mask (a bit per closure id) to the keys of its
    cubes (see ``_add``).  A literal and its complement take two adjacent
    bits, the lower one even, so a cube holding both shows as a pair and a
    product drops it.  The cube set of each closure id is built once,
    operands first, and that of each next mask once, in the order a walk
    from the root's mask reaches them, which numbers the states.
    """
    kinds, args = closure.kinds, closure.args
    literal_bits: dict[int, int] = {}
    for index, literal in enumerate(closure.literals):
        if literal is not None and index not in literal_bits:
            low = 1 << len(literal_bits)
            literal_bits[index], literal_bits[closure.complement[index]] = low, low << 1
    width = len(literal_bits)
    clashes = ((1 << width) - 1) // 3  # the lower bit of every pair
    postponed = {until: 1 << (width + number) for number, until in enumerate(closure.untils())}
    ticks = 0
    exceeded = f"tableau exceeded its budget of {budget} ticks"

    def product(left: dict[int, list[int]], right: dict[int, list[int]]) -> dict[int, list[int]]:
        nonlocal ticks
        ticks += sum(map(len, left.values())) * sum(map(len, right.values()))
        if ticks > budget:
            raise BudgetExceededError(exceeded)
        cubes: dict[int, list[int]] = {}
        for left_next, left_keys in left.items():
            for right_next, right_keys in right.items():
                keys = None
                for left_key in left_keys:
                    for right_key in right_keys:
                        key = left_key | right_key
                        if key & key >> 1 & clashes:
                            continue
                        if keys is None:
                            keys = cubes.setdefault(left_next | right_next, [])
                        ticks += len(keys)
                        if ticks > budget:
                            raise BudgetExceededError(exceeded)
                        _add(keys, key)
        return cubes

    def union(left: dict[int, list[int]], right: dict[int, list[int]]) -> dict[int, list[int]]:
        nonlocal ticks
        cubes = {nxt: keys[:] for nxt, keys in left.items()}
        for nxt, keys in right.items():
            kept = cubes.setdefault(nxt, [])
            for key in keys:
                ticks += len(kept) + 1
                if ticks > budget:
                    raise BudgetExceededError(exceeded)
                _add(kept, key)
        return cubes

    # Per closure id its cube set, built on an explicit stack; ids are in
    # post-order, and a next needs no cubes of its operand.
    transitions: list[dict[int, list[int]] | None] = [None] * len(kinds)

    def cubes_of(index: int) -> dict[int, list[int]]:
        stack = [index]
        while stack:
            top = stack[-1]
            if transitions[top] is not None:
                stack.pop()
                continue
            kind = kinds[top]
            missing = [] if kind == _KIND_X else [arg for arg in args[top] if transitions[arg] is None]
            if missing:
                stack += missing
                continue
            stack.pop()
            parts = [transitions[arg] for arg in args[top]]
            if kind == _KIND_TRUE:
                cubes = {0: [0]}
            elif kind == _KIND_FALSE:
                cubes = {}
            elif kind == _KIND_LIT:
                cubes = {0: [literal_bits[top]]}
            elif kind == _KIND_X:
                cubes = {1 << args[top][0]: [0]}
            elif kind == _KIND_AND:
                cubes = product(*parts)
            elif kind == _KIND_OR:
                cubes = union(*parts)
            elif kind == _KIND_UNTIL:
                cubes = union(parts[1], product(parts[0], {1 << top: [postponed[top]]}))
            else:  # release
                cubes = union(product(*parts), product(parts[1], {1 << top: [0]}))
            transitions[top] = cubes
        return transitions[index]

    states: dict[tuple[int, int], int] = {}  # the state of each (next, key) cube
    successors: dict[int, list[int]] = {}  # per next mask
    masks = [1 << closure.root]
    successors[masks[0]] = []
    for mask in masks:  # grows as new next masks are reached
        cubes = {0: [0]}  # the true cube, so every mask's cubes are charged
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            cubes = product(cubes, cubes_of(low.bit_length() - 1))
        listed = successors[mask]
        for nxt, keys in cubes.items():
            if nxt not in successors:
                successors[nxt] = []
                masks.append(nxt)
            listed += [states.setdefault((nxt, key), len(states)) for key in keys]
        listed.sort()

    tableau = Tableau(tuple(
        (literal_bits[index], *literal) for index, literal in enumerate(closure.literals) if literal is not None
    ))
    literal_mask = (1 << width) - 1
    tableau.old_sets = {state: key & literal_mask for (_, key), state in states.items()}
    tableau.edges = {state: successors[nxt] for (nxt, _), state in states.items()}
    tableau.initial = successors[masks[0]]
    for bit in postponed.values():
        tableau.accept_sets.append(frozenset(state for (_, key), state in states.items() if not key & bit))
    return tableau


# ---------------------------------------------------------------------------
# Lasso search (generalized Buchi emptiness over an explicit graph's BFS tree)


def _tarjan(nodes, successors):
    """Yield the strongly connected components reachable from ``nodes``, each as it closes."""
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
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
                yield component


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


def accepting_lasso(parent, succ_loop, accept_sets):
    """Find a lasso: a tree path to a cycle of loop edges whose labels meet every accept set.

    ``parent`` is a breadth-first tree of the graph, a dict in the order its
    nodes were met, mapping each node to ``(previous node, edge into it)``,
    or to None for a root.  An edge is a tuple ``(target, label, ...)``; any
    further items ride along.  ``succ_loop(node)`` lists a node's loop
    edges, whose targets must be in the tree, and an accept set holds
    labels.  Returns (prefix edges, cycle edges): the prefix leads from a
    root to the cycle's first node and the cycle returns to it; or None when
    no such lasso exists.
    """
    chosen = None
    for component in _tarjan(parent, lambda node: [edge[0] for edge in succ_loop(node)]):
        members = set(component)
        # every edge inside a strongly connected component lies on a cycle
        labels = {edge[1] for node in component for edge in succ_loop(node) if edge[0] in members}
        if labels and all(not labels.isdisjoint(acc) for acc in accept_sets):
            chosen = members
            break
    if chosen is None:
        return None

    # the tree lists nodes level by level, so its first member is the shallowest
    entry = next(node for node in parent if node in chosen)
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
