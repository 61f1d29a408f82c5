"""The temporal core and the license logic built on it.

One formula AST serves both temporal logics of the toolkit.  Its connectives
(``Truth``, ``Not``, ``And``, ``Next``, ``Always``, ``Until``) are shared; the
two logics differ only in their atoms.  The license logic's atoms, defined
here, speak about issued licenses, the actions a client performs, and the
actions the client is permitted to perform; the target logic's atoms live in
:mod:`lict.ltl`.  Every atom renders itself, so one printer, one size
function, one atom walker and one evaluator serve both logics.

Obligation is an abbreviation: being obligated to do an action means no
other action is permitted for that license name.  Temporal operators are
evaluated over an ultimately periodic model (a prefix plus a loop): for a
finite run that is its infinite extension, in which nothing further is
issued and every name does ``bot`` forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .licenses import (
    BOT,
    Action,
    License,
    fold_balanced,
    pretty_action,
    pretty_license,
)
from .runs import PermissionInterpretation, Run, compute_permissions


@dataclass(frozen=True)
class ActionExpr:
    """An action paired with a license name, or its per-name complement.

    The complement of (a, n) covers every action other than a done with
    respect to the same name n; it never says anything about other names.
    """

    positive: bool
    action: Action
    name: str


def expr_matches(expr: ActionExpr, action: Action, name: str) -> bool:
    """Whether the action expression covers ``action`` done by ``name``."""
    if name != expr.name:
        return False
    if expr.positive:
        return action == expr.action
    return action != expr.action


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Truth(Formula):
    """The constant true formula (the empty conjunction)."""

    def pretty(self) -> str:
        return "true"


@dataclass(frozen=True)
class Issue(Formula):
    """A license is being issued right now under the given name."""

    name: str
    license: License

    def pretty(self) -> str:
        return f"issue({self.name}, {pretty_license(self.license)})"


@dataclass(frozen=True)
class Act(Formula):
    """The client performs an action matching the expression right now."""

    expr: ActionExpr

    def pretty(self) -> str:
        return _pair(self.expr)


@dataclass(frozen=True)
class Perm(Formula):
    """Some action matching the expression is permitted right now."""

    expr: ActionExpr

    def pretty(self) -> str:
        return f"P{_pair(self.expr)}"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


_UNARY_NODES = (Not, Next, Always)
_BINARY_NODES = (And, Until)


# Derived forms normalize to the core connectives at construction time; the
# pretty printer re-sugars the recognizable patterns.

def f_or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def f_implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def f_eventually(operand: Formula) -> Formula:
    return Not(Always(Not(operand)))


def f_oblig(action: Action, name: str) -> Formula:
    """O(a, n): the client must do a, i.e. nothing else is permitted on n."""
    return Not(Perm(ActionExpr(False, action, name)))


def f_and_all(parts: Iterable[Formula]) -> Formula:
    """Conjoin as a balanced tree (keeps nesting shallow for long lists)."""
    parts = list(parts)
    return fold_balanced(parts, And) if parts else Truth()


def f_nexts(formula: Formula, count: int) -> Formula:
    for _ in range(count):
        formula = Next(formula)
    return formula


def _children(node: Formula) -> tuple:
    if isinstance(node, _UNARY_NODES):
        return (node.operand,)
    if isinstance(node, _BINARY_NODES):
        return (node.left, node.right)
    return ()


def formula_atoms(formula: Formula) -> frozenset[Formula]:
    """Every atom of the formula: each leaf other than ``Truth``."""
    atoms = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        children = _children(node)
        if children:
            stack.extend(children)
        elif not isinstance(node, Truth):
            atoms.add(node)
    return frozenset(atoms)


def formula_size(formula: Formula) -> int:
    """Number of AST nodes, atoms counting one each."""
    size = 0
    stack = [formula]
    while stack:
        size += 1
        stack.extend(_children(stack.pop()))
    return size


def map_atoms(formula: Formula, atom_map: Callable[[Formula], Formula]) -> Formula:
    """The formula with every atom replaced by its image; connectives kept."""
    if isinstance(formula, _UNARY_NODES):
        return type(formula)(map_atoms(formula.operand, atom_map))
    if isinstance(formula, _BINARY_NODES):
        return type(formula)(
            map_atoms(formula.left, atom_map), map_atoms(formula.right, atom_map)
        )
    if isinstance(formula, Truth):
        return formula
    return atom_map(formula)


def lasso_eval(
    prefix_len: int,
    loop_len: int,
    atom_holds: Callable[[int, Formula], bool],
    t: int,
    formula: Formula,
) -> bool:
    """Truth of a formula at time t of an ultimately periodic model.

    The model has ``prefix_len`` prefix times followed by a loop of
    ``loop_len`` times repeated forever; ``atom_holds(time, atom)`` reads an
    atom at a canonical time.  Box and until are decided on the lasso, and
    results are memoized per (canonical time, subformula).  Times before 0
    are not part of the model and raise ``ValueError``.
    """
    if t < 0:
        raise ValueError(f"time {t} is negative; the model starts at time 0")
    memo: dict[tuple[int, int], bool] = {}

    def canonical(time: int) -> int:
        if time < prefix_len:
            return time
        return prefix_len + (time - prefix_len) % loop_len

    def recur(time: int, node: Formula) -> bool:
        time = canonical(time)
        key = (time, id(node))
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = _clause(time, node)
        memo[key] = result
        return result

    def _clause(time: int, node: Formula) -> bool:
        if isinstance(node, Not):
            return not recur(time, node.operand)
        if isinstance(node, And):
            return recur(time, node.left) and recur(time, node.right)
        if isinstance(node, Next):
            return recur(time + 1, node.operand)
        if isinstance(node, Always):
            start = time if time < prefix_len else prefix_len
            return all(recur(j, node.operand) for j in range(start, prefix_len + loop_len))
        if isinstance(node, Until):
            for j in range(time, prefix_len + 2 * loop_len):
                if recur(j, node.right):
                    return True
                if not recur(j, node.left):
                    return False
            return False
        if isinstance(node, Truth):
            return True
        return atom_holds(time, node)

    return recur(t, formula)


def evaluate(run: Run, perms: PermissionInterpretation, t: int, formula: Formula) -> bool:
    """Truth of a license-logic formula in a run at time t.

    ``perms`` must be the permission interpretation computed from ``run``;
    the model is the run's ultimately periodic extension.
    """

    def atom_holds(time: int, node: Formula) -> bool:
        if isinstance(node, Issue):
            return (node.name, node.license) in run.licenses_at(time)
        if isinstance(node, Act):
            return expr_matches(node.expr, run.action(node.expr.name, time), node.expr.name)
        if isinstance(node, Perm):
            permitted = perms.permitted(node.expr.name, time)
            if node.expr.positive:
                return node.expr.action in permitted
            return any(action != node.expr.action for action in permitted)
        raise TypeError(f"not a license-logic formula: {node!r}")

    return lasso_eval(perms.prefix_len, perms.loop_len, atom_holds, t, formula)


def check_spec(run: Run, formula: Formula) -> bool:
    """Whether the formula holds at every time of the run's extension."""
    # G at time 0 ranges over exactly the canonical times, prefix plus loop,
    # so one evaluation with one memo decides every time at once.
    return evaluate(run, compute_permissions(run), 0, Always(formula))


def encode_run(run: Run) -> Formula:
    """The formula that pins down a finite run.

    The conjunction fixes, time by time, the issuances and the actions of
    every name ever issued in the run, and then closes with "from here on
    everything does bot".  Any run satisfying the encoding at time zero
    behaves exactly like this run as far as its names are concerned.
    """
    names = sorted(run.names)

    def state_formula(t: int) -> Formula:
        conjuncts: list[Formula] = [
            Act(ActionExpr(True, run.action(name, t), name)) for name in names
        ]
        conjuncts += [
            Issue(name, lic)
            for name, lic in sorted(run.licenses_at(t), key=lambda pair: pair[0])
        ]
        return f_and_all(conjuncts)

    parts = [f_nexts(state_formula(t), t) for t in range(run.horizon + 1)]
    idle = f_and_all([Act(ActionExpr(True, BOT, name)) for name in names])
    parts.append(f_nexts(Always(idle), run.horizon + 1))
    return f_and_all(parts)


_IMPLIES, _OR, _AND, _UNTIL, _UNARY, _ATOM = range(6)


def pretty_formula(formula: Formula) -> str:
    """Render a formula of either logic, re-sugaring O, F, |, and ->."""
    return _pf(formula, _IMPLIES)


def _pair(expr: ActionExpr) -> str:
    tilde = "" if expr.positive else "~"
    return f"({tilde}{pretty_action(expr.action)}, {expr.name})"


def _pf(formula: Formula, minimum: int) -> str:
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, Perm) and not inner.expr.positive:
            text = f"O({pretty_action(inner.expr.action)}, {inner.expr.name})"
            level = _ATOM
        elif isinstance(inner, Always) and isinstance(inner.operand, Not):
            text, level = f"F {_pf(inner.operand.operand, _UNARY)}", _UNARY
        elif isinstance(inner, And) and isinstance(inner.left, Not) and isinstance(inner.right, Not):
            left = _pf(inner.left.operand, _OR)
            right = _pf(inner.right.operand, _AND)
            text, level = f"{left} | {right}", _OR
        elif isinstance(inner, And) and isinstance(inner.right, Not):
            left = _pf(inner.left, _OR)
            right = _pf(inner.right.operand, _IMPLIES)
            text, level = f"{left} -> {right}", _IMPLIES
        else:
            text, level = f"!{_pf(inner, _UNARY)}", _UNARY
    elif isinstance(formula, And):
        text = f"{_pf(formula.left, _AND)} & {_pf(formula.right, _UNTIL)}"
        level = _AND
    elif isinstance(formula, Next):
        text, level = f"X {_pf(formula.operand, _UNARY)}", _UNARY
    elif isinstance(formula, Always):
        text, level = f"G {_pf(formula.operand, _UNARY)}", _UNARY
    elif isinstance(formula, Until):
        text = f"{_pf(formula.left, _UNARY)} U {_pf(formula.right, _UNTIL)}"
        level = _UNTIL
    elif isinstance(formula, Formula):
        text, level = formula.pretty(), _ATOM
    else:
        raise TypeError(f"not a formula: {formula!r}")
    if level < minimum:
        return f"({text})"
    return text
