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
issued and every name does ``bot`` forever.  The evaluator labels each
subformula, children first, with the canonical times at which it holds, one
int bit vector per subformula.

Every walk over a formula here (printing, atom mapping, labelling) goes
through the node walk and DAG printer of :mod:`lict.licenses`, which run on
explicit stacks, so depth costs no recursion: a run's encoding nests twice
as deep as the run is long.  This module supplies only each node's children
and layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .licenses import (
    BOT,
    Action,
    License,
    Node,
    dag_text,
    fold_balanced,
    post_order,
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


@dataclass(frozen=True, eq=False)
class Formula(Node):
    """A formula node.

    The connectives hash and compare on explicit stacks; each atom is a
    frozen dataclass with the dataclass's own hash and equality.
    """


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


@dataclass(frozen=True, eq=False)
class Not(Formula):
    _arity = 1
    operand: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    _arity = 2
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Next(Formula):
    _arity = 1
    operand: Formula


@dataclass(frozen=True, eq=False)
class Always(Formula):
    _arity = 1
    operand: Formula


@dataclass(frozen=True, eq=False)
class Until(Formula):
    _arity = 2
    left: Formula
    right: Formula


_UNARY_NODES = (Not, Next, Always)
_BINARY_NODES = (And, Until)
_CONNECTIVES = (Truth, *_UNARY_NODES, *_BINARY_NODES)


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
    kind = type(node)
    if kind is And:
        return (node.left, node.right)
    if kind is Next or kind is Not or kind is Always:
        return (node.operand,)
    if kind is Until:
        return (node.left, node.right)
    return ()


def formula_atoms(formula: Formula) -> frozenset[Formula]:
    """Every atom of the formula: each leaf other than ``Truth``."""
    return frozenset(node for node in post_order(formula, _children) if not isinstance(node, _CONNECTIVES))


def map_atoms(formula: Formula, atom_map: Callable[[Formula], Formula]) -> Formula:
    """The formula with every atom replaced by its image; connectives kept."""
    images: dict[int, Formula] = {}
    for node in post_order(formula, _children):
        if isinstance(node, _UNARY_NODES):
            image = type(node)(images[id(node.operand)])
        elif isinstance(node, _BINARY_NODES):
            image = type(node)(images[id(node.left)], images[id(node.right)])
        elif isinstance(node, Truth):
            image = node
        else:
            image = atom_map(node)
        images[id(node)] = image
    return images[id(formula)]


def lasso_labels(
    prefix_len: int,
    loop_len: int,
    atom_label: Callable[[Formula], int],
    formula: Formula,
) -> int:
    """The canonical times at which a formula holds, as a bit vector.

    The model has ``prefix_len`` prefix times followed by a loop of
    ``loop_len`` times repeated forever, so its canonical times are
    ``0 .. prefix_len + loop_len - 1``; ``atom_label(atom)`` is an atom's
    label over them.  Bit i of a label is the truth at canonical time i.
    Every subformula is labelled once, children first (Markey &
    Schnoebelen, "Model checking a path", CONCUR 2003), and every distinct
    atom, compared by equality, is asked for once.
    """
    size = prefix_len + loop_len
    full = (1 << size) - 1
    prefix_mask = (1 << prefix_len) - 1
    loop_mask = full ^ prefix_mask
    labels: dict[int, int] = {}
    atoms: dict[Formula, int] = {}
    for node in post_order(formula, _children):
        if isinstance(node, Not):
            label = full ^ labels[id(node.operand)]
        elif isinstance(node, And):
            label = labels[id(node.left)] & labels[id(node.right)]
        elif isinstance(node, Next):
            # time i reads time i + 1; the last time wraps to the loop start
            value = labels[id(node.operand)]
            label = value >> 1 | (value >> prefix_len & 1) << (size - 1)
        elif isinstance(node, Always):
            # Holds on the loop only if the operand holds all round it; on
            # the prefix, after the last time the operand fails.
            value = labels[id(node.operand)]
            if value & loop_mask != loop_mask:
                label = 0
            else:
                last_failure = ((full ^ value) & prefix_mask).bit_length()
                label = full >> last_failure << last_failure
        elif isinstance(node, Until):
            label = _until(labels[id(node.left)], labels[id(node.right)], prefix_len, size)
        elif isinstance(node, Truth):
            label = full
        else:
            label = atoms.get(node)
            if label is None:
                label = atoms[node] = atom_label(node)
        labels[id(node)] = label
    return labels[id(formula)]


def _until(left: int, right: int, prefix_len: int, size: int) -> int:
    """Label of ``left U right`` from the labels of its operands.

    Walking backward, until holds where right does, or where left does and
    until holds one step later.  The first pass round the loop assumes false
    after the loop's end, which makes the loop start right; the second pass
    carries that value across the wrap, and continues through the prefix.
    """
    lefts = format(left, f"0{size}b")[::-1]
    rights = format(right, f"0{size}b")[::-1]
    truths = ["0"] * size
    holds = False
    for time in (*range(size - 1, prefix_len - 1, -1), *range(size - 1, -1, -1)):
        holds = rights[time] == "1" or (holds and lefts[time] == "1")
        truths[time] = "1" if holds else "0"
    return int("".join(reversed(truths)), 2)


def lasso_eval(
    prefix_len: int,
    loop_len: int,
    atom_label: Callable[[Formula], int],
    t: int,
    formula: Formula,
) -> bool:
    """Truth of a formula at time t of an ultimately periodic model.

    Read from :func:`lasso_labels` at the canonical time of t.  Times before
    0 are not part of the model and raise ``ValueError``.
    """
    if t < 0:
        raise ValueError(f"time {t} is negative; the model starts at time 0")
    if t >= prefix_len:
        t = prefix_len + (t - prefix_len) % loop_len
    return bool(lasso_labels(prefix_len, loop_len, atom_label, formula) >> t & 1)


def evaluate(run: Run, perms: PermissionInterpretation, t: int, formula: Formula) -> bool:
    """Truth of a license-logic formula in a run at time t.

    ``perms`` must be the permission interpretation computed from ``run``;
    the model is the run's ultimately periodic extension.  Each atom is
    labelled from time masks: per name, the times of each recorded action,
    and lazily the times of each permitted bitmask over the name's letters.
    """
    size = perms.prefix_len + perms.loop_len
    full = (1 << size) - 1
    # Recorded actions lie within the horizon, where canonical times are times.
    done: dict[str, dict[Action, int]] = {}
    for time, name, action in run.actions:
        masks = done.setdefault(name, {})
        masks[action] = masks.get(action, 0) | 1 << time
    permits: dict[str, tuple] = {}

    def permitted_times(name: str) -> tuple:
        """The name's letters, and the times of each distinct permitted bitmask over them."""
        found = permits.get(name)
        if found is None:
            letters, column = perms.permitted_masks(name, size)
            times: dict[int, int] = {}
            for time, mask in enumerate(column):
                times[mask] = times.get(mask, 0) | 1 << time
            found = permits[name] = (letters, times)
        return found

    def atom_label(node: Formula) -> int:
        if isinstance(node, Issue):
            issuance = run.issuance(node.name)
            return 1 << issuance[0] if issuance is not None and issuance[1] == node.license else 0
        if isinstance(node, Act):
            expr = node.expr
            masks = done.get(expr.name, {})
            if expr.action == BOT:
                # bot wherever no other action is recorded, past the horizon too
                label = full
                for action, mask in masks.items():
                    if action != BOT:
                        label ^= mask
            else:
                label = masks.get(expr.action, 0)
            return label if expr.positive else full ^ label
        if isinstance(node, Perm):
            expr = node.expr
            letters, times = permitted_times(expr.name)
            # the action's letter bit; an action outside the letters has none
            bit = sum(1 << letter for letter, action in enumerate(letters) if action == expr.action)
            # the times, disjoint per mask, permitting the action, or for its complement another one
            return sum(when for permitted, when in times.items()
                       if (permitted & bit if expr.positive else permitted & ~bit))
        raise TypeError(f"not a license-logic formula: {node!r}")

    return lasso_eval(perms.prefix_len, perms.loop_len, atom_label, t, formula)


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
    behaves exactly like this run as far as its names are concerned.  It is
    nested, ``s0 & X (s1 & X (... & X G idle))`` with ``st`` the state at
    time t, so its size as a tree is linear in the horizon and its depth
    twice it.  The states are read from per-name columns, one list per
    name of its action at each time.  Each distinct state is built once and
    every time in that state shares its one object, so the formula's DAG is
    the linear spine with the distinct states as its only branches.
    """
    names = sorted(run.names)
    size = run.horizon + 1
    columns = []
    for name in names:
        column = [BOT] * size
        for time, action in run.actions_of(name).items():
            column[time] = action
        columns.append(column)
    rows = list(zip(*columns)) if names else [()] * size
    issued: dict[int, list[Formula]] = {}
    for time, name, lic in sorted(run.issuances, key=lambda issuance: issuance[1]):
        issued.setdefault(time, []).append(Issue(name, lic))
    states: dict[tuple, Formula] = {}
    idle = f_and_all([Act(ActionExpr(True, BOT, name)) for name in names])
    formula: Formula = Always(idle)
    for time in reversed(range(size)):
        actions = rows[time]
        # Each name is issued once, so an issuance time is keyed apart by
        # its time and shares its state with no other time.
        key = (actions, time) if time in issued else actions
        state = states.get(key)
        if state is None:
            conjuncts: list[Formula] = [
                Act(ActionExpr(True, action, name)) for name, action in zip(names, actions)
            ]
            conjuncts += issued.get(time, ())
            state = states[key] = f_and_all(conjuncts)
        formula = And(state, Next(formula))
    return formula


_IMPLIES, _OR, _AND, _UNTIL, _UNARY, _ATOM = range(6)


def pretty_formula(formula: Formula) -> str:
    """Render a formula of either logic, re-sugaring O, F, |, and ->."""
    return dag_text(formula, _IMPLIES, _layout, _children)


def _pair(expr: ActionExpr) -> str:
    tilde = "" if expr.positive else "~"
    return f"({tilde}{pretty_action(expr.action)}, {expr.name})"


def _layout(formula: Formula) -> tuple[int, tuple]:
    """The node's precedence level and its pieces: text or (child, minimum)."""
    kind = type(formula)
    if kind is And:
        return _AND, ((formula.left, _AND), " & ", (formula.right, _UNTIL))
    if kind is Next:
        return _UNARY, ("X ", (formula.operand, _UNARY))
    if kind is Not:
        inner = formula.operand
        inner_kind = type(inner)
        if inner_kind is Perm and not inner.expr.positive:
            return _ATOM, (f"O({pretty_action(inner.expr.action)}, {inner.expr.name})",)
        if inner_kind is Always and type(inner.operand) is Not:
            return _UNARY, ("F ", (inner.operand.operand, _UNARY))
        if inner_kind is And and type(inner.right) is Not:
            if type(inner.left) is Not:
                return _OR, ((inner.left.operand, _OR), " | ", (inner.right.operand, _AND))
            return _IMPLIES, ((inner.left, _OR), " -> ", (inner.right.operand, _IMPLIES))
        return _UNARY, ("!", (inner, _UNARY))
    if kind is Always:
        return _UNARY, ("G ", (formula.operand, _UNARY))
    if kind is Until:
        return _UNTIL, ((formula.left, _UNARY), " U ", (formula.right, _UNTIL))
    if isinstance(formula, Formula):
        return _ATOM, (formula.pretty(),)
    raise TypeError(f"not a formula: {formula!r}")
