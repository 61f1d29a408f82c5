"""Reference semantics: the definition-level oracles the engines are checked against.

Nothing in the toolkit's commands calls into this module; the tests compare
the engines with it.  It holds the trace semantics of licenses (trace
enumeration, Brzozowski derivatives, viability), plain word acceptance by
an automaton and the subset step and permitted set, read off the
automaton's public ``transitions`` and ``finals``, that its subset-id memo
is checked against, the position automaton built by structural recursion
that the one-pass ``build_nfa`` must match, the DR schedule trace sets, the
license and formula AST sizes that complexity bounds are stated in, the run
helpers of the definitions, the permissions a license forces, formula truth
on a lasso decided one time at a time, license-logic atoms read off a run
one time at a time, the target logic's linear structures (a run's, built
from its permissions, and ``ltl_eval``, the direct route's evaluator over
structure labels), the generic decision route (translate, conjoin the
restriction formulas, and search the target logic's tableau on its own for
a lasso, edges labelled with the states they enter), the unpruned
stack-based tableau expansion that expands a next mask once per state
holding it, whose decisions the pruned cube-set ``build_tableau`` must
match, the character-by-character lexer that the regex lexer of ``lict.parsing``
must agree with on ASCII input, and the token-stream parsers of every
grammar whose trees and errors ``lict.parsing``'s parsers must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import count, product
from operator import itemgetter
from typing import Callable

from . import formulas
from .automata import Nfa, SubsetState
from .digitalrights import (
    DEFAULT_DR_CAP,
    FLATRATE,
    UPFRONT,
    DrLicense,
    Exactly,
    Single,
    Upto,
    _check_cap,
    _render_slots,
)
from .formulas import (
    Act,
    ActionExpr,
    Always,
    And,
    Formula,
    Issue,
    Next,
    Not,
    Perm,
    Truth,
    Until,
    f_and_all,
    f_eventually,
    f_implies,
    f_oblig,
    f_or,
)
from .licenses import (
    BOT,
    EXACT,
    ONE,
    ZERO,
    Action,
    Atom,
    Concat,
    License,
    One,
    Pay,
    Render,
    Star,
    Union,
    Zero,
    action_key,
    children,
    concat,
    post_order,
    union,
)
from .ltl import (
    Done,
    InState,
    Issued,
    Obligated,
    Over,
    Permitted,
    build_vocabulary,
    translate,
)
from .parsing import _LEXEME, RESERVED, ParseError, Token
from .parsing import tokenize as _tokenize
from .runs import PermissionInterpretation, Run, compute_permissions
from .tableau import (
    _KIND_AND,
    _KIND_FALSE,
    _KIND_LIT,
    _KIND_OR,
    _KIND_TRUE,
    _KIND_UNTIL,
    _KIND_X,
    DEFAULT_BUDGET,
    BudgetExceededError,
    Tableau,
    _Closure,
    accepting_lasso,
    build_tableau,
    to_nnf,
)

Trace = tuple  # tuple[Action, ...]
EPSILON: Trace = ()


# ---------------------------------------------------------------------------
# The trace semantics of licenses


def nullable(lic: License) -> bool:
    """Whether the empty trace belongs to the license's language."""
    if isinstance(lic, (Zero, Atom)):
        return False
    if isinstance(lic, (One, Star)):
        return True
    if isinstance(lic, Concat):
        return nullable(lic.left) and nullable(lic.right)
    if isinstance(lic, Union):
        return nullable(lic.left) or nullable(lic.right)
    raise TypeError(f"not a license: {lic!r}")


def is_empty(lic: License) -> bool:
    """Whether the license's language is empty."""
    if isinstance(lic, Zero):
        return True
    if isinstance(lic, (One, Atom, Star)):
        return False
    if isinstance(lic, Concat):
        return is_empty(lic.left) or is_empty(lic.right)
    if isinstance(lic, Union):
        return is_empty(lic.left) and is_empty(lic.right)
    raise TypeError(f"not a license: {lic!r}")


def first_actions(lic: License) -> frozenset[Action]:
    """The set of actions that can begin some trace of the license."""
    if isinstance(lic, (Zero, One)):
        return frozenset()
    if isinstance(lic, Atom):
        return frozenset({lic.action})
    if isinstance(lic, Concat):
        firsts = first_actions(lic.left)
        if nullable(lic.left):
            firsts |= first_actions(lic.right)
        return firsts
    if isinstance(lic, Union):
        return first_actions(lic.left) | first_actions(lic.right)
    if isinstance(lic, Star):
        return first_actions(lic.body)
    raise TypeError(f"not a license: {lic!r}")


def license_actions(lic: License) -> frozenset[Action]:
    """Every action literally occurring in the license."""
    return frozenset(node.action for node in post_order(lic) if type(node) is Atom)


def derivative(lic: License, action: Action) -> License:
    """The license recognizing exactly the continuations after ``action``.

    Language contract: a trace s is in the derivative's language iff
    action followed by s is in the original language.  The result is lightly
    simplified; callers must never rely on its syntactic shape.
    """
    if isinstance(lic, (Zero, One)):
        return ZERO
    if isinstance(lic, Atom):
        return ONE if lic.action == action else ZERO
    if isinstance(lic, Concat):
        left = concat(derivative(lic.left, action), lic.right)
        if nullable(lic.left):
            return union(left, derivative(lic.right, action))
        return left
    if isinstance(lic, Union):
        return union(derivative(lic.left, action), derivative(lic.right, action))
    if isinstance(lic, Star):
        return concat(derivative(lic.body, action), lic)
    raise TypeError(f"not a license: {lic!r}")


def traces(lic: License, max_len: int) -> frozenset[Trace]:
    """Enumerate every trace of the license with length at most ``max_len``.

    This is the brute-force reference semantics the rest of the toolkit is
    checked against; star bodies are unrolled only while the accumulated
    length stays within the bound, and empty contributions inside a star are
    skipped so enumeration always terminates.
    """
    if isinstance(lic, Zero):
        return frozenset()
    if isinstance(lic, One):
        return frozenset({EPSILON})
    if isinstance(lic, Atom):
        if max_len >= 1:
            return frozenset({(lic.action,)})
        return frozenset()
    if isinstance(lic, Concat):
        out = set()
        for left in traces(lic.left, max_len):
            for right in traces(lic.right, max_len - len(left)):
                out.add(left + right)
        return frozenset(out)
    if isinstance(lic, Union):
        return traces(lic.left, max_len) | traces(lic.right, max_len)
    if isinstance(lic, Star):
        result = {EPSILON}
        frontier = {EPSILON}
        while frontier:
            extended = set()
            for prefix in frontier:
                for piece in traces(lic.body, max_len - len(prefix)):
                    if not piece:
                        continue
                    candidate = prefix + piece
                    if candidate not in result:
                        result.add(candidate)
                        extended.add(candidate)
            frontier = extended
        return frozenset(result)
    raise TypeError(f"not a license: {lic!r}")


def viable(lic: License, trace: Trace) -> bool:
    """Whether ``trace`` is a prefix of some bot-padded complete trace.

    Equivalent to folding the derivative over the trace after appending
    ``bot*`` to the license (which makes the infinite bot padding of complete
    traces explicit) and checking the result is nonempty.
    """
    current = concat(lic, Star(Atom(BOT)))
    for action in trace:
        current = derivative(current, action)
        if is_empty(current):
            return False
    return not is_empty(current)


def prefix_sets(lic: License, k: int) -> frozenset[Trace]:
    """All length-``k`` prefixes of the license's traces, for k >= 1."""
    if k < 1:
        raise ValueError("prefix length must be at least 1")
    if k == 1:
        return frozenset((action,) for action in first_actions(lic))
    out = set()
    for action in first_actions(lic):
        for rest in prefix_sets(derivative(lic, action), k - 1):
            out.add((action,) + rest)
    return frozenset(out)


@lru_cache(maxsize=32)
def _edge_index(nfa: Nfa) -> dict[tuple[int, Action], list[int]]:
    """Each (state, action)'s targets, read from the automaton's public ``transitions``.

    An automaton's transitions are fixed when it is built, and it hashes by
    identity, so the index is kept for the last few automata asked about.
    """
    index: dict[tuple[int, Action], list[int]] = {}
    for source, action, target in nfa.transitions:
        index.setdefault((source, action), []).append(target)
    return index


def _image(index: dict, subset: SubsetState, action: Action) -> SubsetState:
    return frozenset(target for state in subset for target in index.get((state, action), ()))


def subset_step(nfa: Nfa, subset: SubsetState, action: Action) -> SubsetState:
    """Image of the subset under one action, read from ``nfa.transitions``."""
    return _image(_edge_index(nfa), subset, action)


def subset_permitted(nfa: Nfa, subset: SubsetState) -> frozenset[Action]:
    """What the subset permits, read afresh from ``nfa.transitions`` and ``nfa.finals``.

    The actions leaving the subset, plus bot when it holds an accepting
    state; the empty (violated) subset permits exactly bot.
    """
    if not subset:
        return frozenset({BOT})
    actions = {action for source, action, _ in nfa.transitions if source in subset}
    if subset & nfa.finals:
        actions.add(BOT)
    return frozenset(actions)


def accepts(nfa: Nfa, trace) -> bool:
    """Whether the automaton accepts the whole trace (stepped without its memo)."""
    index = _edge_index(nfa)
    subset = nfa.starts
    for action in trace:
        subset = _image(index, subset, action)
    return bool(subset & nfa.finals)


# ---------------------------------------------------------------------------
# The position automaton by structural recursion


def _positions(lic: License, symbols: dict[int, Action], ids) -> tuple[bool, frozenset, frozenset, list]:
    """Return (nullable, first, last, follow-pairs) with fresh position ids."""
    if isinstance(lic, Zero):
        return False, frozenset(), frozenset(), []
    if isinstance(lic, One):
        return True, frozenset(), frozenset(), []
    if isinstance(lic, Atom):
        position = next(ids)
        symbols[position] = lic.action
        singleton = frozenset({position})
        return False, singleton, singleton, []
    if isinstance(lic, Concat):
        null_l, first_l, last_l, follow_l = _positions(lic.left, symbols, ids)
        null_r, first_r, last_r, follow_r = _positions(lic.right, symbols, ids)
        follow = follow_l + follow_r + [(q, p) for q in last_l for p in first_r]
        first = first_l | first_r if null_l else first_l
        last = last_l | last_r if null_r else last_r
        return null_l and null_r, first, last, follow
    if isinstance(lic, Union):
        null_l, first_l, last_l, follow_l = _positions(lic.left, symbols, ids)
        null_r, first_r, last_r, follow_r = _positions(lic.right, symbols, ids)
        return null_l or null_r, first_l | first_r, last_l | last_r, follow_l + follow_r
    if isinstance(lic, Star):
        null, first, last, follow = _positions(lic.body, symbols, ids)
        follow = follow + [(q, p) for q in last for p in first]
        return True, first, last, follow
    raise TypeError(f"not a license: {lic!r}")


def position_nfa(lic: License, padded: bool = False) -> Nfa:
    """The trimmed position automaton, bot-padded if asked, by the recursive definition.

    ``automata.build_nfa`` and ``automata.padded_nfa`` must give its states,
    starts, finals and transitions, sorted by source, ``action_key`` and
    target with every duplicate kept.
    """
    symbols: dict[int, Action] = {}
    null, first, last, follow = _positions(lic, symbols, count(1))
    start = 0
    transitions = [(start, symbols[p], p) for p in first]
    transitions += [(q, symbols[p], p) for q, p in follow]
    finals = set(last)
    if null:
        finals.add(start)
    alive = set(finals)
    changed = True
    while changed:
        changed = False
        for source, _, target in transitions:
            if target in alive and source not in alive:
                alive.add(source)
                changed = True
    transitions = [edge for edge in transitions if edge[0] in alive and edge[2] in alive]
    pad = None
    if padded and finals:
        pad = max(alive) + 1
        transitions += [(final, BOT, pad) for final in finals]
        transitions.append((pad, BOT, pad))
        alive.add(pad)
        finals.add(pad)
    letters = sorted({BOT, *(action for _, action, _ in transitions)}, key=action_key)
    letter_of = {action: letter for letter, action in enumerate(letters)}
    edges = [(source, letter_of[action], target) for source, action, target in transitions]
    return Nfa(alive, {start} & alive, finals, letters, edges, pad)


# ---------------------------------------------------------------------------
# DR schedule trace sets


def _period_traces(dr: DrLicense) -> frozenset[Trace]:
    """The traces of a single period under the license's schedule."""
    slots = [BOT] + _render_slots(dr)
    period = dr.period
    out: set[Trace] = set()
    if dr.schedule == UPFRONT:
        for body in product(slots, repeat=period - 1):
            out.add((Pay(dr.amount),) + body)
    elif dr.schedule == FLATRATE:
        for body in product(slots, repeat=period - 1):
            out.add(body + (Pay(dr.amount),))
    else:
        for body in product(slots, repeat=period - 1):
            uses = sum(1 for action in body if action != BOT)
            out.add(body + (Pay(EXACT.multiply(dr.amount, uses)),))
    return frozenset(out)


def _concat_sets(left: frozenset[Trace], right: frozenset[Trace]) -> frozenset[Trace]:
    return frozenset(a + b for a in left for b in right)


def dr_traces(dr: DrLicense, cap: int = DEFAULT_DR_CAP) -> frozenset[Trace]:
    """The complete (finite) trace set of a DR license.

    Raises :class:`DrCapExceeded` when the license covers more time units
    than ``cap``; the trace count grows exponentially with the period length.
    """
    _check_cap(dr, cap)
    period = _period_traces(dr)
    if isinstance(dr.repetition, Single):
        return period
    power: frozenset[Trace] = frozenset({()})
    if isinstance(dr.repetition, Exactly):
        for _ in range(dr.repetition.count):
            power = _concat_sets(power, period)
        return power
    out: set[Trace] = set(power)
    for _ in range(dr.repetition.count):
        power = _concat_sets(power, period)
        out |= power
    return frozenset(out)


# ---------------------------------------------------------------------------
# AST sizes, the measure of the complexity bounds the tests check


def license_size(lic: License) -> int:
    """Number of AST nodes, the size measure used for complexity bounds."""
    if isinstance(lic, (Zero, One, Atom)):
        return 1
    if isinstance(lic, (Concat, Union)):
        return 1 + license_size(lic.left) + license_size(lic.right)
    if isinstance(lic, Star):
        return 1 + license_size(lic.body)
    raise TypeError(f"not a license: {lic!r}")


def tree_size(lic: License) -> int:
    """``license_size`` in one visit per distinct node object, on an explicit stack."""
    sizes: dict[int, int] = {}
    for node in post_order(lic):
        sizes[id(node)] = sum(map(sizes.__getitem__, map(id, children(node))), 1)
    return sizes[id(lic)]


def formula_size(formula: Formula) -> int:
    """Number of AST nodes, atoms counting one each."""
    size = 0
    stack = [formula]
    while stack:
        size += 1
        stack.extend(children(stack.pop()))
    return size


# ---------------------------------------------------------------------------
# Runs and the permissions a license forces


def active(run: Run, name: str, t: int) -> bool:
    """Whether a license named ``name`` has been issued at or before ``t``."""
    issuance = run.issuance(name)
    return issuance is not None and issuance[0] <= t


def action_sequence(run: Run, name: str, t: int) -> tuple[Action, ...]:
    """The actions done for ``name`` from its issuance up to, excluding, ``t``."""
    issuance = run.issuance(name)
    if issuance is None:
        raise ValueError(f"no license named {name} is issued in this run")
    start = issuance[0]
    if t < start:
        raise ValueError(f"{name} is not yet issued at time {t}")
    return tuple(run.action(name, start + i) for i in range(t - start))


def licenses_at(run: Run, t: int) -> frozenset[tuple[str, License]]:
    """The (name, license) pairs issued at ``t``."""
    return frozenset((name, lic) for time, name, lic in run.issuances if time == t)


def license_consequences(name: str, lic: License, depth: int) -> Formula:
    """Permissions forced by issuing a license, unfolded ``depth`` steps.

    Depth zero says every possible first action is permitted; each further
    level adds that doing a possible action leads, one step later, to the
    consequences of the license's derivative.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    firsts = sorted(first_actions(lic), key=action_key)
    if depth == 0:
        return f_and_all([Perm(ActionExpr(True, action, name)) for action in firsts])
    parts = []
    for action in firsts:
        rest = license_consequences(name, derivative(lic, action), depth - 1)
        parts.append(
            And(
                Perm(ActionExpr(True, action, name)),
                f_implies(Act(ActionExpr(True, action, name)), Next(rest)),
            )
        )
    return f_and_all(parts)


# ---------------------------------------------------------------------------
# Formula truth on a lasso, one time at a time


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


def expr_matches(expr: ActionExpr, action: Action, name: str) -> bool:
    """Whether the action expression covers ``action`` done by ``name``."""
    if name != expr.name:
        return False
    if expr.positive:
        return action == expr.action
    return action != expr.action


def run_atom_holds(run: Run, perms: PermissionInterpretation, time: int, atom: Formula) -> bool:
    """Truth of a license-logic atom in a run at one time, read off the run.

    ``perms`` must be computed from ``run``; any time from 0 on may be asked.
    """
    if isinstance(atom, Issue):
        return run.issuance(atom.name) == (time, atom.license)
    if isinstance(atom, Act):
        return expr_matches(atom.expr, run.action(atom.expr.name, time), atom.expr.name)
    if isinstance(atom, Perm):
        permitted = perms.permitted(atom.expr.name, time)
        if atom.expr.positive:
            return atom.expr.action in permitted
        return any(action != atom.expr.action for action in permitted)
    raise TypeError(f"not a license-logic formula: {atom!r}")


# ---------------------------------------------------------------------------
# Linear structures: the target logic's models, and the one of a run

Prop = Issued | Done | Permitted | Obligated | InState | Over


@dataclass(frozen=True)
class LinearStructure:
    """An ultimately periodic model: labeled prefix states plus a loop."""

    prefix: tuple[frozenset, ...]
    loop: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("a linear structure needs a nonempty loop")

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def loop_len(self) -> int:
        return len(self.loop)

    def label(self, t: int) -> frozenset:
        if t < len(self.prefix):
            return self.prefix[t]
        return self.loop[(t - len(self.prefix)) % len(self.loop)]


def ltl_eval(structure: LinearStructure, t: int, formula: Formula) -> bool:
    """Truth of a target-logic formula at state ``t`` of the structure.

    Runs the evaluator ``evaluate`` runs, ``formulas.lasso_eval``, on each
    atom's times read off the structure's labels, so comparing the two
    compares two atom labellings over one evaluator.
    """
    labels = structure.prefix + structure.loop

    def atom_label(atom: Formula) -> int:
        mask = 0
        for time, label in enumerate(labels):
            if atom in label:
                mask |= 1 << time
        return mask

    return formulas.lasso_eval(structure.prefix_len, structure.loop_len, atom_label, t, formula)


def state_atoms(tableau: Tableau, state: int, positive: bool = True) -> frozenset:
    """The atoms a tableau state requires true, or with ``positive`` False, false."""
    old = tableau.old_sets[state]
    return frozenset(atom for bit, atom, sign in tableau.literals if sign == positive and old & bit)


def subset_state(perms: PermissionInterpretation, name: str, t: int) -> SubsetState | None:
    """The automaton subset ``perms`` tracks ``name`` in at ``t`` (None before issuance)."""
    timeline = perms._timelines.get(name)
    subset = None if timeline is None else timeline.id_at(t)
    return None if subset is None else timeline.nfa.subsets[subset]


def name_props(name: str, issued, action, subset, permitted) -> frozenset[Prop]:
    """The target atoms true of one name at one time.

    ``issued`` is the license issued to the name at that time, or None;
    ``action`` is what the name does, or None for an action the vocabulary
    does not mention; ``subset`` is the name's automaton subset, None before
    issuance and empty once violated; ``permitted`` is its permitted set.
    """
    props: set[Prop] = {Permitted(action, name) for action in permitted}
    if issued is not None:
        props.add(Issued(name, issued))
    if action is not None:
        props.add(Done(action, name))
    if len(permitted) == 1:
        props.add(Obligated(next(iter(permitted)), name))
    if subset is not None:
        props.add(InState(name, subset) if subset else Over(name))
    return frozenset(props)


def build_structure(run: Run, extra_names=()) -> LinearStructure:
    """The ultimately periodic model of a run.

    Labels each time with the issuances, the actions done, the permitted and
    obligated actions, and the license automaton subsets.  ``extra_names``
    extends the vocabulary with names the run never issues (they do bot and
    permit only bot throughout).
    """
    perms = compute_permissions(run)
    names = sorted(run.names | frozenset(extra_names))

    def label(t: int) -> frozenset:
        issued = dict(licenses_at(run, t))
        props: set[Prop] = set()
        for name in names:
            subset, permitted = subset_state(perms, name, t), perms.permitted(name, t)
            props |= name_props(name, issued.get(name), run.action(name, t), subset, permitted)
        return frozenset(props)

    prefix = tuple(label(t) for t in range(perms.prefix_len))
    loop = tuple(
        label(t) for t in range(perms.prefix_len, perms.prefix_len + perms.loop_len)
    )
    return LinearStructure(prefix, loop)


# ---------------------------------------------------------------------------
# The generic route through the target logic


def finiteness_restriction(formula: Formula) -> Formula:
    """Eventually nothing happens: no issuances, only bot actions.

    Satisfiability is decided over finite runs, which this conjunct carves
    out of the unrestricted models; without it a witness could demand
    activity forever and would not be expressible as a run value.
    """
    vocab = build_vocabulary(formula)
    quiet: list[Formula] = [Not(Issued(name, lic)) for name, lic in vocab.named_licenses]
    quiet += [
        Not(Done(action, name))
        for name in vocab.names
        for action in vocab.actions
        if action != BOT
    ]
    if not quiet:
        return Truth()
    return f_eventually(Always(f_and_all(quiet)))


def check_run_validity_ltl(run: Run, formula: Formula) -> bool:
    """Whether the formula holds at every time of the run, via the structure."""
    structure = build_structure(run, extra_names=build_vocabulary(formula).names)
    return ltl_eval(structure, 0, Always(translate(formula)))


@dataclass
class SatResult:
    status: str  # "sat" | "unsat" | "budget"
    witness: LinearStructure | None = None


def ltl_sat(formula: Formula, budget: int = DEFAULT_BUDGET) -> SatResult:
    """Decide satisfiability; on sat, ship an ultimately periodic witness.

    The lasso is searched on the tableau alone, each edge labelled with the
    state it enters, so acceptance on edges is acceptance of the states.
    The witness labels states with exactly the propositions the tableau path
    requires to be true, and is re-checked with ``ltl_eval`` before being
    returned.
    """
    try:
        tableau = build_tableau(to_nnf(formula), budget)
    except BudgetExceededError:
        return SatResult("budget")

    # From a start node None, each edge is labelled with its target state,
    # so the labels along the lasso are the states of the witness in order.
    def successors(state):
        targets = tableau.initial if state is None else tableau.edges[state]
        return [(target, target) for target in targets]

    parent = {None: None}  # the breadth-first tree from the start node
    nodes = [None]
    for state in nodes:
        for edge in successors(state):
            if edge[0] not in parent:
                parent[edge[0]] = (state, edge)
                nodes.append(edge[0])
    lasso = accepting_lasso(parent, successors, tableau.accept_sets)
    if lasso is None:
        return SatResult("unsat")
    prefix, loop = lasso
    witness = LinearStructure(
        prefix=tuple(state_atoms(tableau, state) for _, state in prefix),
        loop=tuple(state_atoms(tableau, state) for _, state in loop),
    )
    if not ltl_eval(witness, 0, formula):
        raise RuntimeError("internal error: tableau witness failed evaluation")
    return SatResult("sat", witness)


# ---------------------------------------------------------------------------
# The unpruned stack-based tableau expansion that ``tableau.build_tableau`` replaced

_INIT = -1


def lifo_tableau(closure: _Closure, budget: int = DEFAULT_BUDGET) -> Tableau:
    """The unpruned obligation graph, whose decisions ``build_tableau``'s must match.

    This is the expansion of Gerth, Peled, Vardi & Wolper ("Simple
    on-the-fly automatic verification of linear temporal logic", PSTV
    1995): every new state pushes its next mask for expansion on one LIFO
    stack, so a mask is expanded again for each state holding it, and no
    state is dropped for another.  Each state has its own successor list,
    and ``old_sets`` holds whole obligation masks, literals among them.

    A pending node is an ``(incoming state, new, old, next)`` tuple of masks
    and a state is keyed by its ``(old, next)`` masks; every pop of a pending
    node counts one tick against the budget.
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

    stored: dict[tuple[int, int], int] = {}
    incoming: dict[int, set[int]] = {}
    olds: dict[int, int] = {}
    pending = [(_INIT, bits[closure.root], 0, 0)]
    ticks = 0

    while pending:
        ticks += 1
        if ticks > budget:
            raise BudgetExceededError(f"tableau exceeded its budget of {budget} nodes")
        source, new, old, nxt = pending.pop()
        if not new:
            existing = stored.get((old, nxt))
            if existing is not None:
                incoming[existing].add(source)
                continue
            state = stored[(old, nxt)] = len(olds)
            incoming[state] = {source}
            olds[state] = old
            pending.append((state, nxt, 0, 0))
            continue
        low = new & -new
        new ^= low
        if old & low:
            pending.append((source, new, old, nxt))
            continue
        kind, first, second = table[low.bit_length() - 1]
        if kind == _KIND_TRUE:
            pending.append((source, new, old, nxt))
        elif kind == _KIND_FALSE:
            continue
        elif kind == _KIND_LIT:
            if not old & first:
                pending.append((source, new, old | low, nxt))
        elif kind == _KIND_AND:
            pending.append((source, new | first | second, old | low, nxt))
        elif kind == _KIND_X:
            pending.append((source, new, old | low, nxt | first))
        elif kind == _KIND_OR:
            pending.append((source, new | first, old | low, nxt))
            pending.append((source, new | second, old | low, nxt))
        elif kind == _KIND_UNTIL:
            pending.append((source, new | first, old | low, nxt | low))
            pending.append((source, new | second, old | low, nxt))
        else:  # release
            pending.append((source, new | second, old | low, nxt | low))
            pending.append((source, new | first | second, old | low, nxt))

    tableau = Tableau([
        (bits[index], *literal) for index, literal in enumerate(closure.literals) if literal is not None
    ])
    tableau.old_sets = olds
    tableau.edges = {state: [] for state in olds}
    for state, sources in incoming.items():
        for source in sorted(sources):
            if source == _INIT:
                tableau.initial.append(state)
            else:
                tableau.edges[source].append(state)
    tableau.initial.sort()
    for edge_list in tableau.edges.values():
        edge_list.sort()

    for until in closure.untils():
        pending_bit, right = bits[until], bits[closure.args[until][1]]
        tableau.accept_sets.append(frozenset(
            state for state, old in olds.items() if not old & pending_bit or old & right
        ))
    return tableau


# ---------------------------------------------------------------------------
# The character-by-character lexer that ``parsing.tokenize`` replaced

_TWO_CHAR_OPS = ("->",)
_ONE_CHAR_OPS = "()[]{},*|&!=@~"


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, col = first_line, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if text.startswith(_TWO_CHAR_OPS[0], i):
            tokens.append(Token("op", "->", line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                while j < len(text) and text[j].isdigit():
                    j += 1
            tokens.append(Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# The token-stream parsers that ``lict.parsing``'s parsers replaced
#
# Each reads the positional tokens of ``parsing.tokenize`` through a
# ``_Stream``, one method call per token.  The parsers of ``lict.parsing``
# read token texts with an int cursor and must give the same values, and
# the same messages, lines and columns, as these.

class _Stream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._last = len(tokens) - 1  # the eof token

    def peek(self, ahead: int = 0) -> Token:
        if not ahead:  # the position never passes eof
            return self._tokens[self._pos]
        at = self._pos + ahead
        return self._tokens[at if at < self._last else self._last]

    def next(self) -> Token:
        token = self._tokens[self._pos]
        if self._pos < self._last:
            self._pos += 1
        return token

    def expect(self, text: str) -> Token:
        token = self._tokens[self._pos]
        if token.text != text:
            self.fail(f"expected {text!r}, found {self._describe(token)}")
        if self._pos < self._last:
            self._pos += 1
        return token

    def fail(self, message: str):
        token = self.peek()
        raise ParseError(message, token.line, token.col)

    def at_end(self) -> bool:
        return self.peek().kind == "eof"

    def expect_end(self) -> None:
        if not self.at_end():
            self.fail(f"unexpected trailing input {self._describe(self.peek())}")

    @staticmethod
    def _describe(token: Token) -> str:
        return "end of input" if token.kind == "eof" else repr(token.text)


def _parse_name(stream: _Stream, what: str = "name") -> str:
    token = stream.peek()
    if token.kind != "ident" or token.text in RESERVED:
        stream.fail(f"expected a {what}")
    return stream.next().text


def _parse_amount(stream: _Stream) -> Decimal:
    token = stream.peek()
    if token.kind != "number":
        stream.fail("expected a decimal amount")
    stream.next()
    if "." in token.text and len(token.text.split(".")[1]) > 2:
        raise ParseError(
            f"amount {token.text} has more than two fractional digits",
            token.line,
            token.col,
        )
    return Decimal(token.text)


def _parse_natural(stream: _Stream, what: str = "number") -> int:
    token = stream.peek()
    if token.kind != "number" or "." in token.text:
        stream.fail(f"expected a {what}")
    stream.next()
    return int(token.text)


def _starts_action(token: Token) -> bool:
    return token.text in ("pay", "render", "bot")


def _parse_action(stream: _Stream) -> Action:
    token = stream.peek()
    if token.text == "bot":
        stream.next()
        return BOT
    if token.text == "pay":
        stream.next()
        stream.expect("[")
        amount = _parse_amount(stream)
        stream.expect("]")
        return Pay(amount)
    if token.text == "render":
        stream.next()
        stream.expect("[")
        work = _parse_name(stream, "work identifier")
        stream.expect(",")
        device = _parse_name(stream, "device identifier")
        stream.expect("]")
        return Render(work, device)
    stream.fail("expected an action (pay[..], render[..,..], or bot)")


def parse_action(text: str) -> Action:
    stream = _Stream(_tokenize(text))
    action = _parse_action(stream)
    stream.expect_end()
    return action


# License grammar: union over concatenation over starred primaries, both
# grouping to the left.  Parsed in one loop that keeps the partial union and
# concatenation of each enclosing parenthesis on a stack, so nesting depth
# costs no recursion.

_ACTION_TOKENS = {"bot": 1, "pay": 4, "render": 6}  # tokens of each action's text
_text = itemgetter(1)  # a token's text


def _parse_license(stream: _Stream) -> License:
    atoms: dict[tuple[str, ...], Atom] = {}  # one atom per distinct action text
    groups: list[tuple] = []  # (union, concatenation) outside each open "("
    union = concat = None
    while True:
        # A primary: open parentheses, then an action.
        token = stream.peek()
        if token.text == "(":
            stream.next()
            groups.append((union, concat))
            union = concat = None
            continue
        if token.text not in _ACTION_TOKENS:
            stream.fail("the license constants 0 and 1 are not part of the surface syntax"
                        if token.kind == "number" else "expected a license")
        tokens, at = stream._tokens, stream._pos
        key = tuple(map(_text, tokens[at:at + _ACTION_TOKENS[token.text]]))
        lic = atoms.get(key)
        if lic is None:
            lic = atoms[key] = Atom(_parse_action(stream))
        else:  # the same tokens parsed into this action before
            stream._pos = at + len(key)
        # Stars, then close parentheses until the next primary or the end.
        while True:
            token = stream.peek()
            while token.text == "*":
                stream.next()
                lic = Star(lic)
                token = stream.peek()
            concat = lic if concat is None else Concat(concat, lic)
            if token.text == "(" or token.text in _ACTION_TOKENS:
                break
            if token.text == "|":
                stream.next()
                union = concat if union is None else Union(union, concat)
                concat = None
                break
            lic = concat if union is None else Union(union, concat)
            if not groups:
                return lic
            stream.expect(")")
            union, concat = groups.pop()


def parse_license(text: str) -> License:
    stream = _Stream(_tokenize(text))
    lic = _parse_license(stream)
    stream.expect_end()
    return lic


# Formula grammar, loosest to tightest: ->, |, &, U, unary (! X G F), atoms.
# -> and U group to the right, | and & to the left.  Parsed by precedence
# climbing on explicit stacks, so nesting depth costs no recursion.

_PREFIX = {"!": Not, "X": Next, "G": Always, "F": f_eventually}
# (precedence, groups to the right, constructor); prefix operators bind
# tighter than every infix one.
_INFIX = {
    "->": (1, True, f_implies),
    "|": (2, False, f_or),
    "&": (3, False, And),
    "U": (4, True, Until),
}
_PREFIX_PRECEDENCE = 5
_GROUP = None  # an open parenthesis on the operator stack


def _reduce(values: list[Formula], ops: list, precedence: int = 0, right: bool = False) -> None:
    """Apply the stacked operators that bind tighter than an incoming one.

    The incoming operator has the given precedence and grouping; an equal
    precedence binds tighter when it groups to the left.  Stops at an open
    parenthesis; precedence 0 applies every operator down to it.
    """
    while ops and ops[-1] is not _GROUP:
        stacked, build, arity = ops[-1]
        if stacked < precedence or (stacked == precedence and right):
            return
        ops.pop()
        if arity == 1:
            values[-1] = build(values[-1])
        else:
            operand = values.pop()
            values[-1] = build(values[-1], operand)


def _parse_formula(stream: _Stream) -> Formula:
    values: list[Formula] = []
    ops: list = []  # _GROUP or (precedence, constructor, arity)
    while True:
        # An operand: prefix operators and open parentheses, then an atom.
        while True:
            token = stream.peek()
            if token.text in _PREFIX:
                ops.append((_PREFIX_PRECEDENCE, _PREFIX[token.text], 1))
            elif token.text == "(" and not _starts_pair(stream):
                ops.append(_GROUP)
            else:
                break
            stream.next()
        values.append(_parse_formula_atom(stream))
        # Close parentheses until an infix operator or the end of the formula.
        infix = _INFIX.get(stream.peek().text)
        while infix is None:
            _reduce(values, ops)
            if not ops:
                return values[0]
            stream.expect(")")
            ops.pop()
            infix = _INFIX.get(stream.peek().text)
        stream.next()
        precedence, right, build = infix
        _reduce(values, ops, precedence, right)
        ops.append((precedence, build, 2))


def _starts_pair(stream: _Stream) -> bool:
    """Whether the ``(`` ahead opens an action pair rather than a group."""
    after = stream.peek(1)
    return after.text == "~" or _starts_action(after)


def _parse_action_pair(stream: _Stream) -> ActionExpr:
    stream.expect("(")
    positive = True
    if stream.peek().text == "~":
        stream.next()
        positive = False
    action = _parse_action(stream)
    stream.expect(",")
    name = _parse_name(stream)
    stream.expect(")")
    return ActionExpr(positive, action, name)


def _parse_formula_atom(stream: _Stream) -> Formula:
    token = stream.peek()
    if token.text == "true":
        stream.next()
        return Truth()
    if token.text == "issue":
        stream.next()
        stream.expect("(")
        name = _parse_name(stream)
        stream.expect(",")
        lic = _parse_license(stream)
        stream.expect(")")
        return Issue(name, lic)
    if token.text == "P":
        stream.next()
        return Perm(_parse_action_pair(stream))
    if token.text == "O":
        stream.next()
        expr = _parse_action_pair(stream)
        if not expr.positive:
            stream.fail("obligations take a plain action, not a complement")
        return f_oblig(expr.action, expr.name)
    if token.text == "(":
        return Act(_parse_action_pair(stream))
    stream.fail("expected a formula")


def parse_formula(text: str) -> Formula:
    stream = _Stream(_tokenize(text))
    formula = _parse_formula(stream)
    stream.expect_end()
    return formula


# Run files are line oriented (lines end at "\n" alone):
#   @<t> issue <name> = <license>
#   @<t> do <name> <action>
# A file repeats a few texts after the time many times over, so each distinct
# tail is parsed once: a line whose frame is ``@`` and a natural reads its
# ``(is_issue, name, license or action)`` from the first line with the same
# tail.  Only lines that parsed are remembered, so errors are unchanged.

def parse_run(text: str) -> Run:
    issuances: list[tuple[int, str, License]] = []
    actions: list[tuple[int, str, Action]] = []
    tails: dict[str, tuple[bool, str, License | Action]] = {}
    horizon = 0  # the last event time
    match = _LEXEME.match
    for lineno, raw in enumerate(text.split("\n"), start=1):
        at = match(raw)
        kind = at.lastgroup
        if kind == "eof":  # blanks and a comment at most
            continue
        tail = entry = None
        if kind == "op" and at[kind] == "@":
            number = match(raw, at.end())
            digits = number["number"]
            if digits is not None and "." not in digits:
                tail = raw[number.end():]
                entry = tails.get(tail)
        if entry is None:
            stream = _Stream(_tokenize(raw, first_line=lineno))
            stream.expect("@")
            time = _parse_natural(stream, "time")
            keyword = stream.peek()
            if keyword.text == "issue":
                stream.next()
                name = _parse_name(stream)
                stream.expect("=")
                entry = (True, name, _parse_license(stream))
            elif keyword.text == "do":
                stream.next()
                name = _parse_name(stream)
                entry = (False, name, _parse_action(stream))
            else:
                stream.fail("expected 'issue' or 'do'")
            stream.expect_end()
            if tail is not None:
                tails[tail] = entry
        else:
            time = int(digits)
        is_issue, name, payload = entry
        (issuances if is_issue else actions).append((time, name, payload))
        if time > horizon:
            horizon = time
    return Run(horizon, tuple(issuances), tuple(actions))


# DR licenses:  for [upto] [m] p pay x (upfront|flatrate|peruse) for {..} on {..}

def _parse_ident_set(stream: _Stream) -> frozenset[str]:
    stream.expect("{")
    names = [_parse_name(stream, "identifier")]
    while stream.peek().text == ",":
        stream.next()
        names.append(_parse_name(stream, "identifier"))
    stream.expect("}")
    return frozenset(names)


def parse_dr(text: str) -> DrLicense:
    stream = _Stream(_tokenize(text))
    stream.expect("for")
    if stream.peek().text == "upto":
        stream.next()
        count = _parse_natural(stream, "period count")
        period = _parse_natural(stream, "period length")
        repetition = Upto(count, period)
    else:
        first = _parse_natural(stream, "period length")
        if stream.peek().kind == "number":
            period = _parse_natural(stream, "period length")
            repetition = Exactly(first, period)
        else:
            repetition = Single(first)
    stream.expect("pay")
    amount = _parse_amount(stream)
    schedule = stream.peek().text
    if schedule not in ("upfront", "flatrate", "peruse"):
        stream.fail("expected a payment schedule (upfront, flatrate, or peruse)")
    stream.next()
    stream.expect("for")
    works = _parse_ident_set(stream)
    stream.expect("on")
    devices = _parse_ident_set(stream)
    stream.expect_end()
    return DrLicense(repetition, amount, schedule, works, devices)
