"""Reference semantics: the definition-level oracles the engines are checked against.

Nothing in the toolkit's commands calls into this module; the tests compare
the engines with it.  It holds the trace semantics of licenses (trace
enumeration, Brzozowski derivatives, viability), plain word acceptance by
an automaton, the DR schedule trace sets, the run helpers of the
definitions, the permissions a license forces, formula truth on a lasso
decided one time at a time, the generic decision route (translate,
conjoin the restriction formulas, and search the target logic's tableau on
its own for a lasso, edges labelled with the states they enter), the
stack-based tableau construction that expands a next mask once per state
holding it, whose graph and budget outcomes the memoised ``build_tableau``
must match, and the character-by-character lexer that the regex lexer of
``lict.parsing`` must agree with on ASCII input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .automata import Nfa, step_subset
from .digitalrights import (
    DEFAULT_DR_CAP,
    FLATRATE,
    UPFRONT,
    DrLicense,
    Exactly,
    Single,
    _check_cap,
    _render_slots,
)
from .formulas import (
    Act,
    ActionExpr,
    Always,
    And,
    Formula,
    Next,
    Not,
    Perm,
    Truth,
    Until,
    f_and_all,
    f_eventually,
    f_implies,
)
from .licenses import (
    BOT,
    ONE,
    ZERO,
    Action,
    Atom,
    Concat,
    License,
    One,
    Pay,
    Star,
    Union,
    Zero,
    action_key,
    concat,
    union,
)
from .ltl import (
    Done,
    Issued,
    LinearStructure,
    build_structure,
    build_vocabulary,
    ltl_eval,
    translate,
)
from .parsing import ParseError, Token
from .runs import Run
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


def accepts(nfa: Nfa, trace) -> bool:
    """Whether the automaton accepts the whole trace."""
    subset = nfa.start_subset()
    for action in trace:
        subset = step_subset(nfa, subset, action)
    return bool(subset & nfa.finals)


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
            out.add(body + (Pay(dr.amount * uses),))
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

    lasso = accepting_lasso([None], successors, successors, tableau.accept_sets)
    if lasso is None:
        return SatResult("unsat")
    prefix, loop = lasso
    witness = LinearStructure(
        prefix=tuple(tableau.positive_props(state) for _, state in prefix),
        loop=tuple(tableau.positive_props(state) for _, state in loop),
    )
    if not ltl_eval(witness, 0, formula):
        raise RuntimeError("internal error: tableau witness failed evaluation")
    return SatResult("sat", witness)


# ---------------------------------------------------------------------------
# The stack-based tableau construction that ``tableau.build_tableau`` replaced

_INIT = -1


def lifo_tableau(closure: _Closure, budget: int = DEFAULT_BUDGET) -> Tableau:
    """The obligation graph ``build_tableau`` must give, one expansion per state.

    Every new state pushes its next mask for expansion on one LIFO stack, so
    a mask is expanded again for each state holding it.

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
