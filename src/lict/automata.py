"""Position automata for licenses and the subset stepping used for permissions.

The construction is the position (Glushkov) automaton: one state per action
occurrence plus a start state, no silent transitions, linearly many states
and at most quadratically many transitions in the license size.  States that
cannot reach acceptance are trimmed away, so a subset of states is "alive"
exactly when the consumed input is viable.

``with_bot_padding`` appends the implicit stream of bot actions that follows
a completed license: an extra absorbing state reachable from every accepting
state by bot.  Permission tracking always runs on the padded automaton; the
empty subset is the absorbing "violated" condition, which permits only bot.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count

from .licenses import (
    BOT,
    Action,
    Atom,
    Concat,
    License,
    One,
    Star,
    Union,
    Zero,
    action_key,
    pretty_action,
)

SubsetState = frozenset  # frozenset[int]


class Nfa:
    """An epsilon-free automaton over actions.  Immutable after construction."""

    __slots__ = ("states", "starts", "finals", "transitions", "pad_state", "_successors", "_outgoing")

    def __init__(self, states, starts, finals, transitions, pad_state=None):
        self.states = frozenset(states)
        self.starts = frozenset(starts)
        self.finals = frozenset(finals)
        self.transitions = tuple(
            sorted(transitions, key=lambda edge: (edge[0], action_key(edge[1]), edge[2]))
        )
        self.pad_state = pad_state
        successors: dict[tuple[int, Action], set[int]] = {}
        outgoing: dict[int, set[Action]] = {state: set() for state in self.states}
        for source, action, target in self.transitions:
            successors.setdefault((source, action), set()).add(target)
            outgoing[source].add(action)
        self._successors = {key: frozenset(value) for key, value in successors.items()}
        self._outgoing = {state: frozenset(value) for state, value in outgoing.items()}

    def successors(self, state: int, action: Action) -> frozenset[int]:
        return self._successors.get((state, action), frozenset())

    def outgoing_actions(self, state: int) -> frozenset[Action]:
        return self._outgoing.get(state, frozenset())

    def start_subset(self) -> SubsetState:
        return frozenset(self.starts)


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


@lru_cache(maxsize=None)
def build_nfa(lic: License) -> Nfa:
    """The position automaton accepting exactly the license's traces."""
    symbols: dict[int, Action] = {}
    null, first, last, follow = _positions(lic, symbols, count(1))
    start = 0
    transitions = [(start, symbols[p], p) for p in first]
    transitions += [(q, symbols[p], p) for q, p in follow]
    finals = set(last)
    if null:
        finals.add(start)

    # Trim states that cannot reach acceptance; aliveness of a subset then
    # coincides with viability of the consumed input.
    backward: dict[int, set[int]] = {}
    for source, _, target in transitions:
        backward.setdefault(target, set()).add(source)
    alive = set(finals)
    frontier = list(finals)
    while frontier:
        state = frontier.pop()
        for previous in backward.get(state, ()):
            if previous not in alive:
                alive.add(previous)
                frontier.append(previous)

    kept_transitions = [
        edge for edge in transitions if edge[0] in alive and edge[2] in alive
    ]
    return Nfa(
        states=alive,
        starts={start} & alive,
        finals=finals & alive,
        transitions=kept_transitions,
    )


def with_bot_padding(nfa: Nfa) -> Nfa:
    """Append the implicit bot stream that follows a completed license."""
    if not nfa.finals:
        return nfa
    pad = max(nfa.states) + 1
    transitions = list(nfa.transitions)
    transitions += [(final, BOT, pad) for final in nfa.finals]
    transitions.append((pad, BOT, pad))
    return Nfa(
        states=nfa.states | {pad},
        starts=nfa.starts,
        finals=nfa.finals | {pad},
        transitions=transitions,
        pad_state=pad,
    )


@lru_cache(maxsize=None)
def padded_nfa(lic: License) -> Nfa:
    return with_bot_padding(build_nfa(lic))


def step_subset(nfa: Nfa, subset: SubsetState, action: Action) -> SubsetState:
    """Image of the subset under one action; the empty subset is absorbing."""
    out: set[int] = set()
    for state in subset:
        out |= nfa.successors(state, action)
    return frozenset(out)


def permitted_from(nfa: Nfa, subset: SubsetState) -> frozenset[Action]:
    """Actions with a transition from the subset, plus bot where padding applies.

    Bot is included whenever the subset contains an accepting state (the
    license can be considered complete, so doing nothing stays viable).  A
    violated (empty) subset permits exactly bot.
    """
    if not subset:
        return frozenset({BOT})
    actions: set[Action] = set()
    for state in subset:
        actions |= nfa.outgoing_actions(state)
    if subset & nfa.finals:
        actions.add(BOT)
    return frozenset(actions)


def lasso_of(nfa: Nfa, subset: SubsetState) -> tuple[tuple[SubsetState, ...], tuple[SubsetState, ...]]:
    """Decompose the bot-evolution starting at ``subset`` into prefix + loop.

    Stepping on bot is deterministic over subsets, so the sequence of subsets
    eventually repeats; replaying prefix then loop forever reproduces it.
    """
    seen: dict[SubsetState, int] = {}
    sequence: list[SubsetState] = []
    current = subset
    while current not in seen:
        seen[current] = len(sequence)
        sequence.append(current)
        current = step_subset(nfa, current, BOT)
    split = seen[current]
    return tuple(sequence[:split]), tuple(sequence[split:])


def reachable_subsets(nfa: Nfa, actions) -> dict[SubsetState, dict[Action, SubsetState]]:
    """Deterministic subset graph from the start subset over the given actions.

    The empty subset appears as a successor but is not expanded; it stands
    for the absorbing violated condition.
    """
    graph: dict[SubsetState, dict[Action, SubsetState]] = {}
    start = nfa.start_subset()
    if not start:
        return graph
    worklist = [start]
    while worklist:
        subset = worklist.pop()
        if subset in graph:
            continue
        row: dict[Action, SubsetState] = {}
        for action in actions:
            successor = step_subset(nfa, subset, action)
            row[action] = successor
            if successor and successor not in graph:
                worklist.append(successor)
        graph[subset] = row
    return graph


def dump_dot(nfa: Nfa, title: str = "license") -> str:
    """Render the automaton as a DOT graph (states, labeled edges)."""
    lines = [f'digraph "{title}" {{', "  rankdir=LR;", '  hidden [shape=point, label=""];']
    for state in sorted(nfa.states):
        shape = "doublecircle" if state in nfa.finals else "circle"
        lines.append(f"  q{state} [shape={shape}];")
    for state in sorted(nfa.starts):
        lines.append(f"  hidden -> q{state};")
    for source, action, target in nfa.transitions:
        lines.append(f'  q{source} -> q{target} [label="{pretty_action(action)}"];')
    lines.append("}")
    return "\n".join(lines)
