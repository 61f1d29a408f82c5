"""Position automata for licenses, each with its subset construction filled on demand.

The construction is the position (Glushkov) automaton: one state per action
occurrence plus a start state, no silent transitions, linearly many states
and at most quadratically many transitions in the license size.  States that
cannot reach acceptance are trimmed away, so a subset of states is "alive"
exactly when the consumed input is viable.

``padded_nfa`` appends the implicit stream of bot actions that follows a
completed license: an extra absorbing state reachable from every accepting
state by bot.  Permission tracking always runs on the padded automaton; the
empty subset is the absorbing "violated" condition, which permits only bot.

Every engine steps subsets of states and asks what they permit through
``Nfa.step`` and ``Nfa.permitted``, which memoise the subset construction
(Rabin & Scott, 1959) on the automaton as it is asked for; ``padded_nfa`` keeps
one automaton per license, so every caller shares its memo.
"""

from __future__ import annotations

from functools import lru_cache

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
    """An epsilon-free automaton over actions, fixed at construction.

    The memos behind ``step`` and ``permitted`` are keyed by the values asked
    about, so their answers do not depend on who asked first.
    """

    __slots__ = ("states", "starts", "finals", "transitions", "pad_state",
                 "_successors", "_outgoing", "_steps", "_permits")

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
        self._steps: dict[tuple[SubsetState, Action], SubsetState] = {}
        self._permits: dict[SubsetState, frozenset[Action]] = {}

    def successors(self, state: int, action: Action) -> frozenset[int]:
        return self._successors.get((state, action), frozenset())

    def outgoing_actions(self, state: int) -> frozenset[Action]:
        return self._outgoing.get(state, frozenset())

    def step(self, subset: SubsetState, action: Action) -> SubsetState:
        """Image of the subset under one action; the empty subset is absorbing."""
        key = (subset, action)
        image = self._steps.get(key)
        if image is None:
            out: set[int] = set()
            for state in subset:
                out |= self.successors(state, action)
            image = self._steps[key] = frozenset(out)
        return image

    def permitted(self, subset: SubsetState) -> frozenset[Action]:
        """Actions with a transition from the subset, plus bot where padding applies.

        Bot is included whenever the subset contains an accepting state (the
        license can be considered complete, so doing nothing stays viable).  A
        violated (empty) subset permits exactly bot.
        """
        permitted = self._permits.get(subset)
        if permitted is None:
            actions = {BOT} if not subset or subset & self.finals else set()
            for state in subset:
                actions |= self.outgoing_actions(state)
            permitted = self._permits[subset] = frozenset(actions)
        return permitted


def build_nfa(lic: License, padded: bool = False) -> Nfa:
    """The position automaton accepting exactly the license's traces, a new one per call.

    ``padded`` appends the bot stream that follows a completed license.  The
    (nullable, first, last) of each node is computed on an explicit
    post-order stack, numbering action occurrences 1, 2, ... from the left,
    and each node's follow pairs are appended in place as transitions, after
    those of its children; state 0 is the start.
    """
    symbols: list[Action] = [BOT]  # position -> its action (0: the start, unused)
    transitions: list[tuple[int, Action, int]] = []
    done: list[tuple] = []  # (nullable, first, last) of the finished nodes, in order
    stack: list = [lic]  # nodes to walk, and the classes of nodes whose children are done
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            done.append((False, [len(symbols)], [len(symbols)]))
            symbols.append(node.action)
        elif kind is Concat or kind is Union:
            stack += (kind, node.right, node.left)
        elif kind is Star:
            stack += (Star, node.body)
        elif kind is Zero or kind is One:
            done.append((kind is One, [], []))
        elif node is Star:
            null, first, last = done[-1]
            transitions += [(q, symbols[p], p) for q in last for p in first]
            done[-1] = (True, first, last)
        elif node is Concat or node is Union:
            null_r, first_r, last_r = done.pop()
            null_l, first_l, last_l = done[-1]
            union = node is Union
            if not union:
                transitions += [(q, symbols[p], p) for q in last_l for p in first_r]
            if union or null_l:
                first_l += first_r
            if union or null_r:
                last_r += last_l
            done[-1] = (null_l or null_r if union else null_l and null_r, first_l, last_r)
        else:
            raise TypeError(f"not a license: {node!r}")
    null, first, last = done[0]
    transitions += [(0, symbols[p], p) for p in first]
    finals = set(last)
    if null:
        finals.add(0)

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
    transitions = [edge for edge in transitions if edge[0] in alive and edge[2] in alive]

    pad = None
    if padded and finals:
        pad = max(alive) + 1
        transitions += [(final, BOT, pad) for final in finals]
        transitions.append((pad, BOT, pad))
        alive.add(pad)
        finals.add(pad)
    return Nfa(alive, {0} & alive, finals, transitions, pad)


@lru_cache(maxsize=None)
def padded_nfa(lic: License) -> Nfa:
    """The license's padded automaton: one per license, so its memos are shared."""
    return build_nfa(lic, padded=True)


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
        current = nfa.step(current, BOT)
    split = seen[current]
    return tuple(sequence[:split]), tuple(sequence[split:])


def reachable_subsets(nfa: Nfa, actions) -> dict[SubsetState, dict[Action, SubsetState]]:
    """Deterministic subset graph from the start subset over the given actions.

    The empty subset appears as a successor but is not expanded; it stands
    for the absorbing violated condition.
    """
    graph: dict[SubsetState, dict[Action, SubsetState]] = {}
    start = nfa.starts
    if not start:
        return graph
    worklist = [start]
    while worklist:
        subset = worklist.pop()
        if subset in graph:
            continue
        row: dict[Action, SubsetState] = {}
        for action in actions:
            successor = nfa.step(subset, action)
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
