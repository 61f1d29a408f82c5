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

Each automaton numbers its alphabet as letters, sorted by ``action_key`` with
bot always letter 0, and a set of actions as the int with bit ``i`` set for
letter ``i``; its transitions are indexed by ``(state, letter)``.  It keeps
one memo, the subset construction (Rabin & Scott, 1959) filled as it is
asked for: every subset reached gets a small int id, 0 the empty one, with
a row of successor ids by letter and its permitted set as a bitmask.
Every question is asked by id: ``step_id``, ``masks``, ``permitted_id``,
``bot_lasso`` and ``reachable_subsets`` all answer through that memo, and
``subsets[i]`` gives the states behind id ``i``.  ``padded_nfa`` builds a
license's automaton on first use and keeps it on the license object, so
every caller that holds the license shares one automaton and its ids, and
the automaton lives exactly as long as the license.  The parsers give equal
license texts one object (:mod:`lict.parsing`), so they share one automaton
too; an equal license built apart builds its own.
"""

from __future__ import annotations

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
_NO_EDGES: dict = {}  # the transitions of a state the automaton does not have


def mask_actions(letters, mask: int) -> frozenset[Action]:
    """The actions whose letters are set in ``mask``."""
    return frozenset(action for letter, action in enumerate(letters) if mask >> letter & 1)


class Nfa:
    """An epsilon-free automaton over ``letters``, fixed at construction, and its subset memo.

    ``subsets[i]`` is the frozenset of states with id ``i``, ``masks[i]``
    what it permits, and ``rows[i][letter]`` the id it steps to, None until
    asked for.  Each row ends with one more entry, 0, the column ``letter``
    gives every action outside the alphabet.  Ids are given in the order
    subsets are first asked about, but every answer is a function of the
    subset and the letter alone, so none depends on who asked first.
    """

    __slots__ = ("states", "starts", "finals", "pad_state", "letters", "start", "subsets",
                 "rows", "masks", "_letter_of", "_edges", "_targets", "_out", "_ids")

    def __init__(self, states, starts, finals, letters, edges, pad_state=None):
        """``letters`` sorted by ``action_key``, bot first; ``edges`` (source, letter, target)."""
        self.states = frozenset(states)
        self.starts = frozenset(starts)
        self.finals = frozenset(finals)
        self.pad_state = pad_state
        self.letters = tuple(letters)
        self._letter_of = {action: letter for letter, action in enumerate(self.letters)}
        self._edges = tuple(edges)
        targets: dict[int, dict[int, list[int]]] = {state: {} for state in self.states}
        out = dict.fromkeys(self.states, 0)  # each state's outgoing letters
        for source, letter, target in self._edges:
            row = targets[source]
            found = row.get(letter)
            if found is None:
                row[letter] = [target]
                out[source] |= 1 << letter
            else:
                found.append(target)
        self._targets = targets
        self._out = out
        empty = frozenset()
        self.subsets: list[SubsetState] = [empty]
        self._ids = {empty: 0}
        self.rows: list[list] = [[0] * (len(self.letters) + 1)]
        self.masks = [1]
        self.start = self.subset_id(self.starts)

    @property
    def transitions(self) -> tuple[tuple[int, Action, int], ...]:
        """(source, action, target), by source, ``action_key`` and target, duplicates kept."""
        letters = self.letters
        return tuple((source, letters[letter], target) for source, letter, target in sorted(self._edges))

    def letter(self, action: Action) -> int:
        """The action's letter; one outside the alphabet gets the column that steps to 0."""
        return self._letter_of.get(action, len(self.letters))

    def subset_id(self, subset: SubsetState) -> int:
        """The id of a frozenset of states, given on first sight."""
        found = self._ids.get(subset)
        if found is None:
            found = self._ids[subset] = len(self.subsets)
            self.subsets.append(subset)
            mask = 1 if subset & self.finals else 0
            for state in subset:
                mask |= self._out.get(state, 0)
            self.masks.append(mask)
            self.rows.append([None] * len(self.letters) + [0])
        return found

    def step_id(self, subset: int, letter: int) -> int:
        """The id subset ``subset`` steps to on ``letter``; the empty subset is absorbing."""
        row = self.rows[subset]
        found = row[letter]
        if found is None:
            image: set[int] = set()
            for state in self.subsets[subset]:
                image.update(self._targets.get(state, _NO_EDGES).get(letter, ()))
            found = row[letter] = self.subset_id(frozenset(image))
        return found

    def permitted_id(self, subset: int) -> frozenset[Action]:
        """``masks[subset]`` as a set of actions.

        The actions leaving the subset, plus bot when it holds an accepting
        state (the license may be complete, so doing nothing stays viable);
        the empty (violated) subset permits exactly bot.
        """
        return mask_actions(self.letters, self.masks[subset])

    def bot_lasso(self, subset: int) -> tuple[list[int], list[int]]:
        """The bot-evolution of ``subset`` as prefix and loop ids.

        Stepping on bot is deterministic over subsets, so the sequence of
        subsets eventually repeats; replaying prefix then loop forever
        reproduces it.
        """
        seen: dict[int, int] = {}
        sequence: list[int] = []
        while subset not in seen:
            seen[subset] = len(sequence)
            sequence.append(subset)
            subset = self.step_id(subset, 0)
        split = seen[subset]
        return sequence[:split], sequence[split:]


def build_nfa(lic: License, padded: bool = False) -> Nfa:
    """The position automaton accepting exactly the license's traces, a new one per call.

    ``padded`` appends the bot stream that follows a completed license.  The
    (nullable, first, last) of each node is computed on an explicit
    post-order stack, numbering action occurrences 1, 2, ... from the left,
    and each node's follow pairs are appended in place, after those of its
    children; state 0 is the start.  Every transition into a position
    carries that position's action, so each position is lettered once.
    """
    symbols: list[Action] = [BOT]  # position -> its action (0: the start, so bot is a letter)
    follow: list[tuple[int, int]] = []  # (source, target position)
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
            follow += [(q, p) for q in last for p in first]
            done[-1] = (True, first, last)
        elif node is Concat or node is Union:
            null_r, first_r, last_r = done.pop()
            null_l, first_l, last_l = done[-1]
            union = node is Union
            if not union:
                follow += [(q, p) for q in last_l for p in first_r]
            if union or null_l:
                first_l += first_r
            if union or null_r:
                last_r += last_l
            done[-1] = (null_l or null_r if union else null_l and null_r, first_l, last_r)
        else:
            raise TypeError(f"not a license: {node!r}")
    null, first, last = done[0]
    follow += [(0, p) for p in first]
    finals = set(last)
    if null:
        finals.add(0)

    # Trim states that cannot reach acceptance; aliveness of a subset then
    # coincides with viability of the consumed input.
    backward: dict[int, set[int]] = {}
    for source, target in follow:
        backward.setdefault(target, set()).add(source)
    alive = set(finals)
    frontier = list(finals)
    while frontier:
        state = frontier.pop()
        for previous in backward.get(state, ()):
            if previous not in alive:
                alive.add(previous)
                frontier.append(previous)

    letters = sorted(set(symbols), key=action_key)  # bot first
    letter_of = {action: letter for letter, action in enumerate(letters)}
    symbols = [letter_of[action] for action in symbols]
    transitions = [(q, symbols[p], p) for q, p in follow if q in alive and p in alive]
    pad = None
    if padded and finals:
        pad = max(alive) + 1
        transitions += [(final, 0, pad) for final in finals]
        transitions.append((pad, 0, pad))
        alive.add(pad)
        finals.add(pad)
    return Nfa(alive, {0} & alive, finals, letters, transitions, pad)


def padded_nfa(lic: License) -> Nfa:
    """The license's padded automaton, built on first use and kept on the license object."""
    try:
        return lic._nfa
    except AttributeError:  # not built yet
        nfa = build_nfa(lic, padded=True)
        object.__setattr__(lic, "_nfa", nfa)
        return nfa


def reachable_subsets(nfa: Nfa, actions, limit: int | None = None) -> dict[int, dict[Action, int]]:
    """Deterministic subset graph from the start subset over the given actions, by id.

    Each reached id maps every action to the id it steps to, in the order a
    depth-first search first expands them.  The empty subset, id 0, appears
    as a successor but is not expanded; it stands for the absorbing
    violated condition.  Under a ``limit`` the search stops as soon as the
    graph holds more than ``limit`` ids.
    """
    actions = tuple(actions)
    letters = [nfa.letter(action) for action in actions]
    graph: dict[int, dict[Action, int]] = {}
    worklist = [nfa.start] if nfa.start else []
    while worklist and (limit is None or len(graph) <= limit):
        subset = worklist.pop()
        if subset in graph:
            continue
        row = [nfa.step_id(subset, letter) for letter in letters]
        graph[subset] = dict(zip(actions, row))
        worklist += [successor for successor in row if successor and successor not in graph]
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
