"""Runs (issued licenses plus client behavior) and permission computation.

A run is finite: it has a horizon, nothing is issued after it, and beyond it
every name does bot.  The permitted actions for each issued name are computed
by walking the license's padded position automaton: the subset of automaton
states reached by the name's action sequence determines what may happen
next.  A timeline steps the automaton's subset ids (``Nfa.step_id``) on the
letter of each recorded action, looked up once per action object, so the
whole walk reads one memo per license.  A client that deviates, or does an
action outside the license's alphabet, steps to id 0, the empty subset,
after which only bot is permitted, forever.  Beyond the horizon the subsets
evolve deterministically under bot and eventually cycle, so the whole
interpretation is a prefix plus a loop.  ``permitted_masks`` hands out a
name's permitted sets as bitmasks over its automaton's letters, one per
time, for callers that group times by what they permit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import padded_nfa
from .licenses import BOT, Action, License, action_key, pretty_action, pretty_license

_ONLY_BOT = frozenset({BOT})


@dataclass(frozen=True)
class Run:
    """A finite timeline of issuances and client actions.

    ``issuances`` holds (time, name, license) with each name issued at most
    once; ``actions`` holds (time, name, action) with at most one action per
    name per time.  Names without a recorded action at a time implicitly do
    bot, and so does everything after the horizon.
    """

    horizon: int
    issuances: tuple[tuple[int, str, License], ...]
    actions: tuple[tuple[int, str, Action], ...]

    def __post_init__(self):
        issuance_map: dict[str, tuple[int, License]] = {}
        for time, name, lic in self.issuances:
            if time < 0:
                raise ValueError(f"issuance of {name} at negative time {time}")
            if time > self.horizon:
                raise ValueError(f"issuance of {name} at {time} is past the horizon")
            if name in issuance_map:
                raise ValueError(f"name reused: {name} is issued more than once")
            issuance_map[name] = (time, lic)
        by_name: dict[str, dict[int, Action]] = {}  # each name's actions by time
        for time, name, action in self.actions:
            if time < 0:
                raise ValueError(f"action for {name} at negative time {time}")
            if time > self.horizon:
                raise ValueError(f"action for {name} at {time} is past the horizon")
            timeline = by_name.setdefault(name, {})
            if time in timeline:
                raise ValueError(f"two actions for {name} at time {time}")
            timeline[time] = action
        object.__setattr__(self, "_issuance_map", issuance_map)
        object.__setattr__(self, "_actions_by_name", by_name)

    @property
    def names(self) -> frozenset[str]:
        """The names issued somewhere in the run."""
        return frozenset(self._issuance_map)

    def action(self, name: str, t: int) -> Action:
        """The action of ``name`` at time ``t`` (bot when none is recorded)."""
        return self._actions_by_name.get(name, {}).get(t, BOT)

    def actions_of(self, name: str) -> dict[int, Action]:
        """``name``'s recorded actions by time; a time it lacks is bot."""
        return self._actions_by_name.get(name, {})

    def issuance(self, name: str) -> tuple[int, License] | None:
        return self._issuance_map.get(name)


def make_run(issuances, actions, horizon: int | None = None) -> Run:
    """Build a run, defaulting the horizon to the last event time."""
    issuances = tuple((int(t), n, lic) for t, n, lic in issuances)
    actions = tuple((int(t), n, a) for t, n, a in actions)
    if horizon is None:
        times = [t for t, _, _ in issuances] + [t for t, _, _ in actions]
        horizon = max(times, default=0)
    return Run(horizon, issuances, actions)


def pretty_run(run: Run) -> str:
    """Serialize a run in the run-file grammar."""
    lines = []
    for time, name, lic in run.issuances:
        lines.append((time, 0, name, f"@{time} issue {name} = {pretty_license(lic)}"))
    for time, name, action in run.actions:
        lines.append((time, 1, name, f"@{time} do {name} {pretty_action(action)}"))
    lines.sort()
    return "\n".join(entry[3] for entry in lines)


class _NameTimeline:
    """Subset ids for one issued name: one per time to the horizon, then the bot tail."""

    __slots__ = ("issue_time", "nfa", "explicit_ids", "tail_prefix", "tail_loop")

    def __init__(self, run: Run, name: str, issue_time: int, lic: License):
        self.issue_time = issue_time
        nfa = self.nfa = padded_nfa(lic)
        # The letter done at each time in [issue_time, horizon]; bot unless recorded.
        word = [0] * (run.horizon + 1 - issue_time)
        letters: dict[int, int] = {}  # by the id of the action object
        for time, action in run.actions_of(name).items():
            if time >= issue_time:
                letter = letters.get(id(action))
                if letter is None:
                    letter = letters[id(action)] = nfa.letter(action)
                word[time - issue_time] = letter
        # One id per time in [issue_time, horizon + 1]; the last is where the
        # bot tail starts.
        subset = nfa.start
        ids = self.explicit_ids = [subset]
        append, rows, step = ids.append, nfa.rows, nfa.step_id
        for letter in word:
            image = rows[subset][letter]
            subset = step(subset, letter) if image is None else image
            append(subset)
        self.tail_prefix, self.tail_loop = nfa.bot_lasso(subset)

    def id_at(self, t: int) -> int | None:
        """The subset id at ``t``; None before issuance."""
        offset = t - self.issue_time
        if offset < 0:
            return None
        if offset < len(self.explicit_ids) - 1:
            return self.explicit_ids[offset]
        offset -= len(self.explicit_ids) - 1
        if offset < len(self.tail_prefix):
            return self.tail_prefix[offset]
        offset -= len(self.tail_prefix)
        return self.tail_loop[offset % len(self.tail_loop)]

    def masks(self, n: int) -> list[int]:
        """The permitted bitmask at each time ``0..n-1``; 1, bot alone, before issuance."""
        before = min(self.issue_time, n)
        ids = self.explicit_ids[:-1] + self.tail_prefix
        after = n - before
        if len(ids) < after:
            loop = self.tail_loop
            ids += loop * ((after - len(ids)) // len(loop) + 1)
        masks = self.nfa.masks
        return [1] * before + [masks[subset] for subset in ids[:after]]


class PermissionInterpretation:
    """Per-time, per-name permitted action sets for a run.

    Sets are explicit up to the horizon and continue through a per-name
    prefix-plus-loop tail; every queried name permits at least bot at every
    time, and a name that was never issued permits exactly bot.
    """

    def __init__(self, run: Run):
        self.run = run
        self._timelines: dict[str, _NameTimeline] = {}
        for issue_time, name, lic in run.issuances:
            self._timelines[name] = _NameTimeline(run, name, issue_time, lic)
        tail_lengths = [len(t.tail_prefix) for t in self._timelines.values()]
        loop_lengths = [len(t.tail_loop) for t in self._timelines.values()]
        self.prefix_len = run.horizon + 1 + max(tail_lengths, default=0)
        self.loop_len = math.lcm(*loop_lengths) if loop_lengths else 1

    def permitted(self, name: str, t: int) -> frozenset[Action]:
        timeline = self._timelines.get(name)
        subset = None if timeline is None else timeline.id_at(t)
        return _ONLY_BOT if subset is None else timeline.nfa.permitted_id(subset)

    def permitted_masks(self, name: str, n: int) -> tuple[tuple[Action, ...], list[int]]:
        """``name``'s letters, and what it permits at each time ``0..n-1`` as a bitmask over them.

        Bot is letter 0 of every automaton, so bot alone is 1, as before
        issuance or at any time of a name never issued.
        """
        timeline = self._timelines.get(name)
        if timeline is None:
            return (BOT,), [1] * n
        return timeline.nfa.letters, timeline.masks(n)

    def obligated(self, name: str, t: int) -> Action | None:
        """The sole permitted action, if there is exactly one."""
        permitted = self.permitted(name, t)
        if len(permitted) == 1:
            return next(iter(permitted))
        return None


def permission_line(name: str, permitted: frozenset[Action]) -> str:
    """What ``name`` may and must do, given its permitted set, as the CLI and REPL print it.

    Actions are listed in ``action_key`` order, pay by amount.
    """
    rendered = [pretty_action(a) for a in sorted(permitted, key=action_key)]
    obligated = rendered[0] if len(rendered) == 1 else "none"
    return f"n={name} permits={{{','.join(rendered)}}} obligated={obligated}"


def compute_permissions(run: Run) -> PermissionInterpretation:
    """The minimal permission interpretation of a run.

    For an active name the permitted actions are exactly those keeping the
    name's action sequence viable; a violated name permits only bot from the
    violation on.  Runs in time polynomial in the run size (one automaton per
    license, one subset step per time).
    """
    return PermissionInterpretation(run)
