"""Runs (issued licenses plus client behavior) and permission computation.

A run is finite: it has a horizon, nothing is issued after it, and beyond it
every name does bot.  The permitted actions for each issued name are computed
by walking the license's padded position automaton: the subset of automaton
states reached by the name's action sequence determines what may happen next.
A client that deviates empties its subset, after which only bot is permitted,
forever.  Beyond the horizon the subsets evolve deterministically under bot
and eventually cycle, so the whole interpretation is a prefix plus a loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import (
    Nfa,
    SubsetState,
    lasso_of,
    padded_nfa,
    permitted_from,
    step_subset,
)
from .licenses import BOT, Action, License, pretty_action, pretty_license


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
        seen_names = set()
        for time, name, _ in self.issuances:
            if time < 0:
                raise ValueError(f"issuance of {name} at negative time {time}")
            if time > self.horizon:
                raise ValueError(f"issuance of {name} at {time} is past the horizon")
            if name in seen_names:
                raise ValueError(f"name reused: {name} is issued more than once")
            seen_names.add(name)
        seen_slots = set()
        for time, name, _ in self.actions:
            if time < 0:
                raise ValueError(f"action for {name} at negative time {time}")
            if time > self.horizon:
                raise ValueError(f"action for {name} at {time} is past the horizon")
            if (time, name) in seen_slots:
                raise ValueError(f"two actions for {name} at time {time}")
            seen_slots.add((time, name))
        object.__setattr__(
            self, "_action_map", {(t, n): a for t, n, a in self.actions}
        )
        object.__setattr__(
            self, "_issuance_map", {n: (t, lic) for t, n, lic in self.issuances}
        )
        issued_at: dict[int, list[tuple[str, License]]] = {}
        for t, n, lic in self.issuances:
            issued_at.setdefault(t, []).append((n, lic))
        object.__setattr__(
            self, "_issued_at", {t: frozenset(v) for t, v in issued_at.items()}
        )

    @property
    def names(self) -> frozenset[str]:
        """The names issued somewhere in the run."""
        return frozenset(self._issuance_map)

    def action(self, name: str, t: int) -> Action:
        """The action of ``name`` at time ``t`` (bot when none is recorded)."""
        return self._action_map.get((t, name), BOT)

    def licenses_at(self, t: int) -> frozenset[tuple[str, License]]:
        return self._issued_at.get(t, frozenset())

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
    """Subset states and permitted sets for one issued name."""

    __slots__ = (
        "issue_time",
        "nfa",
        "explicit_subsets",
        "tail_prefix",
        "tail_loop",
        "_permitted",
    )

    def __init__(self, run: Run, name: str, issue_time: int, lic: License):
        self.issue_time = issue_time
        self.nfa: Nfa = padded_nfa(lic)
        subset = self.nfa.start_subset()
        # One subset per time in [issue_time, horizon + 1]; the last entry is
        # where the bot tail starts.
        self.explicit_subsets: list[SubsetState] = [subset]
        for t in range(issue_time, run.horizon + 1):
            subset = step_subset(self.nfa, subset, run.action(name, t))
            self.explicit_subsets.append(subset)
        self.tail_prefix, self.tail_loop = lasso_of(self.nfa, self.explicit_subsets[-1])
        # Permitted set per subset: the labeller asks at every canonical time.
        self._permitted: dict[SubsetState, frozenset[Action]] = {}

    def subset(self, t: int) -> SubsetState | None:
        if t < self.issue_time:
            return None
        offset = t - self.issue_time
        if offset < len(self.explicit_subsets) - 1:
            return self.explicit_subsets[offset]
        tail_offset = offset - (len(self.explicit_subsets) - 1)
        if tail_offset < len(self.tail_prefix):
            return self.tail_prefix[tail_offset]
        tail_offset -= len(self.tail_prefix)
        return self.tail_loop[tail_offset % len(self.tail_loop)]

    def permitted(self, t: int) -> frozenset[Action]:
        subset = self.subset(t)
        if subset is None:
            return frozenset({BOT})
        permitted = self._permitted.get(subset)
        if permitted is None:
            permitted = self._permitted[subset] = permitted_from(self.nfa, subset)
        return permitted


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
        if timeline is None:
            return frozenset({BOT})
        return timeline.permitted(t)

    def obligated(self, name: str, t: int) -> Action | None:
        """The sole permitted action, if there is exactly one."""
        permitted = self.permitted(name, t)
        if len(permitted) == 1:
            return next(iter(permitted))
        return None

    def subset_state(self, name: str, t: int) -> SubsetState | None:
        """The automaton subset tracking ``name`` at ``t`` (None before issuance)."""
        timeline = self._timelines.get(name)
        if timeline is None:
            return None
        return timeline.subset(t)


def permission_line(perms: PermissionInterpretation, name: str, t: int) -> str:
    """What ``name`` may and must do at ``t``, as the CLI and REPL print it."""
    permitted = sorted(perms.permitted(name, t), key=pretty_action)
    rendered = ",".join(pretty_action(a) for a in permitted)
    obligated = perms.obligated(name, t)
    obligated_text = pretty_action(obligated) if obligated is not None else "none"
    return f"n={name} permits={{{rendered}}} obligated={obligated_text}"


def compute_permissions(run: Run) -> PermissionInterpretation:
    """The minimal permission interpretation of a run.

    For an active name the permitted actions are exactly those keeping the
    name's action sequence viable; a violated name permits only bot from the
    violation on.  Runs in time polynomial in the run size (one automaton per
    license, one subset step per time).
    """
    return PermissionInterpretation(run)
