"""Known-answer generators: license families, runs, DR schedules, decide families.

Every license family comes with a hand-written automaton that gives the
permitted set at each time, written from the family's meaning and not from
lict's position automata.  Runs are generated by clients that follow these
automata; a violation is planted on purpose, and its verdict is known.  The
decide families' verdicts follow from the automata (see each family's note).
``selftest.py`` checks all of this against brute force on small cases.

Actions are texts in lict's surface form (``pay[1.00]``, ``render[w,d]``,
``bot``).  A ``Fresh`` instance supplies one pass's names and amounts: all
passes use names and amounts of the same lengths and the same relative
order, but no two passes share one, so no pass can reuse a result the
program cached on an earlier pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from syntax import pay_text

BOT = "bot"
DEAD = "dead"


class Fresh:
    """Names, amounts and works for one pass of one seed."""

    def __init__(self, seed: int, pass_index: int):
        rng = random.Random(seed)
        self.tag = f"{pass_index:05d}"
        self.cents = f"{rng.randrange(100):02d}"
        self.letter = rng.choice("abcdefghjkmnpqrsuvwyz")

    def name(self, role: int) -> str:
        return f"{self.letter}{'abcdefgh'[role]}{self.tag}"

    def work(self, role: int) -> str:
        return f"w{'abcdefgh'[role]}{self.tag}"

    def amount(self, role: int) -> str:
        """Role 1..9; a higher role is a higher amount in every pass."""
        return pay_text(f"{role}{self.tag}.{self.cents}")


# ---------------------------------------------------------------------------
# License families and their hand-written automata


class Journal:
    """``((pay[A] bot* render[W,D]) | bot)*``: a fee buys one, possibly delayed, read.

    States: idle (may pay or idle), paid (may wait or read), dead.  Bot is
    permitted in every state, so this license never obligates anything but
    bot, and only after a violation.
    """

    family = "journal"

    def __init__(self, amount: str, work: str, device: str = "d"):
        self.pay = amount
        self.render = f"render[{work},{device}]"
        self.text = f"(({self.pay} bot* {self.render}) | bot)*"
        self.alphabet = (self.pay, self.render, BOT)
        self.start = "idle"

    def permitted(self, state) -> frozenset:
        if state == "idle":
            return frozenset({self.pay, BOT})
        if state == "paid":
            return frozenset({self.render, BOT})
        return frozenset({BOT})

    def step(self, state, action):
        if state == "idle" and action in (self.pay, BOT):
            return "paid" if action == self.pay else "idle"
        if state == "paid" and action in (self.render, BOT):
            return "idle" if action == self.render else "paid"
        return DEAD


class Mortgage:
    """``months`` copies of ``(pay[X] bot bot | bot pay[Y] bot | bot bot pay[Y])``.

    Each three-slot month is paid early (X in the first slot) or late (Y in
    the second or third).  States are (month, phase); after a bot in the
    first two slots the late payment is still open, after two bots it is
    obligated.  When every month is paid only bot is permitted.
    """

    family = "mortgage"

    def __init__(self, early: str, late: str, months: int):
        self.early = early
        self.late = late
        self.months = months
        month = f"({early} bot bot | bot {late} bot | bot bot {late})"
        self.text = " ".join([month] * months)
        self.alphabet = (early, late, BOT)
        self.start = (0, "start") if months else "done"

    def permitted(self, state) -> frozenset:
        if state in ("done", DEAD):
            return frozenset({BOT})
        phase = state[1]
        if phase == "start":
            return frozenset({self.early, BOT})
        if phase == "wait":
            return frozenset({self.late, BOT})
        if phase == "must":
            return frozenset({self.late})
        return frozenset({BOT})

    def step(self, state, action):
        if action not in self.permitted(state):
            return DEAD
        if state in ("done", DEAD):
            return state
        month, phase = state
        following = {
            ("start", self.early): "early1",
            ("start", BOT): "wait",
            ("early1", BOT): "early2",
            ("wait", self.late): "late2",
            ("wait", BOT): "must",
        }.get((phase, action))
        if following is not None:
            return (month, following)
        return (month + 1, "start") if month + 1 < self.months else "done"


def run_states(lic, actions):
    """States before each action and after the last one."""
    states = [lic.start]
    for action in actions:
        states.append(lic.step(states[-1], action))
    return states


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Holder:
    """One issued name in a run: its license, issue time and actions."""

    name: str
    lic: object
    issued: int
    actions: dict = field(default_factory=dict)  # time -> action (non-bot)

    def action(self, t: int) -> str:
        return self.actions.get(t, BOT)


@dataclass
class RunCase:
    horizon: int
    holders: list

    def text(self) -> str:
        lines = [f"@{h.issued} issue {h.name} = {h.lic.text}" for h in self.holders]
        for h in self.holders:
            lines += [f"@{t} do {h.name} {a}" for t, a in sorted(h.actions.items())]
        # The horizon is the last event; an explicit bot fixes it.
        last = self.holders[0]
        if not any(t == self.horizon for h in self.holders for t in h.actions):
            lines.append(f"@{self.horizon} do {last.name} bot")
        return "\n".join(lines) + "\n"

    def permitted_table(self, horizon: int) -> dict:
        """{(t, name): permitted set} by the hand-written automata."""
        table = {}
        for h in self.holders:
            state = None
            for t in range(horizon + 1):
                if t == h.issued:
                    state = h.lic.start
                table[(t, h.name)] = h.lic.permitted(state) if state is not None else frozenset({BOT})
                if state is not None:
                    state = h.lic.step(state, h.action(t))
        return table


class RunWorld:
    """A run as ``syntax.evaluate`` sees it, labelled by the automata."""

    def __init__(self, case: RunCase, canonical_of):
        self.case = case
        self.canonical_of = canonical_of
        # Past the horizon everything idles; stop once every state is fixed.
        self.last = case.horizon + 1
        while True:
            table = case.permitted_table(self.last + 1)
            if all(self._state(h, self.last) == self._state(h, self.last + 1) for h in case.holders):
                break
            self.last += 1
        self.table = table

    @staticmethod
    def _state(h, t):
        if t < h.issued:
            return None
        state = h.lic.start
        for u in range(h.issued, t):
            state = h.lic.step(state, h.action(u))
        return state

    def action(self, name, t):
        for h in self.case.holders:
            if h.name == name:
                return h.action(t)
        return BOT

    def permitted(self, name, t):
        return self.table.get((min(t, self.last), name), frozenset({BOT}))

    def issued(self, t):
        return {(h.name, self.canonical_of(h.lic.text)) for h in self.case.holders if h.issued == t}


def follow_journal(rng, lic, start: int, end: int, actions: dict, finish_idle: bool) -> None:
    """A client that follows a journal from ``start`` to ``end`` inclusive."""
    state = lic.start
    t = start
    while t <= end:
        remaining = end - t
        if state == "idle":
            if remaining >= 2 and rng.random() < 0.4:
                actions[t] = lic.pay
                state = "paid"
        elif remaining == 0 and finish_idle or rng.random() < 0.5:
            actions[t] = lic.render
            state = "idle"
        t += 1


def follow_mortgage(rng, lic, start: int, actions: dict) -> None:
    for month in range(lic.months):
        base = start + 3 * month
        slot = rng.randrange(3)
        actions[base + slot] = lic.early if slot == 0 else lic.late


def plant_violation(rng, holder, at: int) -> None:
    """Make ``holder`` do a non-permitted action at ``at``; it idles after."""
    for t in [t for t in holder.actions if t >= at]:
        del holder.actions[t]
    state = RunWorld._state(holder, at)
    lic = holder.lic
    holder.actions[at] = rng.choice([a for a in lic.alphabet if a not in lic.permitted(state)])


def monitor_case(rng, fresh: Fresh, horizon: int, journals: int, mortgage_months: int,
                 plant: str | None) -> RunCase:
    """A run with ``journals`` journal names and optionally one mortgage.

    ``plant``: None (clients follow their licenses and every payment is
    read), "unread" (one journal's last payment, near the end, is never
    read) or "violation" (the first journal does a non-permitted action
    near the end).  ``rng`` draws the behaviour and ``fresh`` only names it, so a
    generator seeded alike on every pass gives every pass the same shape.
    """
    holders = []
    for role in range(journals):
        lic = Journal(fresh.amount(role + 1), fresh.work(role))
        holder = Holder(fresh.name(role), lic, issued=role)
        follow_journal(rng, lic, role, horizon - 1, holder.actions, finish_idle=True)
        holders.append(holder)
    if mortgage_months:
        lic = Mortgage(fresh.amount(journals + 1), fresh.amount(journals + 2), mortgage_months)
        issued = horizon - 3 * mortgage_months - 1 - rng.randrange(10)
        holder = Holder(fresh.name(journals), lic, issued=issued)
        follow_mortgage(rng, lic, issued, holder.actions)
        holders.append(holder)
    near_end = horizon - 2 - rng.randrange(max(1, horizon // 50))
    if plant == "unread":
        target = holders[rng.randrange(journals)]
        for t in [t for t in target.actions if t >= near_end]:
            del target.actions[t]
        while target.actions and target.actions[max(target.actions)] == target.lic.pay:
            del target.actions[max(target.actions)]
        target.actions[near_end] = target.lic.pay
    elif plant == "violation":
        # Always the first journal, so check-spec stops at the same time
        # whatever the seed.
        plant_violation(rng, holders[0], near_end)
    return RunCase(horizon, holders)


def response_spec(case: RunCase) -> str:
    """``G((pay,n) -> F (render,n))`` for every journal name."""
    parts = [
        f"G(({h.lic.pay}, {h.name}) -> F ({h.lic.render}, {h.name}))"
        for h in case.holders
        if h.lic.family == "journal"
    ]
    return " & ".join(parts)


def compliance_spec(case: RunCase) -> str:
    """Per name, in the style of samples/journal-noviolation.lic."""
    parts = []
    for h in case.holders:
        n = h.name
        body = " & ".join(
            f"(({a}, {n}) -> P({a}, {n})) & (O({a}, {n}) -> ({a}, {n}))" for a in h.lic.alphabet
        )
        parts.append(f"(issue({n}, {h.lic.text}) -> G({body}))")
    return " & ".join(parts)


def response_holds(case: RunCase) -> bool:
    """Known answer: every journal payment is read at a later time."""
    for h in case.holders:
        if h.lic.family != "journal":
            continue
        pending = False
        for t in sorted(h.actions):
            if h.actions[t] == h.lic.pay:
                pending = True
            elif h.actions[t] == h.lic.render:
                pending = False
        if pending:
            return False
    return True


def compliance_holds(case: RunCase) -> bool:
    """Known answer: no name ever does a non-permitted action.

    With these families an obligation is never skipped without doing a
    non-permitted action, since the only obligations are bot after the end
    (or a violation) and the late mortgage payment, and either way doing
    anything else is not permitted.
    """
    horizon = case.horizon
    table = case.permitted_table(horizon)
    return all(
        h.action(t) in table[(t, h.name)] for h in case.holders for t in range(h.issued, horizon + 1)
    )


def encode_case(rng, fresh: Fresh, horizon: int) -> RunCase:
    """Two journals and a short mortgage, all following their licenses."""
    return monitor_case(rng, fresh, horizon, journals=2, mortgage_months=4, plant=None)


# ---------------------------------------------------------------------------
# DigitalRights schedules


@dataclass
class DrCase:
    repetition: str  # "single" | "exactly" | "upto"
    count: int
    period: int
    amount: str  # plain decimal text
    schedule: str
    works: tuple
    devices: tuple

    def text(self) -> str:
        head = {
            "single": f"for {self.period}",
            "exactly": f"for {self.count} {self.period}",
            "upto": f"for upto {self.count} {self.period}",
        }[self.repetition]
        return (f"{head} pay {self.amount} {self.schedule} for {{{','.join(self.works)}}} "
                f"on {{{','.join(self.devices)}}}")

    def renders(self) -> list:
        return [f"render[{w},{d}]" for w in self.works for d in self.devices]

    def payment(self, uses: int) -> str:
        from decimal import Decimal

        factor = uses if self.schedule == "peruse" else 1
        return pay_text(Decimal(self.amount) * factor)

    def period_trace(self, body) -> tuple:
        uses = sum(1 for a in body if a != BOT)
        if self.schedule == "upfront":
            return (self.payment(uses),) + tuple(body)
        return tuple(body) + (self.payment(uses),)

    def sample(self, rng, uses=None) -> tuple:
        """A random complete trace, as a list of periods.

        Each period renders ``uses`` times, or a number drawn uniformly from
        0 to period - 1, so idle and fully used periods are drawn too.
        """
        if self.repetition == "single":
            periods = 1
        elif self.repetition == "exactly":
            periods = self.count
        else:
            periods = rng.randint(1, self.count)
        slots = self.period - 1
        out = []
        for _ in range(periods):
            count = rng.randint(0, slots) if uses is None else uses
            used = set(rng.sample(range(slots), count))
            out.append(self.period_trace(
                [rng.choice(self.renders()) if k in used else BOT for k in range(slots)]
            ))
        return tuple(out)

    def all_traces(self) -> set:
        """Every complete trace, by enumeration (small cases only)."""
        slots = [BOT] + self.renders()
        one = [self.period_trace(body) for body in product(slots, repeat=self.period - 1)]
        counts = {"single": [1], "exactly": [self.count], "upto": range(self.count + 1)}[self.repetition]
        out = set()
        for periods in counts:
            for combo in product(one, repeat=periods):
                out.add(tuple(a for p in combo for a in p))
        return out

    def in_schedule(self, trace) -> bool:
        """The schedule's definition, read directly off a trace."""
        p = self.period
        if len(trace) % p:
            return False
        periods = len(trace) // p
        allowed = {"single": {1}, "exactly": {self.count}, "upto": set(range(self.count + 1))}
        if periods not in allowed[self.repetition]:
            return False
        slots = set([BOT] + self.renders())
        for k in range(periods):
            chunk = trace[k * p:(k + 1) * p]
            pay_at = 0 if self.schedule == "upfront" else p - 1
            body = chunk[:pay_at] + chunk[pay_at + 1:]
            if any(a not in slots for a in body):
                return False
            if chunk[pay_at] != self.payment(sum(1 for a in body if a != BOT)):
                return False
        return True


def wrong_payment(trace_periods, case: DrCase, rng) -> tuple:
    """The same trace with one period paying one cent more."""
    index = rng.randrange(len(trace_periods))
    periods = [list(p) for p in trace_periods]
    pay_at = 0 if case.schedule == "upfront" else case.period - 1
    from decimal import Decimal

    amount = Decimal(periods[index][pay_at][4:-1]) + Decimal("0.01")
    periods[index][pay_at] = pay_text(amount)
    return tuple(a for p in periods for a in p)


# ---------------------------------------------------------------------------
# Decide families.  Each per-name property names its own license, so a
# conjunction of properties over distinct names is satisfiable (valid)
# exactly when every conjunct is.


@dataclass
class Property:
    text: str
    role: str  # "sat" or "valid": the command that decides it
    answer: bool  # sat / valid


def journal_of(fresh: Fresh, role: int) -> tuple[str, Journal]:
    return fresh.name(role), Journal(fresh.amount(role + 1), fresh.work(role))


def read_later(fresh: Fresh, role: int) -> Property:
    """Sat: issue, pay, read two steps on (the journal permits it)."""
    n, j = journal_of(fresh, role)
    return Property(f"issue({n}, {j.text}) & X X ({j.render}, {n})", "sat", True)


def obliged_read(fresh: Fresh, role: int) -> Property:
    """Unsat: a journal never obligates a read (bot is always permitted)."""
    n, j = journal_of(fresh, role)
    return Property(f"issue({n}, {j.text}) & F O({j.render}, {n})", "sat", False)


def idle_allowed(fresh: Fresh, role: int) -> Property:
    """Valid: bot is permitted in every journal state."""
    n, j = journal_of(fresh, role)
    return Property(f"issue({n}, {j.text}) -> X X P(bot, {n})", "valid", True)


def pay_or_read(fresh: Fresh, role: int) -> Property:
    """Invalid: a read at time 0 violates the journal, leaving only bot."""
    n, j = journal_of(fresh, role)
    return Property(f"issue({n}, {j.text}) -> X X (P({j.pay}, {n}) | P({j.render}, {n}))", "valid", False)


def late_window(fresh: Fresh, role: int) -> Property:
    """Sat: two idle slots oblige the late payment of a two-month mortgage."""
    m = Mortgage(fresh.amount(role + 1), fresh.amount(role + 2), 2)
    n = fresh.name(role)
    return Property(f"issue({n}, {m.text}) & X X O({m.late}, {n})", "sat", True)


def conjunction(props) -> Property:
    props = list(props)
    role = props[0].role
    text = " & ".join(f"({p.text})" for p in props)
    return Property(text, role, all(p.answer for p in props))


def journal_responses(j: Journal, n: str) -> list[str]:
    """Response properties over one journal; the run pay@0, read@1 meets all."""
    pay, read = f"({j.pay}, {n})", f"({j.render}, {n})"
    may_pay, may_read = f"P({j.pay}, {n})", f"P({j.render}, {n})"
    return [
        f"G({pay} -> F {read})",
        f"G({read} -> F {may_pay})",
        f"G({may_read} -> F {read})",
        f"G({pay} -> X F {may_pay})",
        f"G(!{may_pay} -> F {may_pay})",
    ]


def responses(fresh: Fresh, count: int, goal: str) -> Property:
    """``count`` responses under one journal, with a known answer.

    goal "sat": plus F pay, sat (pay@0, read@1).  "unsat": plus F O(read),
    unsat (a journal never obligates a read).  "valid": implies G P(bot),
    valid.  "invalid": implies G !pay, invalid (pay@0, read@1 again).
    """
    n, j = journal_of(fresh, 0)
    body = " & ".join([f"issue({n}, {j.text})"] + journal_responses(j, n)[:count])
    if goal == "sat":
        return Property(f"{body} & F ({j.pay}, {n})", "sat", True)
    if goal == "unsat":
        return Property(f"{body} & F O({j.render}, {n})", "sat", False)
    if goal == "valid":
        return Property(f"{body} -> G P(bot, {n})", "valid", True)
    return Property(f"{body} -> G !({j.pay}, {n})", "valid", False)


def until_chain(fresh: Fresh, length: int, sat: bool) -> Property:
    """Pay, read, pay, ... each awaited with U; ``length`` steps.

    Sat as written (pay@0, read@1, pay@2, ...).  Unsat when the last step
    asks for an obligated read, which a journal never imposes.
    """
    n, j = journal_of(fresh, 0)
    steps = [(j.pay if k % 2 == 0 else j.render) for k in range(length)]
    goal = f"({steps[-1]}, {n})" if sat else f"O({j.render}, {n})"
    chain = goal
    for action in reversed(steps[:-1]):
        chain = f"(!({action}, {n}) U (({action}, {n}) & X {chain}))"
    return Property(f"issue({n}, {j.text}) & {chain}", "sat", sat)


def mortgage_window(fresh: Fresh, goal: str) -> Property:
    """Obligation windows of a two-month mortgage.

    "sat": two idle slots then an obligated late payment, sat.  "valid":
    idling the first two slots obliges the late payment, valid.
    "invalid": one idle slot already obliges it, invalid (the late payment
    may still wait a slot).
    """
    m = Mortgage(fresh.amount(1), fresh.amount(2), 2)
    n = fresh.name(0)
    issue = f"issue({n}, {m.text})"
    if goal == "sat":
        return Property(f"{issue} & X (bot, {n}) & X X O({m.late}, {n})", "sat", True)
    if goal == "valid":
        return Property(f"({issue} & (bot, {n}) & X (bot, {n})) -> X X O({m.late}, {n})", "valid", True)
    return Property(f"({issue} & (bot, {n})) -> X O({m.late}, {n})", "valid", False)

