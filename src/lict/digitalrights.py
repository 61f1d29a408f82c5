"""The DigitalRights surface language: payment-schedule licenses per period.

A DR license covers one or more time periods of fixed length.  Within a
period the client may render any covered work on any covered device once per
time unit (or do nothing), and pays according to the schedule: ``upfront``
pays at the period's first unit, ``flatrate`` pays a fixed amount at its last
unit, ``peruse`` pays at the last unit proportionally to the number of
renders in the period.  Every DR license denotes a finite trace set and is
therefore expressible as a regular license; ``compile_dr`` performs that
translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import combinations

from .licenses import (
    BOT,
    EXACT,
    ONE,
    Action,
    Atom,
    License,
    Pay,
    Render,
    concat,
    fold_balanced,
    union,
)

UPFRONT = "upfront"
FLATRATE = "flatrate"
PERUSE = "peruse"
SCHEDULES = (UPFRONT, FLATRATE, PERUSE)

DEFAULT_DR_CAP = 64


class DrCapExceeded(ValueError):
    """The license spans more time units than the enumeration cap allows."""


@dataclass(frozen=True)
class Single:
    """One period of the given length."""

    period: int


@dataclass(frozen=True)
class Exactly:
    """Exactly ``count`` consecutive periods."""

    count: int
    period: int


@dataclass(frozen=True)
class Upto:
    """Any number of consecutive periods from zero up to ``count``."""

    count: int
    period: int


Repetition = Single | Exactly | Upto


@dataclass(frozen=True)
class DrLicense:
    repetition: Repetition
    amount: Decimal
    schedule: str
    works: frozenset[str]
    devices: frozenset[str]

    def __post_init__(self):
        amount = self.amount
        if not isinstance(amount, Decimal):
            amount = Decimal(str(amount))
        object.__setattr__(self, "amount", Pay(amount).amount)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown payment schedule {self.schedule!r}")
        if self.period < 1:
            raise ValueError("period length must be at least 1")
        if isinstance(self.repetition, (Exactly, Upto)) and self.repetition.count < 1:
            raise ValueError("period count must be at least 1")
        if not self.works:
            raise ValueError("the set of works must not be empty")
        if not self.devices:
            raise ValueError("the set of devices must not be empty")

    @property
    def period(self) -> int:
        return self.repetition.period

    @property
    def total_units(self) -> int:
        if isinstance(self.repetition, Single):
            return self.repetition.period
        return self.repetition.count * self.repetition.period


def _render_slots(dr: DrLicense) -> list[Action]:
    return [Render(work, device) for work in sorted(dr.works) for device in sorted(dr.devices)]


def _check_cap(dr: DrLicense, cap: int) -> None:
    if dr.total_units > cap:
        raise DrCapExceeded(
            f"license spans {dr.total_units} time units, above the cap of {cap}"
        )


def _license_power(lic: License, count: int) -> License:
    result: License = ONE
    for _ in range(count):
        result = concat(result, lic)
    return result


def _union_all(parts: list[License]) -> License:
    # balanced, so a peruse period's 2^(p-1) alternatives nest only p deep
    return fold_balanced(parts, union)


def _period_license(dr: DrLicense) -> License:
    """A regular license with exactly the period's traces."""
    renders = _render_slots(dr)
    bot = Atom(BOT)
    slot = _union_all([bot] + [Atom(action) for action in renders])
    body = _license_power(slot, dr.period - 1)
    if dr.schedule == UPFRONT:
        return concat(Atom(Pay(dr.amount)), body)
    if dr.schedule == FLATRATE:
        return concat(body, Atom(Pay(dr.amount)))
    # Per use: group period bodies by how many slots hold a render, because
    # the closing payment depends on that count.  Alternatives with a common
    # prefix share its one object, so the patterns form a trie of fewer than
    # 2^(slots + 1) nodes, and the printer renders each of them once.
    slots = dr.period - 1
    render_union = _union_all([Atom(action) for action in renders])
    joined: dict[tuple[int, int], License] = {}
    alternatives: list[License] = []
    for uses in range(slots + 1):
        payment = Atom(Pay(EXACT.multiply(dr.amount, uses)))
        for positions in combinations(range(slots), uses):
            pattern: License = ONE
            for index in range(slots):
                piece = render_union if index in positions else bot
                key = (id(pattern), id(piece))
                longer = joined.get(key)
                if longer is None:
                    longer = joined[key] = concat(pattern, piece)
                pattern = longer
            alternatives.append(concat(pattern, payment))
    return _union_all(alternatives)


def compile_dr(dr: DrLicense, cap: int = DEFAULT_DR_CAP) -> License:
    """Translate a DR license into a regular license with the same traces.

    The result is language-equal to ``lict.reference.dr_traces``; its shape is a
    union of per-period concatenations.  ``upto`` repetitions include the
    empty trace, which is only expressible with the internal empty license,
    so their compiled form is not re-parseable from surface syntax.
    """
    _check_cap(dr, cap)
    period = _period_license(dr)
    if isinstance(dr.repetition, Single):
        return period
    if isinstance(dr.repetition, Exactly):
        return _license_power(period, dr.repetition.count)
    return _union_all(
        [_license_power(period, n) for n in range(dr.repetition.count + 1)]
    )
