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

from decimal import Decimal
from itertools import accumulate

from .licenses import (
    BOT,
    EXACT,
    ONE,
    Action,
    Atom,
    License,
    Pay,
    Render,
    Value,
    concat,
    fold_balanced,
    union,
)

UPFRONT = "upfront"
FLATRATE = "flatrate"
PERUSE = "peruse"
SCHEDULES = (UPFRONT, FLATRATE, PERUSE)

DEFAULT_DR_CAP = 64
# The most nodes a compiled license may have as a tree, which bounds its
# printed text: a peruse period of 17 with two renders fits, 18 does not.
DR_SIZE_LIMIT = 10**6


class DrCapExceeded(ValueError):
    """The license spans more time units than the cap, or compiles to more nodes than the limit."""


class Single(Value):
    """One period of the given length."""

    __slots__ = ("period",)


class Exactly(Value):
    """Exactly ``count`` consecutive periods."""

    __slots__ = ("count", "period")


class Upto(Value):
    """Any number of consecutive periods from zero up to ``count``."""

    __slots__ = ("count", "period")


Repetition = Single | Exactly | Upto


class DrLicense(Value):
    __slots__ = ("repetition", "amount", "schedule", "works", "devices")

    def __init__(
        self,
        repetition: Repetition,
        amount: Decimal,
        schedule: str,
        works: frozenset[str],
        devices: frozenset[str],
    ) -> None:
        if not isinstance(amount, Decimal):
            amount = Decimal(str(amount))
        _dr_repetition(self, repetition)
        _dr_amount(self, Pay(amount).amount)
        _dr_schedule(self, schedule)
        _dr_works(self, works)
        _dr_devices(self, devices)
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown payment schedule {schedule!r}")
        if self.period < 1:
            raise ValueError("period length must be at least 1")
        if isinstance(repetition, (Exactly, Upto)) and repetition.count < 1:
            raise ValueError("period count must be at least 1")
        if not works:
            raise ValueError("the set of works must not be empty")
        if not devices:
            raise ValueError("the set of devices must not be empty")

    @property
    def period(self) -> int:
        return self.repetition.period

    @property
    def total_units(self) -> int:
        if isinstance(self.repetition, Single):
            return self.repetition.period
        return self.repetition.count * self.repetition.period


_dr_repetition, _dr_amount, _dr_schedule = DrLicense.repetition.__set__, DrLicense.amount.__set__, DrLicense.schedule.__set__
_dr_works, _dr_devices = DrLicense.works.__set__, DrLicense.devices.__set__


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


def _period_license(dr: DrLicense) -> License:
    """A regular license with exactly the period's traces."""
    renders = _render_slots(dr)
    bot = Atom(BOT)
    if dr.schedule != PERUSE:
        slot = fold_balanced([bot] + [Atom(action) for action in renders], union)
        body = _license_power(slot, dr.period - 1)
        if dr.schedule == UPFRONT:
            return concat(Atom(Pay(dr.amount)), body)
        return concat(body, Atom(Pay(dr.amount)))
    # Per use: the closing payment depends on how many slots hold a render.
    # What may follow slot i after k renders is one residual language
    # (Brzozowski, 1964), S(i, k) = bot S(i+1, k) | R S(i+1, k+1), which ends
    # in the payment for k renders.  Built from the last slot back, each S is
    # one object shared by both its parents: O(p^2) distinct nodes, and the
    # printer lays each out once.
    render = fold_balanced([Atom(action) for action in renders], union)
    slots = dr.period - 1
    rest = [Atom(Pay(EXACT.multiply(dr.amount, uses))) for uses in range(slots + 1)]
    for slot in range(slots - 1, -1, -1):
        # at most ``slot`` renders come before this slot
        rest = [union(concat(bot, rest[k]), concat(render, rest[k + 1])) for k in range(slot + 1)]
    return rest[0]


def compiled_size(dr: DrLicense) -> int:
    """The size as a tree of the license ``compile_dr`` builds, without building it.

    Read off the shapes built: a union of n atoms has 2n - 1 nodes, n
    copies of a part of s nodes concatenated have n (s + 1) - 1, and the
    rests of a ``peruse`` period at one slot all have the same size,
    ``4 + |R| + 2 |rest after it|``, from 1 for the closing payment.
    """
    renders = len(dr.works) * len(dr.devices)
    units = dr.period
    if dr.schedule == PERUSE:
        # s(1) = 1 and s(u) = 2 renders + 3 + 2 s(u - 1), solved
        period = (2 * renders + 4) * 2 ** (units - 1) - (2 * renders + 3)
    else:
        # units - 1 slots of bot | renders, the payment, and units - 1 concats
        period = (units - 1) * (2 * renders + 1) + units
    repetition = dr.repetition
    if isinstance(repetition, Single):
        return period
    count = repetition.count
    if isinstance(repetition, Exactly):
        return count * (period + 1) - 1
    # the empty license and the powers 1 to count, joined by count unions
    return 1 + (period + 1) * count * (count + 1) // 2


def compile_dr(dr: DrLicense, cap: int = DEFAULT_DR_CAP) -> License:
    """Translate a DR license into a regular license with the same traces.

    The result is language-equal to ``lict.reference.dr_traces``; its shape is a
    union of per-period concatenations.  ``upto`` repetitions include the
    empty trace, which is only expressible with the internal empty license,
    so their compiled form is not re-parseable from surface syntax.

    Raises :class:`DrCapExceeded` when the license spans more than ``cap``
    time units, or when the result would have more than ``DR_SIZE_LIMIT``
    nodes as a tree, which is what its printed text spells out; both are
    checked before anything is built.
    """
    _check_cap(dr, cap)
    size = compiled_size(dr)
    if size > DR_SIZE_LIMIT:
        # a raised cap can make the count too long to print in full
        nodes = size if size.bit_length() <= 64 else f"over 2^{size.bit_length() - 1}"
        raise DrCapExceeded(f"license compiles to {nodes} nodes, above the limit of {DR_SIZE_LIMIT}")
    period = _period_license(dr)
    if isinstance(dr.repetition, Single):
        lic = period
    elif isinstance(dr.repetition, Exactly):
        lic = _license_power(period, dr.repetition.count)
    else:
        # each power extends the one before, so all share its nodes
        lic = fold_balanced(list(accumulate([period] * dr.repetition.count, concat, initial=ONE)), union)
    return lic
