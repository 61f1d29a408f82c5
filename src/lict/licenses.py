"""Regular licenses over render/pay actions: actions, ASTs, constructors, printing.

A license is a regular expression whose language is the set of complete action
sequences a client may legitimately perform.  The null action ``bot`` is a
first-class action: it may appear inside a license, and a finished license
implicitly allows doing nothing forever (completed traces are padded with an
infinite tail of ``bot`` when judging viability).  The engines read licenses
through their position automata (:mod:`lict.automata`); the trace semantics
itself (enumeration, derivatives, viability) is the oracle in
:mod:`lict.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

_CENT = Decimal("0.01")


@dataclass(frozen=True)
class Render:
    """Render a work on a device."""

    work: str
    device: str


@dataclass(frozen=True)
class Pay:
    """Pay an exact, non-negative amount (fixed point, two fractional digits).

    Amounts are compared by exact value; ``Pay("1.5")`` and ``Pay("1.50")``
    denote the same action.
    """

    amount: Decimal

    def __post_init__(self) -> None:
        amount = self.amount
        if not isinstance(amount, Decimal):
            amount = Decimal(str(amount))
        quantized = amount.quantize(_CENT)
        if quantized != amount:
            raise ValueError(f"pay amount {amount} has more than two fractional digits")
        if quantized < 0:
            raise ValueError(f"pay amount {amount} is negative")
        object.__setattr__(self, "amount", quantized)


@dataclass(frozen=True)
class Bot:
    """The null ("do nothing") action."""


BOT = Bot()

Action = Render | Pay | Bot

def pretty_action(action: Action) -> str:
    if isinstance(action, Bot):
        return "bot"
    if isinstance(action, Pay):
        return f"pay[{action.amount}]"
    return f"render[{action.work},{action.device}]"


def action_key(action: Action):
    """Deterministic sort key: bot first, then pay by amount, then render."""
    if isinstance(action, Bot):
        return (0, "", "")
    if isinstance(action, Pay):
        return (1, str(action.amount), "")
    return (2, action.work, action.device)


@dataclass(frozen=True)
class License:
    pass


@dataclass(frozen=True)
class Atom(License):
    action: Action


@dataclass(frozen=True)
class Concat(License):
    left: License
    right: License


@dataclass(frozen=True)
class Union(License):
    left: License
    right: License


@dataclass(frozen=True)
class Star(License):
    body: License


@dataclass(frozen=True)
class Zero(License):
    """The license with no traces at all.  Internal only, never parsed."""


@dataclass(frozen=True)
class One(License):
    """The license whose sole trace is empty.  Internal only, never parsed."""


ZERO = Zero()
ONE = One()


def concat(left: License, right: License) -> License:
    """Concatenation with local zero/one simplification."""
    if isinstance(left, Zero) or isinstance(right, Zero):
        return ZERO
    if isinstance(left, One):
        return right
    if isinstance(right, One):
        return left
    return Concat(left, right)


def union(left: License, right: License) -> License:
    """Union with local zero simplification and idempotence."""
    if isinstance(left, Zero):
        return right
    if isinstance(right, Zero):
        return left
    if left == right:
        return left
    return Union(left, right)


def fold_balanced(parts: list, combine):
    """Combine a nonempty list pairwise into a tree of logarithmic depth."""
    while len(parts) > 1:
        parts = [
            combine(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
            for i in range(0, len(parts), 2)
        ]
    return parts[0]


def license_actions(lic: License) -> frozenset[Action]:
    """Every action literally occurring in the license."""
    if isinstance(lic, (Zero, One)):
        return frozenset()
    if isinstance(lic, Atom):
        return frozenset({lic.action})
    if isinstance(lic, (Concat, Union)):
        return license_actions(lic.left) | license_actions(lic.right)
    if isinstance(lic, Star):
        return license_actions(lic.body)
    raise TypeError(f"not a license: {lic!r}")


_LEVEL_UNION = 0
_LEVEL_CONCAT = 1
_LEVEL_STAR = 2
_LEVEL_ATOM = 3


def pretty_license(lic: License) -> str:
    """Render a license in the surface grammar (0/1 only for internal forms)."""
    return _pretty(lic, _LEVEL_UNION)


def _pretty(lic: License, minimum: int) -> str:
    if isinstance(lic, Zero):
        text, level = "0", _LEVEL_ATOM
    elif isinstance(lic, One):
        text, level = "1", _LEVEL_ATOM
    elif isinstance(lic, Atom):
        text, level = pretty_action(lic.action), _LEVEL_ATOM
    elif isinstance(lic, Star):
        text, level = f"{_pretty(lic.body, _LEVEL_ATOM)}*", _LEVEL_STAR
    elif isinstance(lic, Concat):
        left = _pretty(lic.left, _LEVEL_CONCAT)
        right = _pretty(lic.right, _LEVEL_STAR)
        text, level = f"{left} {right}", _LEVEL_CONCAT
    elif isinstance(lic, Union):
        left = _pretty(lic.left, _LEVEL_UNION)
        right = _pretty(lic.right, _LEVEL_CONCAT)
        text, level = f"{left} | {right}", _LEVEL_UNION
    else:
        raise TypeError(f"not a license: {lic!r}")
    if level < minimum:
        return f"({text})"
    return text
