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
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal

_CENT = Decimal("0.01")
# Amounts are exact at any size: sums, products and cents computed in this
# context never round, and an exact result takes only the digits it has.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class Render:
    """Render a work on a device."""

    work: str
    device: str


@dataclass(frozen=True)
class Pay:
    """Pay an exact, non-negative amount of any size (fixed point, two fractional digits).

    Amounts are compared by exact value; ``Pay("1.5")`` and ``Pay("1.50")``
    denote the same action.
    """

    amount: Decimal

    def __post_init__(self) -> None:
        amount = self.amount
        if not isinstance(amount, Decimal):
            amount = Decimal(str(amount))
        quantized = amount.quantize(_CENT, context=EXACT)
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
        return (1, action.amount, "")
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
    """Every action literally occurring in the license.

    Walks an explicit stack, so depth costs no recursion.
    """
    actions = set()
    stack = [lic]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            actions.add(node.action)
        elif kind is Concat or kind is Union:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is Star:
            stack.append(node.body)
        elif kind is not Zero and kind is not One:
            raise TypeError(f"not a license: {node!r}")
    return frozenset(actions)


_LEVEL_UNION = 0
_LEVEL_CONCAT = 1
_LEVEL_STAR = 2
_LEVEL_ATOM = 3

_LEVELS = {Union: _LEVEL_UNION, Concat: _LEVEL_CONCAT, Star: _LEVEL_STAR}


def pretty_license(lic: License) -> str:
    """Render a license in the surface grammar (0/1 only for internal forms).

    A node object other than an atom that is reached more than once is
    rendered once.  Most licenses printed are trees, so the first rendering
    assumes one; only if a node recurs is the license rendered again,
    knowing every node that recurs.
    """
    text = _render(lic, {})
    if text is None:
        text = _render(lic, _shared_nodes(lic))
    return text


def _render(lic: License, shared: dict) -> str | None:
    """The license's text, or None if a node recurs that ``shared`` lacks.

    ``shared`` maps the id of each node known to recur to None, and then to
    its unparenthesised text and level once rendered; each occurrence adds
    the parentheses its own slot needs, since one shared node can sit under
    different minimum levels.  Slots (node, minimum level) and text are
    expanded in place on an explicit stack, so depth costs no recursion, and
    no other node's text is joined before the end, which keeps a long chain
    linear.
    """
    seen: set[int] = set()
    out: list[str] = []
    outer: list[list[str]] = []  # the enclosing texts of shared nodes being rendered
    stack: list = [(lic, _LEVEL_UNION)]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            out.append(item)
            continue
        if kind is list:
            # the end of a shared node's first rendering: keep its text
            key, level = item
            shared[key] = ("".join(out), level)
            out = outer.pop()
            continue
        node, minimum = item
        kind = type(node)
        if kind is Atom:
            out.append(pretty_action(node.action))
            continue
        key = id(node)
        if key in shared:
            rendered = shared[key]
            if rendered is not None:
                text, level = rendered
                if level < minimum:
                    out += ("(", text, ")")
                else:
                    out.append(text)
                continue
            # render the node alone, then come back to this slot
            stack.append(item)
            stack.append([key, _LEVELS.get(kind, _LEVEL_ATOM)])
            outer.append(out)
            out = []
            minimum = _LEVEL_UNION
        elif key in seen:
            return None
        else:
            seen.add(key)
        # an atom child's text is pushed as it is, saving it a slot
        if kind is Concat:
            if minimum > _LEVEL_CONCAT:
                out.append("(")
                stack.append(")")
            right = node.right
            stack.append(pretty_action(right.action) if type(right) is Atom else (right, _LEVEL_STAR))
            stack.append(" ")
            stack.append((node.left, _LEVEL_CONCAT))
        elif kind is Union:
            if minimum > _LEVEL_UNION:
                out.append("(")
                stack.append(")")
            right = node.right
            stack.append(pretty_action(right.action) if type(right) is Atom else (right, _LEVEL_CONCAT))
            stack.append(" | ")
            stack.append((node.left, _LEVEL_UNION))
        elif kind is Star:
            if minimum > _LEVEL_STAR:
                out.append("(")
                stack.append(")")
            stack.append("*")
            stack.append((node.body, _LEVEL_ATOM))
        elif kind is Zero:
            out.append("0")
        elif kind is One:
            out.append("1")
        else:
            raise TypeError(f"not a license: {node!r}")
    return "".join(out)


def _shared_nodes(lic: License) -> dict:
    """The ids of the non-atom node objects reached more than once, each mapped to None."""
    seen: set[int] = set()
    shared: dict = {}
    stack = [lic]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Atom:
            continue
        key = id(node)
        if key in seen:
            shared[key] = None
            continue
        seen.add(key)
        if kind is Concat or kind is Union:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is Star:
            stack.append(node.body)
    return shared
