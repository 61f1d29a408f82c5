"""Regular licenses over render/pay actions: actions, ASTs, constructors, printing.

A license is a regular expression whose language is the set of complete action
sequences a client may legitimately perform.  The null action ``bot`` is a
first-class action: it may appear inside a license, and a finished license
implicitly allows doing nothing forever (completed traces are padded with an
infinite tail of ``bot`` when judging viability).  The engines read licenses
through their position automata (:mod:`lict.automata`); the trace semantics
itself (enumeration, derivatives, viability) is the oracle in
:mod:`lict.reference`.

This module also holds the DAG layer that licenses and formulas share: one
node walk (:func:`post_order`) and one printer (:func:`dag_text`).
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


class Node:
    """A frozen dataclass node, equal to another of the same class and fields.

    Licenses and formulas share it.  Hashing and comparing run on explicit
    stacks, so a long chain costs no recursion.  ``_arity`` counts a node's
    children: a binary node's are its fields ``left`` and ``right``, a unary
    node's is its one field, and a leaf (arity 0) is hashed and compared by
    its fields as they are.  Each class's ``_fields`` gives a node's fields
    as a tuple.  A node's hash is computed once, from its children's, and
    kept; it is the hash of the tuple of its fields, as a frozen
    dataclass's would be.
    """

    _hash = None
    _arity = 0
    _fields = staticmethod(lambda node: tuple(map(node.__getattribute__, node.__match_args__)))

    def __hash__(self) -> int:
        if self._hash is None:
            stack = [self]
            while stack:
                # the node on top is hashed once its children are
                node = stack[-1]
                arity = node._arity
                if arity == 2:
                    left, right = node.left, node.right
                    if left._hash is None:
                        stack.append(left)
                        continue
                    if right._hash is None:
                        stack.append(right)
                        continue
                    fields = (left, right)
                else:
                    fields = node._fields(node)
                    if arity and fields[0]._hash is None:
                        stack.append(fields[0])
                        continue
                stack.pop()
                object.__setattr__(node, "_hash", hash(fields))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if self._hash is not None and other._hash is not None and self._hash != other._hash:
            return False
        pairs = [(self, other)]
        while pairs:
            left, right = pairs.pop()
            if left is right:
                continue
            kind = type(left)
            if kind is not type(right):
                return False
            arity = kind._arity
            if arity == 2:
                # left operands first, as a dataclass compares its fields
                pairs.append((left.right, right.right))
                pairs.append((left.left, right.left))
            elif arity:
                pairs.append((kind._fields(left)[0], kind._fields(right)[0]))
            elif kind._fields(left) != kind._fields(right):
                return False
        return True


@dataclass(frozen=True, eq=False)
class License(Node):
    """A license node."""

    # the padded automaton, once ``automata.padded_nfa`` builds it; a slot, since an instance
    # attribute that only some nodes of a class set widens the class's later instance dicts
    __slots__ = ("_nfa",)


@dataclass(frozen=True, eq=False)
class Atom(License):
    _fields = staticmethod(lambda node: (node.action,))
    action: Action


@dataclass(frozen=True, eq=False)
class Concat(License):
    _arity = 2
    left: License
    right: License


@dataclass(frozen=True, eq=False)
class Union(License):
    _arity = 2
    left: License
    right: License


@dataclass(frozen=True, eq=False)
class Star(License):
    _arity = 1
    _fields = staticmethod(lambda node: (node.body,))
    body: License


@dataclass(frozen=True, eq=False)
class Zero(License):
    """The license with no traces at all.  Internal only, never parsed."""


@dataclass(frozen=True, eq=False)
class One(License):
    """The license whose sole trace is empty.  Internal only, never parsed."""


def _children(node: License) -> tuple:
    kind = type(node)
    if kind is Concat or kind is Union:
        return (node.left, node.right)
    if kind is Star:
        return (node.body,)
    if kind is Atom or kind is Zero or kind is One:
        return ()
    raise TypeError(f"not a license: {node!r}")


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


# One DAG layer serves both ASTs, licenses here and formulas in
# :mod:`lict.formulas`: a walk and a printer, each given the AST's children
# function.  Both run on explicit stacks, so depth costs no recursion, and
# both key nodes by ``id``, so a node object reached from several parents is
# handled once.

_EXIT = object()  # marks where a node's children end on the walk's stack


def post_order(root, children) -> list:
    """Each distinct node object once, children before parents, left first."""
    order = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is _EXIT:
            order.append(stack.pop())
            continue
        key = id(node)
        if key not in seen:
            seen.add(key)
            stack.append(node)
            stack.append(_EXIT)
            stack += reversed(children(node))
    return order


def dag_text(root, top_level: int, layout, children) -> str:
    """The text of a license or formula, each shared node object laid out once.

    ``layout(node)`` gives the node's precedence level and its pieces: text,
    or (child, minimum level) slots; a slot whose node's level is below its
    minimum is parenthesised.  The slots are expanded in place on an explicit
    stack.  A node object reached more than once through ``children`` is
    laid out once, alone: its text is kept unparenthesised with its level,
    and each occurrence adds the parentheses its own slot needs, since one
    shared node can sit under different minimum levels.  No other node's
    text is joined before the end, which keeps a long chain linear.
    """
    # the ids of the node objects reached more than once, each mapped to None
    # until laid out, then to its text and level
    shared: dict = {}
    seen: set[int] = set()
    stack: list = [root]
    pop, extend, add = stack.pop, stack.extend, seen.add
    while stack:
        node = pop()
        key = id(node)
        if key not in seen:
            add(key)
            extend(children(node))
        else:
            shared[key] = None
    out: list[str] = []
    outer: list[list[str]] = []  # the enclosing texts of shared nodes being laid out
    stack = [(root, top_level)]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is tuple:  # a (node, minimum) slot, the commonest item
            node, minimum = item
            if shared and id(node) in shared:
                key = id(node)
                laid_out = shared[key]
                if laid_out is not None:
                    text, level = laid_out
                    if level < minimum:
                        out += ("(", text, ")")
                    else:
                        out.append(text)
                    continue
                # lay the node out alone, then come back to this slot
                level, pieces = layout(node)
                stack.append(item)
                stack.append([key, level])
                outer.append(out)
                out = []
            else:
                level, pieces = layout(node)
                if level < minimum:
                    out.append("(")
                    stack.append(")")
            stack += reversed(pieces)
        elif kind is str:
            out.append(item)
        else:
            # the end of a shared node's first layout: keep its text
            key, level = item
            shared[key] = ("".join(out), level)
            out = outer.pop()
    return "".join(out)


_LEVEL_UNION = 0
_LEVEL_CONCAT = 1
_LEVEL_STAR = 2
_LEVEL_ATOM = 3


def pretty_license(lic: License) -> str:
    """Render a license in the surface grammar (0/1 only for internal forms)."""
    return dag_text(lic, _LEVEL_UNION, _layout, _children)


def _layout(lic: License) -> tuple[int, tuple]:
    """The node's precedence level and its pieces: text or (child, minimum)."""
    kind = type(lic)
    if kind is Concat:
        return _LEVEL_CONCAT, ((lic.left, _LEVEL_CONCAT), " ", (lic.right, _LEVEL_STAR))
    if kind is Union:
        return _LEVEL_UNION, ((lic.left, _LEVEL_UNION), " | ", (lic.right, _LEVEL_CONCAT))
    if kind is Star:
        return _LEVEL_STAR, ((lic.body, _LEVEL_ATOM), "*")
    if kind is Atom:
        return _LEVEL_ATOM, (pretty_action(lic.action),)
    if kind is Zero:
        return _LEVEL_ATOM, ("0",)
    if kind is One:
        return _LEVEL_ATOM, ("1",)
    raise TypeError(f"not a license: {lic!r}")
