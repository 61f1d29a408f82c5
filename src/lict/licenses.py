"""Regular licenses over render/pay actions: actions, ASTs, constructors, printing.

A license is a regular expression whose language is the set of complete action
sequences a client may legitimately perform.  The null action ``bot`` is a
first-class action: it may appear inside a license, and a finished license
implicitly allows doing nothing forever (completed traces are padded with an
infinite tail of ``bot`` when judging viability).  The engines read licenses
through their position automata (:mod:`lict.automata`); the trace semantics
itself (enumeration, derivatives, viability) is the oracle in
:mod:`lict.reference`.

This module also holds the DAG layer that licenses and formulas share: the
node base with :func:`children`, one node walk (:func:`post_order`) and one
printer (:func:`dag_text`).
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

    Licenses and formulas share it.  A class states its shape once: ``_arity``
    is nonzero on a connective, all of whose fields are its children, and
    ``_fields()`` gives a node's fields, read directly on a connective for
    speed.  :func:`children` is derived from the two when the class is
    defined, and hashing, comparing, the walk, the printer and atom mapping
    read it, on explicit stacks, so a long chain costs no recursion.  A
    node's hash is computed once, from its children's, and kept: the hash of
    the tuple of its fields, as a frozen dataclass's would be.
    """

    _hash = None
    _arity = 0
    _fields = lambda self: tuple(map(self.__getattribute__, self.__match_args__))

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._children_of = cls._fields if cls._arity else lambda self: ()

    def __hash__(self) -> int:
        if self._hash is None:
            stack = [self]
            while stack:
                # the node on top is hashed once its children are
                node = stack[-1]
                for child in children(node):
                    if child._hash is None:
                        stack.append(child)
                        break
                else:
                    stack.pop()
                    object.__setattr__(node, "_hash", hash(node._fields()))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = [self], [other]  # the pairs still to compare, one side each
        while mine:
            left, right = mine.pop(), theirs.pop()
            if left is right:
                continue
            if type(left) is not type(right):
                return False
            if left._hash is not None and right._hash is not None and left._hash != right._hash:
                return False
            parts = children(left)
            if parts:
                # left children first, as a dataclass compares its fields
                mine += parts[::-1]
                theirs += children(right)[::-1]
            elif left._fields() != right._fields():
                return False
        return True


def children(node) -> tuple:
    """A connective's child nodes, left first, and ``()`` for a leaf."""
    return node._children_of()


@dataclass(frozen=True, eq=False)
class License(Node):
    """A license node."""

    # the padded automaton, once ``automata.padded_nfa`` builds it; a slot, since an instance
    # attribute that only some nodes of a class set widens the class's later instance dicts
    __slots__ = ("_nfa",)


@dataclass(frozen=True, eq=False)
class Atom(License):
    _fields = lambda self: (self.action,)
    action: Action


@dataclass(frozen=True, eq=False)
class Concat(License):
    _arity, _fields = 2, lambda self: (self.left, self.right)
    left: License
    right: License


@dataclass(frozen=True, eq=False)
class Union(License):
    _arity, _fields = 2, lambda self: (self.left, self.right)
    left: License
    right: License


@dataclass(frozen=True, eq=False)
class Star(License):
    _arity, _fields = 1, lambda self: (self.body,)
    body: License


@dataclass(frozen=True, eq=False)
class Zero(License):
    """The license with no traces at all.  Internal only, never parsed."""


@dataclass(frozen=True, eq=False)
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


# One DAG layer serves both ASTs, licenses here and formulas in
# :mod:`lict.formulas`: a walk and a printer, each reading a node's
# :func:`children`.  Both run on explicit stacks, so depth costs no
# recursion, and both key nodes by ``id``, so a node object reached from
# several parents is handled once.

_EXIT = object()  # marks where a node's children end on the walk's stack


def post_order(root) -> list:
    """Each distinct node object once, children before parents, left first."""
    order = []
    seen: set[int] = set()
    stack = [root]
    pop, push, add, emit = stack.pop, stack.append, seen.add, order.append
    while stack:
        node = pop()
        if node is _EXIT:
            emit(pop())
        elif id(node) not in seen:
            add(id(node))
            parts = children(node)
            if parts:
                push(node)
                push(_EXIT)
                stack += parts[::-1]
            else:
                emit(node)
    return order


def dag_text(root, top_level: int, layout) -> str:
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
    pop = stack.pop
    while stack:
        item = pop()
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
    return dag_text(lic, _LEVEL_UNION, _layout)


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
