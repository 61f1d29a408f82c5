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

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal

_CENT = Decimal("0.01")
# Amounts are exact at any size: sums, products and cents computed in this
# context never round, and an exact result takes only the digits it has.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


class Value:
    """A frozen value, equal to another of its class with equal fields.

    A class states its fields once, as the names in its ``__slots__`` that
    do not start with ``_`` (base classes' first).  From them, when the
    class is defined, the base writes its ``__init__``, which takes the
    fields in order, without type annotations, and sets each through its
    slot's descriptor (a node's ``_hash`` slot to None first), and its
    ``_fields()``, which reads them back as a tuple; a class whose body
    states either keeps its own.  The base supplies the rest: ``repr`` as
    ``Name(field=value, ...)``, equality by class and fields, the hash of
    the tuple of the fields, copying and pickling by rebuilding from the
    fields, weak references, and a ``__setattr__`` that refuses every
    assignment.
    """

    __slots__ = ("__weakref__",)
    __match_args__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())]
        fields = cls.__match_args__ = tuple(name for name in slots if name[0] != "_")
        # one source per class, run once, as namedtuple and dataclasses do
        sets = ("_hash",) * ("_hash" in slots) + fields
        source = []
        if "__init__" not in vars(cls):
            source.append(f"def __init__(self{''.join(', ' + name for name in fields)}):")
            source += [f"    _set_{name}(self, {name if name in fields else 'None'})" for name in sets] or ["    pass"]
        if "_fields" not in vars(cls):
            source.append(f"_fields = lambda self: ({''.join(f'self.{name}, ' for name in fields)})")
        if source:
            namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in sets}
            exec("\n".join(source), namespace)
            if "__init__" in namespace:
                init = cls.__init__ = namespace["__init__"]
                init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
            if "_fields" in namespace:
                cls._fields = namespace["_fields"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({pairs})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class Render(Value):
    """Render a work on a device."""

    __slots__ = ("work", "device")


class Pay(Value):
    """Pay an exact, non-negative amount of any size (fixed point, two fractional digits).

    Amounts are compared by exact value; ``Pay("1.5")`` and ``Pay("1.50")``
    denote the same action.
    """

    __slots__ = ("amount",)

    def __init__(self, amount: Decimal) -> None:
        if not isinstance(amount, Decimal):
            amount = Decimal(str(amount))
        quantized = amount.quantize(_CENT, context=EXACT)
        if quantized != amount:
            raise ValueError(f"pay amount {amount} has more than two fractional digits")
        if quantized < 0:
            raise ValueError(f"pay amount {amount} is negative")
        _pay_amount(self, quantized)


class Bot(Value):
    """The null ("do nothing") action."""

    __slots__ = ()


_pay_amount = Pay.amount.__set__
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


class Node(Value):
    """A node of a license or formula, equal to another of the same class and fields.

    Licenses and formulas share it.  A class states its shape once: ``_arity``
    is nonzero on a connective, all of whose fields are its children, and
    ``_fields()`` gives a node's fields, as :class:`Value` writes it.
    :func:`children` is derived from the two when the class is defined, and
    hashing, comparing, the walk, the printer and atom mapping read it, on
    explicit stacks, so a long chain costs no recursion.  A node's hash is
    computed once, from its children's, and kept in the ``_hash`` slot,
    which the written ``__init__`` sets to None first: the hash of the
    tuple of its fields, as for any :class:`Value`.  Nodes of different
    classes are unequal, so a lookup among atoms that hash alike (``Act``
    and ``Perm`` of one expression) compares each pair once.
    """

    __slots__ = ("_hash",)
    _arity = 0
    _children_of = lambda self: ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._children_of = cls._fields if cls._arity else Node._children_of

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
                    _set_hash(node, hash(node._fields()))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, Node) else NotImplemented
        if not self._arity:
            return self._fields() == other._fields()
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
                # left children first, as a tuple of the fields compares
                mine += parts[::-1]
                theirs += children(right)[::-1]
            elif left._fields() != right._fields():
                return False
        return True


_set_hash = Node._hash.__set__


def children(node) -> tuple:
    """A connective's child nodes, left first, and ``()`` for a leaf."""
    return node._children_of()


class License(Node):
    """A license node."""

    # the padded automaton, once ``automata.padded_nfa`` builds it
    __slots__ = ("_nfa",)


class Atom(License):
    __slots__ = ("action",)


class Concat(License):
    __slots__ = ("left", "right")
    _arity = 2


class Union(License):
    __slots__ = ("left", "right")
    _arity = 2


class Star(License):
    __slots__ = ("body",)
    _arity = 1


class Zero(License):
    """The license with no traces at all.  Internal only, never parsed."""

    __slots__ = ()


class One(License):
    """The license whose sole trace is empty.  Internal only, never parsed."""

    __slots__ = ()


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
