"""The node and value classes: slotted, frozen, and hashed as the tuple of their fields.

Every class below is a plain class whose ``__slots__`` name its fields;
:class:`lict.licenses.Value` writes its ``__init__`` (without type
annotations) and its ``_fields`` from them, unless the class states its
own, and it and :class:`lict.licenses.Node` supply the rest.  Each must keep the field names and order, the ``repr``
and the hash values it had as a frozen dataclass.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
import weakref
from decimal import Decimal

import pytest

import lict
from lict.digitalrights import DrLicense, Exactly, Single, Upto
from lict.formulas import Act, ActionExpr, Always, And, Formula, Issue, Next, Not, Perm, Truth, Until
from lict.licenses import BOT, Atom, Bot, Concat, License, Node, One, Pay, Render, Star, Union, Zero, Value
from lict.licsat import LicSatResult, ValidityResult
from lict.ltl import Done, InState, Issued, Obligated, Over, Permitted, Vocabulary, _ActionAtom
from lict.reference import LinearStructure, SatResult
from lict.runs import Run

PAY = Pay(Decimal("1.50"))
LIC = Concat(Atom(PAY), Star(Atom(BOT)))
EXPR = ActionExpr(True, PAY, "n")
TRUE_NOW = And(Act(EXPR), Truth())
RUN = Run(1, ((0, "n", LIC),), ((1, "n", PAY),))
STRUCTURE = LinearStructure((frozenset(),), (frozenset({Done(PAY, "n")}),))

# each class, its field names in order, and field values for one instance
CASES = [
    (Render, ("work", "device"), ("w", "d")),
    (Pay, ("amount",), (Decimal("1.50"),)),
    (Bot, (), ()),
    (Node, (), ()),
    (License, (), ()),
    (Atom, ("action",), (PAY,)),
    (Concat, ("left", "right"), (Atom(PAY), LIC)),
    (Union, ("left", "right"), (Atom(PAY), LIC)),
    (Star, ("body",), (LIC,)),
    (Zero, (), ()),
    (One, (), ()),
    (ActionExpr, ("positive", "action", "name"), (False, PAY, "n")),
    (Formula, (), ()),
    (Truth, (), ()),
    (Issue, ("name", "license"), ("n", LIC)),
    (Act, ("expr",), (EXPR,)),
    (Perm, ("expr",), (EXPR,)),
    (Not, ("operand",), (TRUE_NOW,)),
    (And, ("left", "right"), (TRUE_NOW, Not(TRUE_NOW))),
    (Next, ("operand",), (TRUE_NOW,)),
    (Always, ("operand",), (TRUE_NOW,)),
    (Until, ("left", "right"), (TRUE_NOW, Not(TRUE_NOW))),
    (Issued, ("name", "license"), ("n", LIC)),
    (_ActionAtom, ("action", "name"), (PAY, "n")),
    (Done, ("action", "name"), (PAY, "n")),
    (Permitted, ("action", "name"), (PAY, "n")),
    (Obligated, ("action", "name"), (PAY, "n")),
    (InState, ("name", "subset"), ("n", frozenset({1, 2}))),
    (Over, ("name",), ("n",)),
    (Vocabulary, ("names", "named_licenses", "actions"), (("n",), (("n", LIC),), (BOT, PAY))),
    (Single, ("period",), (3,)),
    (Exactly, ("count", "period"), (2, 3)),
    (Upto, ("count", "period"), (2, 3)),
    (DrLicense, ("repetition", "amount", "schedule", "works", "devices"),
     (Exactly(2, 3), Decimal("1.00"), "peruse", frozenset({"w"}), frozenset({"d"}))),
    (LicSatResult, ("status", "run"), ("sat", RUN)),
    (ValidityResult, ("status", "counterexample"), ("invalid", RUN)),
    (Run, ("horizon", "issuances", "actions"), RUN._fields()),
    (LinearStructure, ("prefix", "loop"), STRUCTURE._fields()),
    (SatResult, ("status", "witness"), ("sat", STRUCTURE)),
]


@pytest.mark.parametrize("kind, names, values", CASES, ids=[kind.__name__ for kind, _, _ in CASES])
class TestEveryClass:
    def test_fields_in_order_by_position_and_keyword(self, kind, names, values):
        value = kind(*values)
        assert value.__match_args__ == names
        # keyword construction, as ``ltl.vocabulary_of`` builds a Vocabulary, reads these names
        assert tuple(inspect.signature(kind).parameters) == names
        assert value._fields() == values == tuple(getattr(value, name) for name in names)
        assert kind(**dict(zip(names, values))) == value

    def test_hash_is_the_hash_of_the_fields(self, kind, names, values):
        value = kind(*values)
        assert hash(value) == hash(values)
        assert hash(value) == hash(value)  # a node's kept hash

    def test_repr_names_each_field(self, kind, names, values):
        pairs = ", ".join(f"{name}={field!r}" for name, field in zip(names, values))
        assert repr(kind(*values)) == f"{kind.__name__}({pairs})"

    def test_equal_by_class_and_fields(self, kind, names, values):
        value = kind(*values)
        assert value == kind(*values) and not value != kind(*values)
        twins = [other for other, other_names, _ in CASES if other is not kind and other_names == names]
        for other in twins:
            assert value != other(*values) and other(*values) != value

    def test_assignment_and_deletion_are_refused(self, kind, names, values):
        value = kind(*values)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value._fields() == values

    def test_slotted_copied_pickled_and_weakly_referenced(self, kind, names, values):
        value = kind(*values)
        assert not hasattr(value, "__dict__")
        assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
        assert weakref.ref(value)() is value


def test_every_value_class_is_checked():
    for module in pkgutil.iter_modules(lict.__path__):
        importlib.import_module(f"lict.{module.name}")
    found, stack = set(), [Value]
    while stack:
        for kind in stack.pop().__subclasses__():
            stack.append(kind)
            if kind.__module__.startswith("lict."):
                found.add(kind)
    assert found == {kind for kind, _, _ in CASES}


@pytest.mark.parametrize(
    "first, second",
    [(Act(EXPR), Perm(EXPR)), (Done(PAY, "n"), Permitted(PAY, "n")), (Permitted(PAY, "n"), Obligated(PAY, "n"))],
    ids=["Act-Perm", "Done-Permitted", "Permitted-Obligated"],
)
def test_atoms_that_hash_alike_are_compared_once(monkeypatch, first, second):
    assert hash(first) == hash(second)
    calls = []
    compare = Node.__eq__

    def counted(self, other):
        calls.append(other)
        return compare(self, other)

    monkeypatch.setattr(Node, "__eq__", counted)
    assert second not in {first: None}
    assert len(calls) == 1
    assert first != second and second != first
    assert compare(first, "not a node") is NotImplemented


class TestWrittenMembers:
    """The ``__init__`` and ``_fields`` that :class:`Value` writes, on classes defined here."""

    def test_inherited_fields_come_first(self):
        class Base(Value):
            __slots__ = ("first",)

        class Derived(Base):
            __slots__ = ("_private", "second")

        value = Derived(1, second=2)
        assert Derived.__match_args__ == ("first", "second")
        assert tuple(inspect.signature(Derived).parameters) == ("first", "second")
        assert value._fields() == (1, 2) and not hasattr(value, "_private")

    def test_one_field_is_a_one_tuple(self):
        class Box(Value):
            __slots__ = ("item",)

        class Empty(Value):
            __slots__ = ()

        assert Box((1, 2))._fields() == ((1, 2),)
        assert Empty()._fields() == ()

    def test_a_node_starts_unhashed_and_hashes_as_its_fields(self):
        class Pair(Node):
            __slots__ = ("left", "right")

        pair = Pair("a", "b")
        assert pair._hash is None
        assert hash(pair) == hash(("a", "b")) == pair._hash

    def test_stated_members_are_kept(self):
        class Doubled(Value):
            __slots__ = ("count",)
            _fields = lambda self: (self.count, "stated")

            def __init__(self, count):
                Doubled.count.__set__(self, 2 * count)

        assert Doubled(2).count == 4 and Doubled(2)._fields() == (4, "stated")
        assert Pay("1.5") == Pay(Decimal("1.50"))
        assert inspect.getsourcefile(Pay.__init__).endswith("licenses.py")

    def test_written_init_is_named_for_its_class(self):
        class Local(Value):
            __slots__ = ("item",)

        assert Local.__init__.__qualname__ == f"{Local.__qualname__}.__init__"
        assert (And.__init__.__qualname__, And.__init__.__module__) == ("And.__init__", "lict.formulas")
        assert And.__init__.__annotations__ == {}
        with pytest.raises(TypeError, match=r"^And\.__init__\(\) missing 1 required positional argument: 'right'$"):
            And(Truth())
