"""The node and value classes: slotted, frozen, and hashed as the tuple of their fields.

Every class below is a plain class with ``__slots__`` and an explicit
``__init__``; :class:`lict.licenses.Value` and :class:`lict.licenses.Node`
supply the rest.  Each must keep the field names and order, the ``repr``
and the hash values it had as a frozen dataclass.
"""

import copy
import pickle
import weakref
from decimal import Decimal

import pytest

from lict.digitalrights import DrLicense, Exactly, Single, Upto
from lict.formulas import Act, ActionExpr, Always, And, Formula, Issue, Next, Not, Perm, Truth, Until
from lict.licenses import BOT, Atom, Bot, Concat, License, One, Pay, Render, Star, Union, Zero
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
