"""lict: a verification toolkit for digital-rights licenses.

Licenses are regular expressions over render/pay actions; runs record which
named licenses a client holds and what the client does; the logic layer
evaluates permission/obligation formulas over runs, and the satisfiability
layer decides formulas outright by reduction to a propositional temporal
logic.  This package exports the library API the README documents, grouped
as it is there; everything else is imported from its own module, and the
reference oracles the tests compare against live in :mod:`lict.reference`.
"""

# parsers
from .parsing import ParseError, parse_action, parse_dr, parse_formula, parse_license, parse_run

# values a caller builds
from .licenses import BOT, ONE, ZERO, Atom, Concat, Pay, Render, Star, Union
from .formulas import Act, ActionExpr, Always, And, Issue, Next, Not, Perm, Truth, Until
from .formulas import f_and_all, f_eventually, f_implies, f_nexts, f_oblig, f_or
from .runs import Run, make_run
from .digitalrights import DrLicense, Exactly, Single, Upto

# engines
from .runs import compute_permissions
from .formulas import check_spec, encode_run, evaluate
from .licsat import lic_sat, lic_valid
from .digitalrights import compile_dr
from .ltl import translate

# printers
from .licenses import pretty_action, pretty_license
from .formulas import pretty_formula
from .runs import pretty_run
