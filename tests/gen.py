"""Seeded random generators and brute-force oracles shared by the tests.

The oracles here deliberately take the slow, definition-level route (trace
enumeration, viability via derivatives, exhaustive run search) so the fast
paths in the package are checked against something independent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import fields, replace
from decimal import Decimal

from hypothesis import strategies as st

from lict import (
    BOT,
    ONE,
    ZERO,
    Act,
    ActionExpr,
    Always,
    And,
    Atom,
    Concat,
    Issue,
    Next,
    Not,
    Pay,
    Perm,
    Render,
    Run,
    Star,
    Truth,
    Union,
    Until,
    compute_permissions,
    evaluate,
    f_eventually,
    f_implies,
    f_oblig,
    f_or,
    make_run,
    parse_license,
)
from lict.formulas import Formula, formula_atoms
from lict.licenses import License, union
from lict.licsat import fresh_action
from lict.reference import license_actions, license_size, viable

POOL = (
    BOT,
    Pay(Decimal("1.00")),
    Pay(Decimal("2.50")),
    Render("w", "d"),
    Render("v", "e"),
)

NAMES = ("n", "m", "k")


def random_action(rng: random.Random, pool=POOL):
    return rng.choice(pool)


def random_license(rng: random.Random, depth: int, pool=POOL):
    """A random surface license (no internal zero/one constants)."""
    if depth <= 0 or rng.random() < 0.3:
        return Atom(random_action(rng, pool))
    shape = rng.random()
    if shape < 0.4:
        return Concat(random_license(rng, depth - 1, pool), random_license(rng, depth - 1, pool))
    if shape < 0.8:
        return Union(random_license(rng, depth - 1, pool), random_license(rng, depth - 1, pool))
    return Star(random_license(rng, depth - 1, pool))


def licenses(constants: bool = False, pool=POOL):
    """A hypothesis strategy for licenses with nested stars and unions.

    With ``constants`` the leaves include the internal ZERO and ONE, which
    have no surface syntax.
    """
    leaves = st.sampled_from(pool).map(Atom)
    if constants:
        leaves = leaves | st.sampled_from((ZERO, ONE))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Concat, inner, inner), st.builds(Union, inner, inner), inner.map(Star)
        ),
        max_leaves=16,
    )


def random_trace(rng: random.Random, length: int, pool=POOL):
    return tuple(random_action(rng, pool) for _ in range(length))


SMALL_POOL = (BOT, Pay(Decimal("1.00")), Render("w", "d"))


def small_license(rng: random.Random, max_atoms: int = 5, pool=SMALL_POOL):
    """A random license kept small enough for exhaustive trace oracles.

    Enumeration bounds in the oracles grow with the number of atoms, so the
    atom count is capped by resampling.
    """
    while True:
        lic = random_license(rng, 3, pool)
        if license_size(lic) <= 2 * max_atoms - 1 and _atom_count(lic) <= max_atoms:
            return lic


def _atom_count(lic) -> int:
    if isinstance(lic, Atom):
        return 1
    if isinstance(lic, (Concat, Union)):
        return _atom_count(lic.left) + _atom_count(lic.right)
    if isinstance(lic, Star):
        return _atom_count(lic.body)
    return 0


def random_run(
    rng: random.Random,
    horizon: int,
    max_licenses: int = 3,
    depth: int = 4,
    pool=POOL,
    names=NAMES,
    compliant_bias: float = 0.5,
) -> Run:
    """A random run; with some bias the actions follow the licenses' traces."""
    issuances = []
    used = rng.sample(names, k=min(rng.randint(0, max_licenses), len(names)))
    for name in used:
        issuances.append((rng.randint(0, horizon), name, random_license(rng, depth, pool)))
    run_actions = []
    for time, name, lic in issuances:
        follow = rng.random() < compliant_bias
        sequence: tuple = ()
        for t in range(time, horizon + 1):
            if follow:
                options = [a for a in pool if viable(lic, sequence + (a,))]
                action = rng.choice(options) if options else random_action(rng, pool)
            else:
                action = random_action(rng, pool)
            sequence = sequence + (action,)
            if action != BOT and rng.random() < 0.9:
                run_actions.append((t, name, action))
    # occasional stray actions on names that hold no license
    for name in names:
        if name in used:
            continue
        if rng.random() < 0.2:
            t = rng.randint(0, horizon)
            run_actions.append((t, name, random_action(rng, pool)))
    return make_run(issuances, run_actions, horizon=horizon)


def oracle_permitted(run: Run, name: str, t: int, extra_candidates=()) -> frozenset:
    """The permitted set straight from the definition: viability, one action
    at a time, with the convention that a violated (or inactive) name
    permits exactly bot."""
    issuance = run.issuance(name)
    if issuance is None or issuance[0] > t:
        return frozenset({BOT})
    start, lic = issuance
    sequence = tuple(run.action(name, start + i) for i in range(t - start))
    candidates = set(license_actions(lic)) | {BOT} | set(extra_candidates)
    permitted = frozenset(a for a in candidates if viable(lic, sequence + (a,)))
    if not permitted:
        return frozenset({BOT})
    return permitted


def random_formula(
    rng: random.Random,
    depth: int,
    names=("n",),
    pool=POOL,
    licenses=(),
):
    """A random formula over the given names, actions, and named licenses."""
    def pair():
        return ActionExpr(rng.random() < 0.7, random_action(rng, pool), rng.choice(names))

    if depth <= 0 or rng.random() < 0.25:
        leaf = rng.random()
        if leaf < 0.35:
            return Act(pair())
        if leaf < 0.7:
            return Perm(pair())
        if leaf < 0.8 and licenses:
            return Issue(*rng.choice(licenses))
        if leaf < 0.9:
            return f_oblig(random_action(rng, pool), rng.choice(names))
        return Act(ActionExpr(True, BOT, rng.choice(names)))
    shape = rng.random()
    sub = lambda: random_formula(rng, depth - 1, names, pool, licenses)
    if shape < 0.15:
        return Not(sub())
    if shape < 0.3:
        return And(sub(), sub())
    if shape < 0.4:
        return f_or(sub(), sub())
    if shape < 0.5:
        return f_implies(sub(), sub())
    if shape < 0.65:
        return Next(sub())
    if shape < 0.8:
        return Always(sub())
    if shape < 0.9:
        return f_eventually(sub())
    return Until(sub(), sub())


def micro_formula(rng: random.Random, two_names: bool):
    """Small formulas over at most two names and three actions."""
    names = ("n", "m") if two_names else ("n",)
    pool = SMALL_POOL[:2] if two_names else SMALL_POOL
    licenses = []
    if rng.random() < 0.7:
        licenses.append((names[0], random_license(rng, 2, pool)))
    return random_formula(rng, rng.randint(1, 4), names=names, pool=pool, licenses=licenses)


def enumerate_satisfying_run(formula, max_horizon: int = 3):
    """Exhaustive search for a run satisfying the formula at time zero.

    Issued licenses are drawn from the formula itself; per-name actions are
    drawn from the formula's and licenses' actions plus bot plus one action
    outside the vocabulary.  Returns the first satisfying run, else None.
    """
    atoms = formula_atoms(formula)
    named_licenses = sorted(
        {(atom.name, atom.license) for atom in atoms if isinstance(atom, Issue)},
        key=lambda pair: (pair[0], repr(pair[1])),
    )
    pairs = {(atom.expr.action, atom.expr.name) for atom in atoms if isinstance(atom, (Act, Perm))}
    names = sorted({name for name, _ in named_licenses} | {name for _, name in pairs})
    vocab_actions = {action for action, _ in pairs} | {BOT}
    for _, lic in named_licenses:
        vocab_actions |= license_actions(lic)
    outside = fresh_action(vocab_actions)

    per_name_alphabet = {}
    per_name_issues = {}
    for name in names:
        actions = {BOT, outside} | {a for a, n in pairs if n == name}
        options = [None]
        for lic_name, lic in named_licenses:
            if lic_name == name:
                actions |= license_actions(lic)
                options += [(lic, t) for t in range(max_horizon + 1)]
        per_name_alphabet[name] = sorted(actions, key=repr)
        per_name_issues[name] = options

    issue_combos = itertools.product(*(per_name_issues[n] for n in names))
    for issue_combo in issue_combos:
        issuances = [
            (slot[1], name, slot[0])
            for name, slot in zip(names, issue_combo)
            if slot is not None
        ]
        action_spaces = [
            itertools.product(per_name_alphabet[n], repeat=max_horizon + 1)
            for n in names
        ]
        for action_combo in itertools.product(*action_spaces):
            actions = [
                (t, name, action)
                for name, row in zip(names, action_combo)
                for t, action in enumerate(row)
                if action != BOT
            ]
            run = make_run(issuances, actions, horizon=max_horizon)
            if evaluate(run, compute_permissions(run), 0, formula):
                return run
    return None


def parse_compiled(text: str) -> License:
    """Parse ``compile-dr`` output.

    An ``upto`` license's text opens with ``1 |``, its empty trace, which is
    not surface syntax; the rest parses.
    """
    if text.startswith("1 | "):
        return union(ONE, parse_license(text[len("1 | "):]))
    return parse_license(text)


def subset_blowup_text(copies: int) -> str:
    """A formula issuing a license whose automaton reaches 3 * 2**copies + 1 subsets.

    The license is ``(pay[1.00] | bot)* pay[1.00] S ... S`` with ``copies``
    copies of ``S = (pay[1.00] | bot)``: its subset automaton must remember
    which of the last ``copies + 1`` steps paid, the textbook subset blowup.
    """
    tail = " ".join(["(pay[1.00] | bot)"] * copies)
    return f"issue(n, (pay[1.00] | bot)* pay[1.00] {tail}) & F P(pay[1.00], n)"


def repeating_run_text(steps: int = 300) -> str:
    """A run of ``steps`` times, 0 to ``steps - 1``, whose states repeat.

    ``n`` pays, renders and idles in a cycle of three; ``m``, issued at 5,
    renders at every time that is 3 modulo 4, the last time included.
    """
    lines = ["@0 issue n = (pay[1.00] render[w,d] bot)*", "@5 issue m = (render[v,e] | bot)*"]
    for t in range(steps):
        if t % 3 == 0:
            lines.append(f"@{t} do n pay[1.00]")
        elif t % 3 == 1:
            lines.append(f"@{t} do n render[w,d]")
        if t >= 5 and t % 4 == 3:
            lines.append(f"@{t} do m render[v,e]")
    return "\n".join(lines) + "\n"


def unshared(node):
    """A copy of a formula or license with a fresh node for every occurrence.

    A subterm object reached from several places becomes one copy per
    place, so the copy is a tree equal to the original.  Recursive, for the
    small inputs of the tests.
    """
    changes = {}
    for field in fields(node):
        value = getattr(node, field.name)
        if isinstance(value, (Formula, License)):
            changes[field.name] = unshared(value)
    return replace(node, **changes)


def shared_license(rng: random.Random, steps: int = 6, pool=POOL):
    """A random surface license whose subterm objects recur.

    Each step combines nodes made before, so later nodes reuse earlier ones.
    One shared union sits both where it needs no parentheses (the left of a
    union) and where it does (the right of a concatenation), in either
    order.
    """
    nodes = [Atom(random_action(rng, pool)) for _ in range(3)]
    for _ in range(steps):
        left, right = rng.choice(nodes), rng.choice(nodes)
        shape = rng.random()
        if shape < 0.4:
            nodes.append(Concat(left, right))
        elif shape < 0.8:
            nodes.append(Union(left, right))
        else:
            nodes.append(Star(left))
    union = Union(rng.choice(nodes), rng.choice(nodes))
    other = rng.choice(nodes)
    if rng.random() < 0.5:
        return Union(union, Concat(other, union))
    return Concat(Concat(other, union), Union(union, other))


def shared_formula(rng: random.Random, steps: int = 6, names=("n",), pool=POOL, licenses=()):
    """A random formula whose subterm objects recur.

    Built like :func:`shared_license`: one shared conjunction sits both
    where it needs no parentheses (the left of a conjunction) and where it
    does (under ``X``), in either order.
    """
    nodes = [random_formula(rng, 1, names, pool, licenses) for _ in range(3)]
    binary = (And, f_or, f_implies, Until)
    unary = (Not, Next, Always, f_eventually)
    for _ in range(steps):
        if rng.random() < 0.5:
            nodes.append(rng.choice(binary)(rng.choice(nodes), rng.choice(nodes)))
        else:
            nodes.append(rng.choice(unary)(rng.choice(nodes)))
    conjunction = And(rng.choice(nodes), rng.choice(nodes))
    other = rng.choice(nodes)
    if rng.random() < 0.5:
        return And(conjunction, Next(conjunction))
    return And(Next(conjunction), And(conjunction, other))
