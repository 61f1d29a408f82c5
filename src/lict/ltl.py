"""The temporal target logic: atoms, translation, restrictions.

Formulas of the license logic translate, atom by atom, into a propositional
temporal logic over a vocabulary describing runs: which licenses are issued,
what the client does, what is permitted, and what is obligated.  Both logics
share the formula AST, evaluator and printer of :mod:`lict.formulas`; this
module adds the target atoms.  ``implicit_restrictions`` produces the
temporal formula that makes arbitrary models of a translated formula behave
like runs; it embeds each mentioned license's deterministic subset automaton
through ``instate``/``over`` propositions, and refuses a license whose
automaton reaches more than ``SUBSET_LIMIT`` subsets.  A run's ultimately
periodic structure, its evaluation, and the generic decision route built on
the restrictions (with the finiteness restriction) are the oracles in
:mod:`lict.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .automata import SubsetState, padded_nfa, reachable_subsets
from .formulas import (
    Act,
    Always,
    And,
    Formula,
    Issue,
    Next,
    Not,
    Perm,
    Truth,
    Until,
    f_and_all,
    f_implies,
    f_or,
    formula_atoms,
    map_atoms,
)
from .licenses import (
    BOT,
    Action,
    License,
    action_key,
    pretty_action,
    pretty_license,
)
# Not called here: kept for the WRAPS entry ("ltl", "compute_permissions", ...)
# of perfbench/tracing.py, which looks the name up in this module.
from .runs import compute_permissions


# ---------------------------------------------------------------------------
# Target atoms


@dataclass(frozen=True)
class Issued(Formula):
    name: str
    license: License

    def pretty(self) -> str:
        return f"issued({self.name}, {pretty_license(self.license)})"


@dataclass(frozen=True)
class _ActionAtom(Formula):
    action: Action
    name: str

    def pretty(self) -> str:
        return f"{type(self).__name__.lower()}({pretty_action(self.action)}, {self.name})"


@dataclass(frozen=True)
class Done(_ActionAtom):
    pass


@dataclass(frozen=True)
class Permitted(_ActionAtom):
    pass


@dataclass(frozen=True)
class Obligated(_ActionAtom):
    pass


@dataclass(frozen=True)
class InState(Formula):
    name: str
    subset: SubsetState

    def pretty(self) -> str:
        return f"instate({self.name}, {subset_label(self.subset)})"


@dataclass(frozen=True)
class Over(Formula):
    name: str

    def pretty(self) -> str:
        return f"over({self.name})"


def subset_label(subset: SubsetState) -> str:
    return "s" + "_".join(str(q) for q in sorted(subset))


# ---------------------------------------------------------------------------
# Translation from the license logic


def _target_atom(atom: Formula) -> Formula:
    if isinstance(atom, Issue):
        return Issued(atom.name, atom.license)
    if isinstance(atom, Act):
        done = Done(atom.expr.action, atom.expr.name)
        return done if atom.expr.positive else Not(done)
    if isinstance(atom, Perm):
        if atom.expr.positive:
            return Permitted(atom.expr.action, atom.expr.name)
        return Not(Obligated(atom.expr.action, atom.expr.name))
    raise TypeError(f"not a license-logic formula: {atom!r}")


def translate(formula: Formula) -> Formula:
    """Atom-by-atom translation into the target logic (size linear)."""
    return map_atoms(formula, _target_atom)


# ---------------------------------------------------------------------------
# The vocabulary a formula lives in


@dataclass(frozen=True)
class Vocabulary:
    """The finite slice of the world a formula can talk about."""

    names: tuple[str, ...]
    named_licenses: tuple[tuple[str, License], ...]
    actions: tuple[Action, ...]

    def licenses_of(self, name: str) -> tuple[License, ...]:
        return tuple(lic for n, lic in self.named_licenses if n == name)


def build_vocabulary(formula: Formula) -> Vocabulary:
    return vocabulary_of(formula_atoms(formula))


def vocabulary_of(atoms) -> Vocabulary:
    """The vocabulary of a formula whose atoms are ``atoms``; repeats do no harm.

    Names and actions are sorted, and the licenses by name, then a name's
    licenses by their text.  A license's actions are its automaton's letters.
    """
    names: set[str] = set()
    actions = {BOT}
    issued: dict[str, set[License]] = {}
    for atom in atoms:
        if isinstance(atom, Issue):
            issued.setdefault(atom.name, set()).add(atom.license)
        elif isinstance(atom, (Act, Perm)):
            names.add(atom.expr.name)
            actions.add(atom.expr.action)
    named = []
    for name in sorted(issued):
        licenses = issued[name]
        if len(licenses) > 1:
            licenses = sorted(licenses, key=pretty_license)
        for lic in licenses:
            named.append((name, lic))
            actions.update(padded_nfa(lic).letters)
    return Vocabulary(
        names=tuple(sorted(names.union(issued))),
        named_licenses=tuple(named),
        actions=tuple(sorted(actions, key=action_key)),
    )


# ---------------------------------------------------------------------------
# Implicit restriction formulas


def _schema_done(vocab: Vocabulary) -> Formula:
    parts = []
    for name in vocab.names:
        for action in vocab.actions:
            for other in vocab.actions:
                if other == action:
                    continue
                parts.append(f_implies(Done(action, name), Not(Done(other, name))))
    if not parts:
        return Truth()
    return Always(f_and_all(parts))


def _schema_issued(vocab: Vocabulary) -> Formula:
    parts = []
    for name, lic in vocab.named_licenses:
        forbidden = [
            Always(Not(Issued(name, other)))
            for other_name, other in vocab.named_licenses
            if other_name == name and other != lic
        ]
        forbidden.append(Next(Always(Not(Issued(name, lic)))))
        parts.append(f_implies(Issued(name, lic), f_and_all(forbidden)))
    if not parts:
        return Truth()
    return Always(f_and_all(parts))


def _schema_obligation(vocab: Vocabulary) -> Formula:
    parts = []
    for name in vocab.names:
        for action in vocab.actions:
            sole = f_and_all(
                [Permitted(action, name)]
                + [Not(Permitted(other, name)) for other in vocab.actions if other != action]
            )
            obligated = Obligated(action, name)
            parts.append(And(f_implies(obligated, sole), f_implies(sole, obligated)))
    if not parts:
        return Truth()
    return Always(f_and_all(parts))


def _schema_unissued(vocab: Vocabulary) -> Formula:
    # Weak until: a name that is never issued simply owes bot forever.
    parts = []
    for name in vocab.names:
        waiting = Obligated(BOT, name)
        licenses = vocab.licenses_of(name)
        if licenses:
            issuance = reduce(f_or, [Issued(name, lic) for lic in licenses])
            parts.append(f_or(Until(waiting, issuance), Always(waiting)))
        else:
            parts.append(Always(waiting))
    return f_and_all(parts)


# The most subsets one license may reach in the restriction formulas, which
# state mutual exclusion per pair of subsets and so grow with its square.
SUBSET_LIMIT = 1024


class SubsetLimitExceeded(ValueError):
    """A license reaches more automaton subsets than ``SUBSET_LIMIT``."""


def _automaton_formula(name: str, lic: License, vocab: Vocabulary) -> Formula:
    """The consequences of following ``lic``: its subset automaton in formulas."""
    nfa = padded_nfa(lic)
    graph = reachable_subsets(nfa, vocab.actions, SUBSET_LIMIT)
    if len(graph) > SUBSET_LIMIT:
        raise SubsetLimitExceeded(
            f"the license {pretty_license(lic)} issued to {name} reaches more than"
            f" {SUBSET_LIMIT} automaton subsets, the most the restriction formulas admit"
        )
    over = Over(name)

    ids = sorted(graph, key=lambda i: subset_label(nfa.subsets[i]))
    in_state = {i: InState(name, nfa.subsets[i]) for i in ids}

    entry = in_state.get(nfa.start, over)

    states_parts = [f_implies(over, f_and_all([Not(in_state[i]) for i in ids]))]
    for subset in ids:
        others = [Not(in_state[i]) for i in ids if i != subset]
        states_parts.append(f_implies(in_state[subset], f_and_all([Not(over)] + others)))
    states = f_and_all(states_parts)

    step_parts = []
    for subset in ids:
        allowed = nfa.masks[subset]  # over the letters, which are in action_key order
        conjuncts: list[Formula] = [
            Permitted(action, name) for letter, action in enumerate(nfa.letters) if allowed >> letter & 1
        ]
        for action in vocab.actions:
            if allowed >> nfa.letter(action) & 1:
                successor = graph[subset][action]
                target = in_state[successor] if successor else over
                conjuncts.append(f_implies(Done(action, name), Next(target)))
            else:
                conjuncts.append(Not(Permitted(action, name)))
                conjuncts.append(f_implies(Done(action, name), Next(over)))
        step_parts.append(f_implies(in_state[subset], f_and_all(conjuncts)))
    violated = f_implies(over, And(Obligated(BOT, name), Next(over)))
    return f_and_all([entry, Always(states), Always(And(f_and_all(step_parts), violated))])


def _schema_licenses(vocab: Vocabulary) -> Formula:
    parts = [
        f_implies(Issued(name, lic), _automaton_formula(name, lic, vocab))
        for name, lic in vocab.named_licenses
    ]
    if not parts:
        return Truth()
    return Always(f_and_all(parts))


def implicit_restrictions(formula: Formula) -> Formula:
    """The conjunction making models of a translated formula behave like runs.

    Covers: at most one action per name per time; a name never carries two
    licenses and is never issued twice; obligation means sole permission;
    unissued names owe bot; issuing a license pins the permitted sets to its
    automaton, with deviation absorbing into ``over``.  Schemas with nothing
    to say are left out.  Raises ``SubsetLimitExceeded`` when a license's
    automaton reaches more than ``SUBSET_LIMIT`` subsets.
    """
    vocab = build_vocabulary(formula)
    schemas = [
        _schema_done(vocab),
        _schema_issued(vocab),
        _schema_obligation(vocab),
        _schema_unissued(vocab),
        _schema_licenses(vocab),
    ]
    return f_and_all(schema for schema in schemas if not isinstance(schema, Truth))
