"""The temporal target logic: atoms, translation, restrictions, structures.

Formulas of the license logic translate, atom by atom, into a propositional
temporal logic over a vocabulary describing runs: which licenses are issued,
what the client does, what is permitted, and what is obligated.  Both logics
share the formula AST, evaluator and printer of :mod:`lict.formulas`; this
module adds the target atoms.  A run's model is ultimately periodic (prefix
plus loop).  ``implicit_restrictions`` produces the temporal formula that
makes arbitrary models of a translated formula behave like runs; it embeds
each mentioned license's deterministic subset automaton through
``instate``/``over`` propositions.  The generic decision route built on it
(with the finiteness restriction, and run validity through the structure)
is the oracle in :mod:`lict.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .automata import SubsetState, padded_nfa, permitted_from, reachable_subsets
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
    lasso_eval,
    map_atoms,
)
from .licenses import (
    BOT,
    Action,
    License,
    action_key,
    license_actions,
    pretty_action,
    pretty_license,
)
from .runs import Run, compute_permissions


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


Prop = Issued | Done | Permitted | Obligated | InState | Over


def subset_label(subset: SubsetState) -> str:
    return "s" + "_".join(str(q) for q in sorted(subset))


# ---------------------------------------------------------------------------
# Linear structures and their evaluation


@dataclass(frozen=True)
class LinearStructure:
    """An ultimately periodic model: labeled prefix states plus a loop."""

    prefix: tuple[frozenset, ...]
    loop: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("a linear structure needs a nonempty loop")

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def loop_len(self) -> int:
        return len(self.loop)

    def label(self, t: int) -> frozenset:
        if t < len(self.prefix):
            return self.prefix[t]
        return self.loop[(t - len(self.prefix)) % len(self.loop)]


def ltl_eval(structure: LinearStructure, t: int, formula: Formula) -> bool:
    """Truth of a target-logic formula at state ``t`` of the structure."""

    def atom_holds(time: int, atom: Formula) -> bool:
        return atom in structure.label(time)

    return lasso_eval(structure.prefix_len, structure.loop_len, atom_holds, t, formula)


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
    atoms = formula_atoms(formula)
    exprs = [atom.expr for atom in atoms if isinstance(atom, (Act, Perm))]
    named = sorted(
        {(atom.name, atom.license) for atom in atoms if isinstance(atom, Issue)},
        key=lambda pair: (pair[0], pretty_license(pair[1])),
    )
    names = {name for name, _ in named} | {expr.name for expr in exprs}
    actions = {expr.action for expr in exprs} | {BOT}
    for _, lic in named:
        actions |= license_actions(lic)
    return Vocabulary(
        names=tuple(sorted(names)),
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


def _automaton_formula(name: str, lic: License, vocab: Vocabulary) -> Formula:
    """The consequences of following ``lic``: its subset automaton in formulas."""
    nfa = padded_nfa(lic)
    graph = reachable_subsets(nfa, vocab.actions)
    over = Over(name)

    subsets = sorted(graph, key=subset_label)
    in_state = {subset: InState(name, subset) for subset in subsets}

    start = nfa.start_subset()
    entry = in_state[start] if start in in_state else over

    states_parts = [f_implies(over, f_and_all([Not(in_state[s]) for s in subsets]))]
    for subset in subsets:
        others = [Not(in_state[s]) for s in subsets if s != subset]
        states_parts.append(f_implies(in_state[subset], f_and_all([Not(over)] + others)))
    states = f_and_all(states_parts)

    step_parts = []
    for subset in subsets:
        allowed = permitted_from(nfa, subset)
        conjuncts: list[Formula] = [
            Permitted(action, name) for action in sorted(allowed, key=action_key)
        ]
        for action in vocab.actions:
            if action in allowed:
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
    to say are left out.
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


# ---------------------------------------------------------------------------
# The structure of a run


def name_props(name: str, issued, action, subset, permitted) -> frozenset[Prop]:
    """The target atoms true of one name at one time.

    ``issued`` is the license issued to the name at that time, or None;
    ``action`` is what the name does, or None for an action the vocabulary
    does not mention; ``subset`` is the name's automaton subset, None before
    issuance and empty once violated; ``permitted`` is its permitted set.
    """
    props: set[Prop] = {Permitted(action, name) for action in permitted}
    if issued is not None:
        props.add(Issued(name, issued))
    if action is not None:
        props.add(Done(action, name))
    if len(permitted) == 1:
        props.add(Obligated(next(iter(permitted)), name))
    if subset is not None:
        props.add(InState(name, subset) if subset else Over(name))
    return frozenset(props)


def build_structure(run: Run, extra_names=()) -> LinearStructure:
    """The ultimately periodic model of a run.

    Labels each time with the issuances, the actions done, the permitted and
    obligated actions, and the license automaton subsets.  ``extra_names``
    extends the vocabulary with names the run never issues (they do bot and
    permit only bot throughout).
    """
    perms = compute_permissions(run)
    names = sorted(run.names | frozenset(extra_names))

    def label(t: int) -> frozenset:
        issued = dict(run.licenses_at(t))
        props: set[Prop] = set()
        for name in names:
            subset, permitted = perms.subset_state(name, t), perms.permitted(name, t)
            props |= name_props(name, issued.get(name), run.action(name, t), subset, permitted)
        return frozenset(props)

    prefix = tuple(label(t) for t in range(perms.prefix_len))
    loop = tuple(
        label(t) for t in range(perms.prefix_len, perms.prefix_len + perms.loop_len)
    )
    return LinearStructure(prefix, loop)
