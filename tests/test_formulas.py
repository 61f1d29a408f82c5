"""Direct formula semantics over runs: clauses, validities, encodings."""

import os
import random
from collections import Counter
from decimal import Decimal
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from lict import (
    BOT,
    Act,
    ActionExpr,
    Always,
    Atom,
    Concat,
    And,
    Issue,
    Next,
    Not,
    Pay,
    Perm,
    Render,
    Truth,
    Until,
    check_spec,
    compute_permissions,
    encode_run,
    evaluate,
    f_and_all,
    f_implies,
    f_nexts,
    f_oblig,
    f_or,
    make_run,
    parse_formula,
    parse_license,
    parse_run,
    pretty_formula,
    translate,
)
from lict import formulas
from lict.formulas import formula_atoms
from lict.licenses import children, post_order
from lict.ltl import Done, Obligated, Permitted
from lict.reference import lasso_eval as reference_lasso_eval
from lict.reference import (
    LinearStructure,
    build_structure,
    expr_matches,
    license_consequences,
    licenses_at,
    ltl_eval,
    run_atom_holds,
)

from gen import (
    NAMES,
    POOL,
    random_formula,
    random_run,
    repeating_run_text,
    shared_formula,
    shared_license,
    unshared,
)

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")

PAY = Pay(Decimal("1.00"))
READ = Render("journal", "d")
JOURNAL_TEXT = "((pay[1.00] bot* render[journal,d]) | bot)*"
JOURNAL_RUN = parse_run(
    f"""
    @0 issue n = {JOURNAL_TEXT}
    @0 do n pay[1.00]
    @2 do n render[journal,d]
    """
)


class TestActionExpr:
    def test_positive_matches_exactly(self):
        expr = ActionExpr(True, PAY, "n")
        assert expr_matches(expr, PAY, "n")
        assert not expr_matches(expr, READ, "n")
        assert not expr_matches(expr, PAY, "m")

    def test_complement_is_per_name(self):
        expr = ActionExpr(False, PAY, "n")
        assert expr_matches(expr, READ, "n")
        assert expr_matches(expr, BOT, "n")
        assert not expr_matches(expr, PAY, "n")
        assert not expr_matches(expr, READ, "m")

    def test_bot_complement_matches_any_real_action(self):
        expr = ActionExpr(False, BOT, "n")
        assert expr_matches(expr, PAY, "n")
        assert not expr_matches(expr, BOT, "n")


class TestEvaluate:
    def test_negation_clause(self):
        perms = compute_permissions(JOURNAL_RUN)
        rng = random.Random(83)
        for _ in range(50):
            formula = random_formula(rng, 3, names=("n",))
            t = rng.randint(0, 4)
            assert evaluate(JOURNAL_RUN, perms, t, Not(formula)) == (
                not evaluate(JOURNAL_RUN, perms, t, formula)
            )

    def test_prop1_family_on_samples(self):
        rng = random.Random(89)
        for _ in range(80):
            run = random_run(rng, horizon=rng.randint(0, 5))
            perms = compute_permissions(run)
            for _ in range(10):
                action = rng.choice(POOL)
                name = rng.choice(("n", "m", "k"))
                t = rng.randint(0, run.horizon + 3)
                either = f_or(
                    Perm(ActionExpr(True, action, name)),
                    Perm(ActionExpr(False, action, name)),
                )
                assert evaluate(run, perms, t, either)
                must_implies_may = f_implies(
                    f_oblig(action, name), Perm(ActionExpr(True, action, name))
                )
                assert evaluate(run, perms, t, must_implies_may)

    def test_obligation_iff_sole_permission(self):
        rng = random.Random(97)
        for _ in range(80):
            run = random_run(rng, horizon=rng.randint(0, 4))
            perms = compute_permissions(run)
            for name in run.names:
                for t in range(run.horizon + 3):
                    for action in POOL:
                        obliged = evaluate(run, perms, t, f_oblig(action, name))
                        assert obliged == (perms.permitted(name, t) == {action})

    def test_journal_property_at_zero(self):
        prop = parse_formula("(pay[1.00], n) -> X(!O(render[journal,d], n))")
        perms = compute_permissions(JOURNAL_RUN)
        assert evaluate(JOURNAL_RUN, perms, 0, prop)

    def test_temporal_unfolding(self):
        rng = random.Random(101)
        for _ in range(60):
            run = random_run(rng, horizon=rng.randint(0, 4))
            perms = compute_permissions(run)
            left = random_formula(rng, 2, names=("n", "m"))
            right = random_formula(rng, 2, names=("n", "m"))
            t = rng.randint(0, run.horizon + 2)
            box = evaluate(run, perms, t, Always(left))
            unfolded = evaluate(run, perms, t, And(left, Next(Always(left))))
            assert box == unfolded
            until = evaluate(run, perms, t, Until(left, right))
            unfolded_until = evaluate(
                run, perms, t, f_or(right, And(left, Next(Until(left, right))))
            )
            assert until == unfolded_until

    def test_name_independence(self):
        rng = random.Random(103)
        for _ in range(40):
            run = random_run(rng, horizon=3, max_licenses=1, names=("m",))
            formula = random_formula(rng, 4, names=("n",))
            base = make_run([], run.actions, horizon=run.horizon)
            with_license = make_run(run.issuances, run.actions, horizon=run.horizon)
            t = rng.randint(0, 4)
            assert evaluate(
                base, compute_permissions(base), t, formula
            ) == evaluate(with_license, compute_permissions(with_license), t, formula)


class TestCheckSpec:
    def test_box_true(self):
        assert check_spec(JOURNAL_RUN, parse_formula("G true"))

    def test_journal_non_violation_spec(self):
        spec = parse_formula(
            f"""
            issue(n, {JOURNAL_TEXT}) ->
              G( (((pay[1.00], n) -> P(pay[1.00], n)) & (O(pay[1.00], n) -> (pay[1.00], n)))
               & (((render[journal,d], n) -> P(render[journal,d], n)) & (O(render[journal,d], n) -> (render[journal,d], n)))
               & (((bot, n) -> P(bot, n)) & (O(bot, n) -> (bot, n))) )
            """
        )
        assert check_spec(JOURNAL_RUN, spec)

    def test_render_without_paying_violates(self):
        bad = parse_run(f"@0 issue n = {JOURNAL_TEXT}\n@0 do n render[journal,d]")
        spec = parse_formula(
            f"issue(n, {JOURNAL_TEXT}) -> G((render[journal,d], n) -> P(render[journal,d], n))"
        )
        assert not check_spec(bad, spec)


@st.composite
def _run_lines(draw):
    """Run-file lines over up to three issued names and one that never is, and a horizon.

    Names may be issued together, at the horizon, or never act; pay is
    written both as ``pay[1.0]`` and as ``pay[1.00]``, equal actions parsed
    as two objects.
    """
    horizon = draw(st.integers(0, 12))
    times = st.integers(0, horizon)
    licenses = ("bot*", "(pay[1.00] render[w,d])*", "(pay[1.0] | bot)*")
    actions = ("bot", "pay[1.0]", "pay[1.00]", "render[w,d]")
    lines = []
    for name in NAMES[: draw(st.integers(0, 3))]:
        lines.append(f"@{draw(times)} issue {name} = {draw(st.sampled_from(licenses))}")
    for name in (*NAMES, "j"):
        for t in sorted(draw(st.sets(times, max_size=horizon + 1))):
            lines.append(f"@{t} do {name} {draw(st.sampled_from(actions))}")
    return lines, horizon


class TestEncodeRun:
    def test_own_run_satisfies_encoding(self):
        rng = random.Random(107)
        for _ in range(50):
            run = random_run(rng, horizon=rng.randint(0, 3), depth=3)
            psi = encode_run(run)
            assert evaluate(run, compute_permissions(run), 0, psi)

    def test_restricts_only_issued_names(self):
        run = parse_run("@0 issue n = bot*")
        psi = encode_run(run)
        other = make_run(
            list(run.issuances), [(0, "m", PAY)], horizon=run.horizon
        )
        assert evaluate(other, compute_permissions(other), 0, psi)

    def test_empty_run_encodes_to_truth_shape(self):
        run = parse_run("")
        assert check_spec(run, encode_run(run))

    def test_nested_form_has_the_flat_conjuncts(self):
        for run in _encoding_runs():
            assert _timed_conjuncts(encode_run(run)) == _timed_conjuncts(_flat_encoding(run))

    def test_equal_states_share_one_object(self):
        repeating = parse_run(repeating_run_text())
        for run in _encoding_runs() + [repeating]:
            names = sorted(run.names)
            states = {
                (tuple(run.action(name, t) for name in names), licenses_at(run, t))
                for t in range(run.horizon + 1)
            }
            lefts, node = [], encode_run(run)
            while isinstance(node, And):
                lefts.append(node.left)
                node = node.right.operand
            assert len(lefts) == run.horizon + 1
            assert len({id(left) for left in lefts}) == len(states)
            if run is repeating:
                assert len(states) < 20

    def test_one_changed_action_falsifies_the_encoding(self):
        rng = random.Random(113)
        for run in _encoding_runs():
            if not run.names:
                continue
            name, t = rng.choice(sorted(run.names)), rng.randint(0, run.horizon)
            action = rng.choice([a for a in POOL if a != run.action(name, t)])
            actions = [entry for entry in run.actions if entry[:2] != (t, name)]
            changed = make_run(run.issuances, actions + [(t, name, action)], horizon=run.horizon)
            assert not evaluate(changed, compute_permissions(changed), 0, encode_run(run))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lines_and_horizon=_run_lines())
    @example(lines_and_horizon=([], 0))
    @example(lines_and_horizon=(["@2 issue n = bot*"], 2))
    @example(
        lines_and_horizon=(
            [
                "@0 issue n = (pay[1.00] bot)*",
                "@4 issue m = bot*",
                "@4 issue k = (render[w,d] | pay[1.0])*",
                "@0 do n pay[1.0]",
                "@2 do n pay[1.00]",
                "@3 do m pay[1.0]",
                "@1 do j render[w,d]",
            ],
            4,
        )
    )
    def test_each_distinct_state_is_one_object(self, lines_and_horizon):
        lines, horizon = lines_and_horizon
        parsed = parse_run("\n".join(lines))
        run = make_run(parsed.issuances, parsed.actions, horizon=max(horizon, parsed.horizon))
        formula = encode_run(run)
        assert _timed_conjuncts(formula) == _timed_conjuncts(_flat_encoding(run))
        names = sorted(run.names)
        lefts, node = [], formula
        while isinstance(node, And):
            lefts.append(node.left)
            node = node.right.operand
        assert len(lefts) == run.horizon + 1
        objects = {}
        for t, left in enumerate(lefts):
            state = (tuple(run.action(name, t) for name in names), licenses_at(run, t))
            assert objects.setdefault(state, left) is left
        assert len({id(left) for left in lefts}) == len(objects)
        text = pretty_formula(formula)
        assert text == pretty_formula(unshared(formula))
        assert parse_formula(text) == formula


def _encoding_runs():
    """Both sample runs and 50 seeded random ones."""
    runs = []
    for sample in ("journal", "mortgage"):
        with open(os.path.join(SAMPLES, f"{sample}.run"), encoding="ascii") as handle:
            runs.append(parse_run(handle.read()))
    rng = random.Random(211)
    runs += [random_run(rng, horizon=rng.randint(0, 6), depth=3) for _ in range(50)]
    return runs


def _flat_encoding(run):
    """The flat form: the conjunction of X^t (state at t), then X^(H+1) G idle."""
    names = sorted(run.names)
    parts = []
    for t in range(run.horizon + 1):
        state = [Act(ActionExpr(True, run.action(name, t), name)) for name in names]
        state += [Issue(name, lic) for name, lic in sorted(licenses_at(run, t), key=lambda pair: pair[0])]
        parts.append(f_nexts(f_and_all(state), t))
    idle = f_and_all([Act(ActionExpr(True, BOT, name)) for name in names])
    parts.append(f_nexts(Always(idle), run.horizon + 1))
    return f_and_all(parts)


def _timed_conjuncts(formula):
    """(time, conjunct) pairs, distributing X over &, on an explicit stack."""
    found = set()
    stack = [(formula, 0)]
    while stack:
        node, t = stack.pop()
        if isinstance(node, And):
            stack += [(node.left, t), (node.right, t)]
        elif isinstance(node, Next):
            stack.append((node.operand, t + 1))
        elif not isinstance(node, Truth):
            found.add((t, node))
    return found


# Licenses whose automata cycle under bot, so that a run issuing one has a
# loop longer than one time, with permissions that change round it.
CYCLING_LICENSES = tuple(
    parse_license(text)
    for text in ("(bot render[w,d] | bot bot bot)*", "(bot pay[1.00] | bot bot)*", "(bot bot)*")
)


class TestLicenseConsequences:
    def test_depth_zero_single_atom(self):
        formula = license_consequences("n", Atom(PAY), 0)
        assert formula == Perm(ActionExpr(True, PAY, "n"))

    def test_depth_one_concat(self):
        lic = Concat(Atom(PAY), Atom(READ))
        formula = license_consequences("n", lic, 1)
        expected = And(
            Perm(ActionExpr(True, PAY, "n")),
            f_implies(
                Act(ActionExpr(True, PAY, "n")),
                Next(Perm(ActionExpr(True, READ, "n"))),
            ),
        )
        assert formula == expected

    def test_no_random_run_falsifies(self):
        rng = random.Random(109)
        licenses = [
            parse_license("pay[1.00]"),
            parse_license("pay[1.00] render[w,d]"),
            parse_license("(pay[1.00] | bot) render[w,d]"),
            parse_license(JOURNAL_TEXT),
        ]
        for _ in range(200):
            lic = rng.choice(licenses)
            depth = rng.randint(0, 2)
            implication = f_implies(Issue("n", lic), license_consequences("n", lic, depth))
            run = random_run(rng, horizon=rng.randint(0, 4))
            run = make_run(
                [(rng.randint(0, run.horizon), "n", lic)],
                [entry for entry in run.actions],
                horizon=run.horizon,
            )
            perms = compute_permissions(run)
            for t in range(run.horizon + 2):
                assert evaluate(run, perms, t, implication)


class _Hashed:
    """Stands for a node in a tuple: a tuple's hash reads only its items' hashes."""

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _dataclass_hash(formula) -> int:
    """The hash a frozen dataclass connective would have, children first, without recursion."""
    hashes: dict[int, int] = {}
    for node in post_order(formula):
        parts = children(node)
        hashes[id(node)] = hash(tuple(_Hashed(hashes[id(child)]) for child in parts)) if parts else hash(node)
    return hashes[id(formula)]


def _shared_formula(seed: int, steps: int = 6, pool=POOL):
    """:func:`gen.shared_formula` over two names, with a shared license issued under one."""
    rng = random.Random(seed)
    licenses = [("n", shared_license(rng, steps=3, pool=pool))]
    return shared_formula(rng, steps, names=("n", "m"), pool=pool, licenses=licenses)


class TestConnectiveHashing:
    """Connectives hash and compare on explicit stacks, to the dataclass values."""

    def test_deep_next_chain(self):
        text = "X " * 1000 + "true"
        formula, twin = parse_formula(text), parse_formula(text)
        assert formula == twin and hash(formula) == hash(twin)
        assert hash(parse_formula(text)) == _dataclass_hash(formula)
        assert formula != parse_formula("X " * 999 + "true")
        assert formula != parse_formula("X " * 999 + "(bot, n)")

    def test_deep_and_chain(self):
        atoms = ["(bot, n)", "P(pay[1.00], m)", "issue(n, bot*)"]
        parts = [atoms[i % 3] for i in range(2000)]
        formula, twin = parse_formula(" & ".join(parts)), parse_formula(" & ".join(parts))
        assert formula == twin and hash(formula) == hash(twin)
        assert len({formula, twin}) == 1
        assert hash(parse_formula(" & ".join(parts))) == _dataclass_hash(formula)
        for changed in (["true", *parts[1:]], [*parts[:-1], "true"]):
            assert formula != parse_formula(" & ".join(changed))

    def test_random_formulas(self):
        rng = random.Random(43)
        licenses = [("n", shared_license(rng)), ("m", shared_license(rng))]
        previous = Truth()
        for _ in range(200):
            formula = random_formula(rng, 5, names=("n", "m"), licenses=licenses)
            again = parse_formula(pretty_formula(formula))
            assert formula == again and hash(formula) == hash(again) == _dataclass_hash(formula)
            assert (formula == previous) is (pretty_formula(formula) == pretty_formula(previous))
            previous = formula

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        pair=st.one_of(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(
                lambda seeds: tuple(_shared_formula(seed, steps=2, pool=POOL[:2]) for seed in seeds)
            ),
            st.integers(0, 2**32 - 1).map(_shared_formula).map(lambda formula: (formula, unshared(formula))),
        ),
        hashed=st.sampled_from(((), (0,), (1,), (0, 1))),
    )
    def test_equal_exactly_when_printed_alike(self, pair, hashed):
        # Parsing a formula's text gives that formula back, so equal texts
        # mean equal formulas.  Hashing first caches hashes the comparison
        # may read.
        for index in hashed:
            hash(pair[index])
        a, b = pair
        alike = pretty_formula(a) == pretty_formula(b)
        assert (a == b) is alike
        assert (b == a) is alike
        assert (a != b) is not alike
        if alike:
            assert hash(a) == hash(b)

    def test_a_difference_deep_inside_a_shared_subterm(self):
        def built(name):
            shared = f_nexts(And(Perm(ActionExpr(False, BOT, "n")), Act(ActionExpr(True, PAY, name))), 500)
            return shared, And(Until(shared, Not(shared)), Always(shared))

        # hashes cached on neither side, on either, on both roots, and on the shared subterms alone
        for hashed in ((), (1,), (3,), (1, 3), (0, 2)):
            parts = (*built("n"), *built("m"))
            for index in hashed:
                hash(parts[index])
            a, b = parts[1], parts[3]
            assert a != b and b != a
            assert a == built("n")[1] and b == built("m")[1]


class TestPretty:
    def test_resugars_obligation_and_eventually(self):
        formula = parse_formula("F O(bot, n)")
        assert pretty_formula(formula) == "F O(bot, n)"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shared_subterms_print_once_and_as_their_copy(self, seed):
        rng = random.Random(seed)
        licenses = [("n", shared_license(rng, steps=3))]
        formula = shared_formula(rng, names=("n", "m"), licenses=licenses)
        layouts = Counter()
        layout = formulas._layout

        def counting(node):
            layouts[id(node)] += 1
            return layout(node)

        with mock.patch.object(formulas, "_layout", counting):
            text = pretty_formula(formula)
        assert text == pretty_formula(unshared(formula))
        assert parse_formula(text) == formula
        # A node reached twice is laid out at most once; sugar such as | may
        # skip it.  The shared conjunction under X is always laid out.
        shared = _reached_twice(formula)
        assert all(layouts[key] <= 1 for key in shared)
        assert any(layouts[key] == 1 for key in shared)


def _reached_twice(formula) -> set[int]:
    """The ids of the node objects reached more than once in a formula DAG."""
    seen, twice, stack = set(), set(), [formula]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            twice.add(id(node))
            continue
        seen.add(id(node))
        stack += [getattr(node, name) for name in ("left", "right", "operand") if hasattr(node, name)]
    return twice


def _until_formula(rng, names, pool, licenses=()):
    """``a U b`` over random formulas: until at the top is read at every
    canonical time, the loop's last included, where it wraps."""
    return Until(*(random_formula(rng, rng.randint(1, 4), names, pool, licenses) for _ in "ab"))


class TestLabeller:
    """The bit-vector labeller agrees with the memoized recursive oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_the_reference_at_every_canonical_time(self, seed):
        rng = random.Random(seed)
        horizon = rng.randint(0, 5)
        run = random_run(rng, horizon=horizon, depth=3, names=NAMES[:2])
        if rng.random() < 0.7:
            cycling = (rng.randint(0, horizon), NAMES[2], rng.choice(CYCLING_LICENSES))
            run = make_run(run.issuances + (cycling,), run.actions, horizon=horizon)
        licenses = [(name, lic) for _, name, lic in run.issuances]
        # k and the actions of the cycling licenses, so atoms change round the loop
        names = (NAMES[2], rng.choice(NAMES[:2]))
        formula = _until_formula(rng, names, (BOT, PAY, Render("w", "d")), licenses)
        perms = compute_permissions(run)

        def run_atom(time, atom):
            return run_atom_holds(run, perms, time, atom)

        for t in range(perms.prefix_len + perms.loop_len):
            expected = reference_lasso_eval(perms.prefix_len, perms.loop_len, run_atom, t, formula)
            assert evaluate(run, perms, t, formula) == expected

        structure = build_structure(run, extra_names=NAMES)
        translated = translate(formula)

        def structure_atom(time, atom):
            return atom in structure.label(time)

        for t in range(structure.prefix_len + structure.loop_len):
            expected = reference_lasso_eval(
                structure.prefix_len, structure.loop_len, structure_atom, t, translated
            )
            assert ltl_eval(structure, t, translated) == expected

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_the_reference_on_any_lasso(self, seed):
        # Labels drawn at random, so atoms change freely round loops of any length.
        rng = random.Random(seed)
        props = [kind(BOT, name) for kind in (Done, Permitted, Obligated) for name in NAMES]

        def labels(count):
            return tuple(frozenset(p for p in props if rng.random() < 0.5) for _ in range(count))

        structure = LinearStructure(labels(rng.randint(0, 4)), labels(rng.randint(1, 4)))
        formula = translate(_until_formula(rng, NAMES, (BOT,)))

        def structure_atom(time, atom):
            return atom in structure.label(time)

        for t in range(structure.prefix_len + structure.loop_len):
            expected = reference_lasso_eval(
                structure.prefix_len, structure.loop_len, structure_atom, t, formula
            )
            assert ltl_eval(structure, t, formula) == expected


class TestAtomLabels:
    """Each atom's time mask agrees with the atom read off the run one time at a time."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_atom_agrees_with_the_run_at_every_time(self, seed):
        rng = random.Random(seed)
        horizon = rng.randint(0, 5)
        run = random_run(rng, horizon=horizon, depth=3, names=NAMES[:2])
        if rng.random() < 0.5:
            cycling = (rng.randint(0, horizon), NAMES[2], rng.choice(CYCLING_LICENSES))
            run = make_run(run.issuances + (cycling,), run.actions, horizon=horizon)
        # k's issue atom may name a license k does not hold, or k may hold none
        licenses = [(name, lic) for _, name, lic in run.issuances]
        licenses.append((NAMES[2], rng.choice(CYCLING_LICENSES)))
        atoms = formula_atoms(And(*(random_formula(rng, 4, NAMES, POOL, licenses) for _ in "ab")))
        perms = compute_permissions(run)
        # every canonical time, then once more round the loop, which the
        # labeller reads at the loop's canonical times
        for t in range(perms.prefix_len + 2 * perms.loop_len):
            for atom in atoms:
                assert evaluate(run, perms, t, atom) == run_atom_holds(run, perms, t, atom), (t, atom)
