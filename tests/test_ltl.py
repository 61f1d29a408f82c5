"""Target-logic layer: translation, structures, and route agreement."""

import random
from decimal import Decimal

from lict import (
    BOT,
    Always,
    Not,
    Pay,
    Truth,
    Until,
    Render,
    check_spec,
    compute_permissions,
    evaluate,
    f_and_all,
    parse_formula,
    parse_license,
    parse_run,
    pretty_formula,
    translate,
)
from lict.ltl import Done, Issued, Obligated, Permitted, build_vocabulary, implicit_restrictions
from lict.reference import (
    LinearStructure,
    build_structure,
    check_run_validity_ltl,
    finiteness_restriction,
    formula_size,
    license_actions,
    ltl_eval,
)
from lict.formulas import Act, ActionExpr, Issue, Perm, formula_atoms
from lict.licenses import action_key, pretty_license

from gen import random_formula, random_license, random_run

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


class TestTranslate:
    def test_issue_atom(self):
        formula = parse_formula("issue(n, bot)")
        assert translate(formula) == Issued("n", formula.license)

    def test_complement_permission_uses_obligation(self):
        formula = Perm(ActionExpr(False, PAY, "n"))
        assert translate(formula) == Not(Obligated(PAY, "n"))

    def test_complement_action_is_negated_done(self):
        formula = Act(ActionExpr(False, PAY, "n"))
        assert translate(formula) == Not(Done(PAY, "n"))

    def test_homomorphic_on_connectives(self):
        formula = parse_formula("X (pay[1.00], n) & !(~render[w,d], m)")
        translated = translate(formula)
        assert pretty_formula(translated) == "X done(pay[1.00], n) & !!done(render[w,d], m)"

    def test_size_linear(self):
        rng = random.Random(113)
        for _ in range(100):
            formula = random_formula(rng, 5, names=("n", "m"))
            assert formula_size(translate(formula)) <= 2 * formula_size(formula)


class TestLtlEval:
    def test_always_on_all_p_loop(self):
        p = Done(BOT, "n")
        structure = LinearStructure(prefix=(), loop=(frozenset({p}),))
        assert ltl_eval(structure, 0, Always(p))

    def test_until_fulfilled_in_loop(self):
        p = Done(BOT, "n")
        q = Permitted(BOT, "n")
        structure = LinearStructure(
            prefix=(frozenset({p}),),
            loop=(frozenset({p}), frozenset({q})),
        )
        assert ltl_eval(structure, 0, Until(p, q))

    def test_until_needs_left_to_hold(self):
        p = Done(BOT, "n")
        q = Permitted(BOT, "n")
        structure = LinearStructure(
            prefix=(frozenset(),),
            loop=(frozenset({q}),),
        )
        assert not ltl_eval(structure, 0, Until(p, q))
        assert ltl_eval(structure, 1, Until(p, q))


class TestBuildStructure:
    def test_journal_initial_labels(self):
        structure = build_structure(JOURNAL_RUN)
        label = structure.label(0)
        issued = [prop for prop in label if isinstance(prop, Issued)]
        assert len(issued) == 1 and issued[0].name == "n"
        assert Done(PAY, "n") in label
        assert Permitted(PAY, "n") in label
        assert Permitted(BOT, "n") in label
        assert Obligated(PAY, "n") not in label

    def test_obligation_labels_are_sole_permissions(self):
        rng = random.Random(127)
        for _ in range(50):
            run = random_run(rng, horizon=3)
            structure = build_structure(run)
            perms = compute_permissions(run)
            for t in range(perms.prefix_len + perms.loop_len):
                label = structure.label(t)
                for prop in label:
                    if isinstance(prop, Obligated):
                        assert perms.permitted(prop.name, t) == {prop.action}

    def test_extra_names_get_idle_labels(self):
        structure = build_structure(parse_run(""), extra_names=("q",))
        label = structure.label(0)
        assert Done(BOT, "q") in label
        assert Obligated(BOT, "q") in label


class TestRouteAgreement:
    def test_pointwise_translation_agreement(self):
        rng = random.Random(131)
        for _ in range(150):
            run = random_run(rng, horizon=rng.randint(0, 5))
            names = tuple(run.names) or ("n",)
            licenses = [(t[1], t[2]) for t in run.issuances]
            formula = random_formula(rng, 5, names=names, licenses=licenses)
            structure = build_structure(run, extra_names=names)
            perms = compute_permissions(run)
            translated = translate(formula)
            for t in range(run.horizon + 2):
                direct = evaluate(run, perms, t, formula)
                via_ltl = ltl_eval(structure, t, translated)
                assert direct == via_ltl

    def test_run_validity_agreement(self):
        rng = random.Random(137)
        for _ in range(120):
            run = random_run(rng, horizon=rng.randint(0, 4))
            names = tuple(run.names) or ("n",)
            formula = random_formula(rng, 4, names=names)
            assert check_spec(run, formula) == check_run_validity_ltl(run, formula)

    def test_box_true_via_ltl(self):
        assert check_run_validity_ltl(JOURNAL_RUN, parse_formula("true"))

    def test_journal_property_via_ltl(self):
        prop = parse_formula("(pay[1.00], n) -> X(!O(render[journal,d], n))")
        assert check_run_validity_ltl(JOURNAL_RUN, prop)


class TestVocabulary:
    def test_matches_its_definition(self):
        # Names and actions sorted, licenses by name and then by text, and a
        # license's actions every action in it, bot always among them.  Each
        # name is drawn up to three licenses, some of them equal licenses
        # built apart.
        rng = random.Random(223)
        shared = 0
        for _ in range(150):
            names = ("n", "m", "k")[: rng.randint(1, 3)]
            licenses = [(rng.choice(names), random_license(rng, 2)) for _ in range(rng.randint(0, 5))]
            licenses += [(name, parse_license(pretty_license(lic))) for name, lic in licenses[:1]]
            formula = random_formula(rng, rng.randint(1, 4), names=names, licenses=licenses)
            formula = f_and_all([formula] + [Issue(name, lic) for name, lic in licenses if rng.random() < 0.7])
            atoms = formula_atoms(formula)
            issued = {(atom.name, atom.license) for atom in atoms if isinstance(atom, Issue)}
            exprs = [atom.expr for atom in atoms if isinstance(atom, (Act, Perm))]
            vocab = build_vocabulary(formula)
            assert vocab.named_licenses == tuple(
                sorted(issued, key=lambda pair: (pair[0], pretty_license(pair[1])))
            )
            assert vocab.names == tuple(sorted({name for name, _ in issued} | {expr.name for expr in exprs}))
            actions = {BOT, *(expr.action for expr in exprs)}.union(*(license_actions(lic) for _, lic in issued))
            assert vocab.actions == tuple(sorted(actions, key=action_key))
            shared += len(issued) > len({name for name, _ in issued})
        assert shared > 20


class TestImplicitRestrictions:
    def test_empty_vocabulary_is_truth(self):
        assert implicit_restrictions(parse_formula("true")) == Truth()

    def test_structures_of_runs_satisfy_them(self):
        # Whatever a real run does, its structure obeys the restrictions of
        # any formula that mentions the run's licenses (tautological issue
        # disjuncts pull them into the formula's vocabulary).
        rng = random.Random(139)
        from lict import Issue, f_and_all, f_or

        for _ in range(60):
            run = random_run(rng, horizon=rng.randint(0, 4), depth=3)
            names = tuple(run.names) or ("n",)
            licenses = [(t[1], t[2]) for t in run.issuances]
            core = random_formula(rng, 3, names=names, licenses=licenses)
            anchors = [
                f_or(Issue(name, lic), Not(Issue(name, lic)))
                for name, lic in licenses
            ]
            formula = f_and_all([core] + anchors)
            restrictions = implicit_restrictions(formula)
            structure = build_structure(run, extra_names=names)
            assert ltl_eval(structure, 0, restrictions)

    def test_done_schema_shape(self):
        formula = parse_formula("(pay[1.00], n) & (render[w,d], n)")
        restrictions = implicit_restrictions(formula)
        text = pretty_formula(restrictions)
        assert "done(pay[1.00], n) -> !done(render[w,d], n)" in text
        assert "done(render[w,d], n) -> !done(pay[1.00], n)" in text

    def test_finiteness_restriction_holds_on_run_structures(self):
        rng = random.Random(149)
        for _ in range(40):
            run = random_run(rng, horizon=3, depth=3)
            names = tuple(run.names) or ("n",)
            licenses = [(t[1], t[2]) for t in run.issuances]
            formula = random_formula(rng, 3, names=names, licenses=licenses)
            structure = build_structure(run, extra_names=names)
            assert ltl_eval(structure, 0, finiteness_restriction(formula))
