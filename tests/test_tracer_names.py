"""The benchmark's traced run wraps lict functions by module and name.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``WRAPS`` table where the caller looks it up; a refactor that moves or
renames one of them would make ``--trace 1`` fail, so check they resolve,
and that a traced ``sat`` still yields the counts read off its results.
"""

import importlib
import importlib.util
import os

from lict.cli import main

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")
SAMPLE = os.path.join(SAMPLES, "journal-property.lic")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wraps = _tracing().WRAPS
    assert wraps
    for module_name, attr, *_ in wraps:
        module = importlib.import_module(f"lict.{module_name}")
        assert callable(getattr(module, attr, None)), f"lict.{module_name}.{attr}"


def test_traced_sat_counts_the_tableau(capsys):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert main(["sat", SAMPLE]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    _, counts = tracer.collect()
    assert counts["tableau.states"] > 0
    assert counts["tableau.edges"] > 0


def test_traced_sat_times_the_lasso_search(capsys):
    # lict.licsat calls accepting_lasso through its own namespace, where the
    # tracer wraps it; a call that bypassed the name would time nothing.
    self_time, _ = _traced(["sat", SAMPLE], capsys)
    assert self_time["tableau.lasso"] > 0


def _traced(argv, capsys) -> tuple[dict, dict]:
    """(self seconds per layer, counts) of one traced command."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return tracer.collect()


def test_traced_sat_counts_the_license_automata(capsys):
    # The run space builds its automata through lict.licsat's names; a
    # traced run that bypassed them would count zero.  It steps their
    # subsets row by row, as the product reaches them, so it builds no
    # subset graph for the tracer to count.
    _, counts = _traced(["sat", os.path.join(SAMPLES, "journal-noviolation.lic")], capsys)
    assert counts["automata.nfa_states"] > 0
    assert counts["automata.subsets"] == 0


def test_traced_restrictions_count_the_subset_graphs(capsys):
    # The restriction formulas embed each license's whole subset graph,
    # built through lict.ltl's names.
    argv = ["translate-ltl", "--with-restrictions", os.path.join(SAMPLES, "journal-noviolation.lic")]
    _, counts = _traced(argv, capsys)
    assert counts["automata.nfa_states"] > 0
    assert counts["automata.subsets"] > 0
