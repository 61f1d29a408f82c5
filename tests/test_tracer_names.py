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
SAMPLE = os.path.join(os.path.dirname(__file__), "..", "samples", "journal-property.lic")


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
