"""The benchmark's traced run wraps lict functions by module and name.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``WRAPS`` table where the caller looks it up; a refactor that moves or
renames one of them would make ``--trace 1`` fail, so check they resolve.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_wrapped_name_resolves():
    wraps = _wraps()
    assert wraps
    for module_name, attr, *_ in wraps:
        module = importlib.import_module(f"lict.{module_name}")
        assert callable(getattr(module, attr, None)), f"lict.{module_name}.{attr}"
