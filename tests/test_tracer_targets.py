"""Every function and method the benchmark tracer wraps exists in ``ncps``.

``perfbench/tracer.py`` names its span and counter targets as strings.  A
refactor that drops or renames one breaks the traced benchmark runs, so this
suite loads the tracer read-only, installs nothing, and resolves each target.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
TARGETS = {**_tracer.SPANS, **_tracer.COUNTERS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_traced_target_resolves_in_ncps(name):
    module, attr = TARGETS[name]
    assert module.split(".")[0] == "ncps"
    obj = import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
