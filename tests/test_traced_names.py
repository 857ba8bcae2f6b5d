"""Every library name the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` pins the functions it times by name.  A change
that deletes or renames one of them would otherwise show only as
``Tracer.install`` failing inside a traced benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

# run from its source, so that nothing is imported from or written to perfbench/
TRACING = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"),
    run_name="perfbench_tracing",
)


@pytest.mark.parametrize(
    "traced", [f"{layer}.{name}" for layer, names in TRACING["TRACED"].items() for name in names]
)
def test_traced_name_resolves(traced):
    layer, name = traced.split(".", 1)
    module = importlib.import_module(f"{TRACING['LIBRARY']}.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        # the tracer wraps the method on the class that defines it
        assert callable(vars(getattr(module, cls_name)).get(attr))
    else:
        assert callable(getattr(module, name, None))
