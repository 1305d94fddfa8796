"""Every function the benchmark's tracer wraps still exists under the name
it looks for, so renaming a traced function fails here and not only in a
benchmark run."""

import importlib
import os
import runpy

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

# run_path compiles the file without writing bytecode beside it.
TARGETS = [
    (module, name)
    for module, names in runpy.run_path(TRACER)["TARGETS"].items()
    for name in names
]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_name_resolves(module, name):
    owner = importlib.import_module(f"binauralkit.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
