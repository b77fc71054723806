"""The benchmark's tracer patches library functions by name from outside
``src/``; a refactor that unbinds one of those names must fail here."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_name_the_tracer_patches_is_bound(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    # raises KeyError at the first patched name that is no longer bound
    bindings = tracing.current_bindings()
    assert len(bindings) == len(tracing.PATCHES)
    assert all(callable(getattr(b, "__func__", b)) for b in bindings)
