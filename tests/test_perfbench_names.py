"""The library names the benchmark traces still exist.

``perfbench/tracing.py`` wraps named functions of the library's modules;
deleting or renaming one breaks the benchmark but no library test.  The
two benchmark modules are loaded by file path, without touching
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from pvmppt import converter, harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """Import ``perfbench/<name>.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _missing(monkeypatch) -> list[str]:
    """The traced ``module.attr`` names that are not a callable of the library."""
    tracing = _load("tracing", monkeypatch)
    points = tracing.library_wrap_points(harness, converter, _load("workloads", monkeypatch))
    assert points
    return [f"{m.__name__}.{a}" for m, a, _ in points if not callable(getattr(m, a, None))]


def test_every_traced_name_exists_and_is_callable(monkeypatch):
    assert _missing(monkeypatch) == []


@pytest.mark.parametrize("module, attr", [(harness, "module_voltage"), (converter, "step_ode")])
def test_a_deleted_name_is_found(monkeypatch, module, attr):
    monkeypatch.delattr(module, attr)
    assert _missing(monkeypatch) == [f"{module.__name__}.{attr}"]
