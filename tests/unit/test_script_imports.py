"""Every example and benchmark script still imports.

Tier-1 collects only ``tests/``, so nothing else loads ``examples/*.py`` or
``benchmarks/*.py``.  Importing each one by path catches a script left
calling a public name the package no longer has.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = sorted(
    path
    for folder in ("examples", "benchmarks")
    for path in (ROOT / folder).glob("*.py")
)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_script_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    name = f"_script_{path.parent.name}_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
