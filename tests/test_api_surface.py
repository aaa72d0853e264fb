"""Every public name seqot declares resolves.

The benchmark's tracer (perfbench/tracing.py) wraps the names in each
module's ``__all__`` plus a few listed entry points, and reads 0 for a name
that no longer exists, so a stale entry would go unnoticed there.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import seqot

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(seqot.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"seqot.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_are_public_names_of_their_modules():
    tree = ast.parse(Path(seqot.__file__).read_text())
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exports
    for module_name, name in exports:
        module = importlib.import_module(f"seqot.{module_name}")
        assert getattr(seqot, name) is getattr(module, name)
        assert name in module.__all__, f"seqot.{module_name}.{name}"


def test_traced_entry_points_resolve():
    path = ROOT / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no perfbench tracer in this checkout")
    spec = importlib.util.spec_from_file_location("_seqot_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.MODULES) <= set(MODULES)
    for module_name, name in tracing.EXTRA_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"seqot.{module_name}"), name))
    for module_name, cls_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(f"seqot.{module_name}"), cls_name)
        assert callable(vars(cls)[method])
