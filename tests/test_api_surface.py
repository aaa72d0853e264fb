"""Every public name seqot declares resolves, and the public surface has a
pinned size.

The benchmark's tracer (perfbench/tracing.py) wraps the names in each
module's ``__all__`` plus a few listed entry points, and reads 0 for a name
that no longer exists, so a stale entry would go unnoticed there.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import seqot

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(seqot.__path__)
                 if m.name != "__main__")
# parameters of every public function and public method, constructors included
SETTABLE_VALUES = 345


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


def _settable_values(module):
    """Parameters of the module's public functions and classes: a class counts
    its own constructor and its public methods, classmethods and
    staticmethods, each without self or cls."""
    count = 0
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            count += len(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            for method, f in vars(obj).items():
                if method.startswith("_") and method != "__init__":
                    continue
                bound = not isinstance(f, staticmethod)
                if isinstance(f, (classmethod, staticmethod)):
                    f = f.__func__
                if inspect.isfunction(f):
                    count += len(inspect.signature(f).parameters) - bound
    return count


def test_settable_value_count_pinned():
    # a change to the public surface updates SETTABLE_VALUES in plain view
    total = sum(_settable_values(importlib.import_module(f"seqot.{name}"))
                for name in MODULES)
    assert total == SETTABLE_VALUES
