"""Every name a ``geoplan`` module exports in ``__all__`` exists."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import geoplan

MODULES = sorted(info.name for info in pkgutil.iter_modules(geoplan.__path__))


def test_modules_are_found():
    assert {"cli", "metric_core", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"geoplan.{name}")
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _records():
    """Every record class a ``geoplan`` module defines: the classes with
    named-tuple ``_fields``."""
    for name in MODULES:
        module = importlib.import_module(f"geoplan.{name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and hasattr(obj, "_fields")
            ):
                yield obj


def test_records_are_declared_one_way():
    """Each record subclasses a ``collections.namedtuple`` with empty
    ``__slots__``, so no instance carries a ``__dict__``.  A
    ``typing.NamedTuple`` class has ``tuple`` as a direct base."""
    records = list(_records())
    assert len(records) > 20
    assert [r.__name__ for r in records if tuple in r.__bases__] == []
    open_dicts = [r.__name__ for r in records if "__slots__" not in vars(r)]
    assert open_dicts == []


def test_cube_sphere_imports_nothing_from_the_poset_engine():
    """The cube layer reads its corner labels off its own unfolding, so no
    import in ``cube_sphere``, at module level or inside a function, names
    ``strat_cover``; ``verify`` cross-checks the two."""
    from geoplan import cube_sphere

    names = []
    for node in ast.walk(ast.parse(inspect.getsource(cube_sphere))):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert names
    assert [n for n in names if "strat_cover" in n.split(".")] == []
