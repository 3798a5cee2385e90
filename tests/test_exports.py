"""Every name a ``geoplan`` module exports in ``__all__`` exists."""

import importlib
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
