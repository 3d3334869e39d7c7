"""Every exported name exists, once, in the package and in each module."""

import importlib
import pkgutil

import pytest

import iqcradius

MODULES = [iqcradius] + [
    importlib.import_module(f"iqcradius.{info.name}")
    for info in pkgutil.iter_modules(iqcradius.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_exist_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from iqcradius import *", namespace)
    assert set(iqcradius.__all__) <= namespace.keys()
