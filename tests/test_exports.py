"""Every name a module of the package exports resolves.

A stale ``__all__`` entry breaks only ``from epm.<module> import *``, which no
other test runs, so it is checked here directly.
"""

import importlib
import pkgutil

import pytest

import epm

MODULES = sorted(info.name for info in pkgutil.iter_modules(epm.__path__))


def test_package_imports_every_module():
    assert {"attack", "cli", "protocols", "ring", "serialize", "zpmsolve"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    mod = importlib.import_module(f"epm.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
