"""The package's public names: every entry of an ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import primeplm

MODULES = [primeplm] + [
    importlib.import_module(f"primeplm.{info.name}")
    for info in pkgutil.iter_modules(primeplm.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert [name for name in exported if not hasattr(module, name)] == []
