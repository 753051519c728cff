"""Every name a courantcalc module lists in ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import courantcalc

MODULES = sorted(m.name for m in pkgutil.iter_modules(courantcalc.__path__))


def test_every_module_is_listed():
    assert "dorfman" in MODULES and "cochain" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"courantcalc.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
