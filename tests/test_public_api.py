"""The export lists match what the package and its modules define."""
import importlib
import pkgutil

import pytest

import orlicz_risk

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(orlicz_risk.__path__))


def test_package_all_resolves():
    missing = [name for name in orlicz_risk.__all__ if not hasattr(orlicz_risk, name)]
    assert missing == []
    assert len(set(orlicz_risk.__all__)) == len(orlicz_risk.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"orlicz_risk.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)
