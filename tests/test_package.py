"""The package namespace: exports resolved lazily from the submodules."""

import importlib
import sys

import pytest

import harmradius

SUBMODULES = ("coefficients", "maps", "extremals", "membership", "radii", "bloch")


def owner(name):
    for module in SUBMODULES:
        mod = importlib.import_module(f"harmradius.{module}")
        if name in mod.__all__:
            return mod
    raise LookupError(name)


def test_exports_are_the_submodules_all():
    names = [n for m in SUBMODULES for n in importlib.import_module(f"harmradius.{m}").__all__]
    assert harmradius.__all__ == ["__version__", *names]


def test_every_export_is_a_lazy_package_attribute(monkeypatch):
    exported = harmradius.__all__[1:]
    for name in exported:  # as before the first lookup; restored afterwards
        monkeypatch.delitem(vars(harmradius), name, raising=False)
    assert set(exported) <= set(dir(harmradius))
    for name in exported:
        value = getattr(harmradius, name)
        assert value is getattr(owner(name), name)
        assert vars(harmradius)[name] is value  # stored by the lookup
    star = {}
    exec("from harmradius import *", star)
    assert all(star[name] is getattr(harmradius, name) for name in harmradius.__all__)
    assert harmradius.UnsupportedOperation is harmradius.maps.UnsupportedOperation
    monkeypatch.delattr(harmradius, "maps")  # as before the submodule's import
    assert harmradius.maps is sys.modules["harmradius.maps"]
    with pytest.raises(AttributeError, match="no_such_name"):
        harmradius.no_such_name
