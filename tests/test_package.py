"""The package namespace: exports resolved lazily from the submodules,
and the immutable records they define."""

import importlib
import math
import re
import sys

import pytest

import harmradius
from harmradius.bloch import BlochRow
from harmradius.coefficients import BoundFamily, CoefficientSeq, TailBound
from harmradius.extremals import JacobianProfile
from harmradius.maps import ClosedForm
from harmradius.membership import GridSpec, MembershipReport
from harmradius.radii import RadiusReport, SharpnessReport

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


# one valid record of each type; for a validated type, a field value its
# checks refuse and their message
RECORDS = [
    (TailBound(1.0, 2.0), {"degree": math.nan}, "tail degree must be finite"),
    (CoefficientSeq({2: 0.1}, {1: 0.2}, 3), {"b": {1: 1.5}},
     "|b_1| must be < 1 (sense-preserving normalization)"),
    (BoundFamily("uniform", 2.0, 0.3), {"kind": "disk"}, "unknown family kind 'disk'"),
    (RadiusReport(0.1, "closed_form", 0.0, 1e-12), {"method": "guess"},
     "unknown method 'guess'"),
    (SharpnessReport(True, "F0", 0.1, 1.0, 0.0, 1.0), None, None),
    (JacobianProfile("f0", ((1.0,), (1.0, -2.0, 0.5)), 2), None, None),
    (BlochRow(1.0, 4 / math.pi, 0.2, 0.1, 0.3, 0.4), {"R_S": 0.5},
     "R_S must lie in (0, r_S)"),
    (ClosedForm(abs, abs, abs, abs), None, None),
    (GridSpec(), {"n_radial": 1}, "grid needs n_radial >= 2, n_angular >= 1"),
    (MembershipReport("satisfied", 0.5), {"verdict": "maybe"}, "unknown verdict 'maybe'"),
]


@pytest.mark.parametrize("record, bad, message", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_records_are_immutable_and_always_checked(record, bad, message):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record._replace() == record
    if bad is None:
        return
    fields = {**record._asdict(), **bad}
    for build in (lambda: type(record)(**fields), lambda: record._replace(**bad),
                  lambda: type(record)._make(fields.values())):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
