"""The package namespace: exports of the numpy-free submodules bound on
import, those of maps and membership resolved lazily, and the immutable
records they define, and the README's quick start run as a doctest."""

import ast
import doctest
import importlib
import math
import re
import sys
from pathlib import Path

import pytest

import harmradius
from harmradius.bloch import BlochRow
from harmradius.coefficients import BoundFamily, CoefficientSeq, TailBound
from harmradius.extremals import JacobianProfile
from harmradius.maps import ClosedForm
from harmradius.membership import GridSpec, MembershipReport
from harmradius.radii import RadiusReport, SharpnessReport

SUBMODULES = ("coefficients", "maps", "extremals", "membership", "radii", "bloch")
LAZY = ("maps", "membership")


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
    # every export is a package attribute: the core modules' names bound by
    # import harmradius, those of maps and membership on first lookup
    exported = harmradius.__all__[1:]
    lazy = [n for m in LAZY for n in importlib.import_module(f"harmradius.{m}").__all__]
    assert len(lazy) == 13
    for name in exported:
        if name not in lazy:  # bound by import harmradius itself
            assert vars(harmradius)[name] is getattr(owner(name), name)
    for name in lazy:  # as before the first lookup; restored afterwards
        monkeypatch.delitem(vars(harmradius), name, raising=False)
    assert set(exported) <= set(dir(harmradius))
    for name in lazy:
        value = getattr(harmradius, name)
        assert value is getattr(owner(name), name)
        assert vars(harmradius)[name] is value  # stored by the lookup
    star = {}
    exec("from harmradius import *", star)
    assert all(star[name] is getattr(harmradius, name) for name in harmradius.__all__)
    assert harmradius.UnsupportedOperation is harmradius.maps.UnsupportedOperation
    for module in LAZY:  # as before the submodule's import
        monkeypatch.delattr(harmradius, module)
        assert getattr(harmradius, module) is sys.modules[f"harmradius.{module}"]
    with pytest.raises(AttributeError, match="no_such_name"):
        harmradius.no_such_name


# one valid record of each type; for a validated type, a field value its
# checks refuse and their message
RECORDS = [
    (TailBound(1.0, 2.0), {"degree": math.nan}, "tail degree must lie in (-inf, inf), got nan"),
    (CoefficientSeq({2: 0.1}, {1: 0.2}, 3), {"b": {1: 1.5}},
     "|b_1| must be < 1 (sense-preserving normalization)"),
    (BoundFamily("uniform", 2.0, 0.3), {"kind": "disk"}, "unknown family kind 'disk'"),
    (RadiusReport(0.1, "closed_form", 0.0, 1e-12), {"method": "guess"},
     "unknown method 'guess'"),
    (SharpnessReport(True, "F0", 0.1, 1.0, 0.0, 1.0), None, None),
    (JacobianProfile("f0", ((1.0,), (1.0, -2.0, 0.5)), 2), None, None),
    (BlochRow(1.0, 4 / math.pi, 0.2, 0.1, 0.3, 0.4), {"R_S": 0.5},
     "R_S must lie in (0, r_S)"),
    (ClosedForm(abs, abs), None, None),
    (GridSpec(), {"n_radial": 1}, "grid size must be >= 2, got 1"),
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


def test_readme_quick_start_runs_as_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert (failed, attempted > 0) == (0, True)


def test_src_imports_the_standard_library_numpy_and_itself_only():
    # scipy is a test extra, and mpmath and sympy come only with it, so no
    # module of the package imports them.  The one exception is membership's
    # lazy cKDTree attribute, which no check calls but which perfbench's
    # tracer looks up to wrap it.
    allowed = set(sys.stdlib_module_names) | {"numpy", "harmradius"}
    found = set()
    src = Path(__file__).resolve().parents[1] / "src" / "harmradius"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative import within the package
                continue
            found.update((path.name, name) for name in names
                         if name.partition(".")[0] not in allowed)
    assert found == {("membership.py", "scipy.spatial")}
