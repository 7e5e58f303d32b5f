"""Radii of close-to-convexity and starlikeness for planar harmonic maps.

The library works with normalized harmonic mappings f = h + conj(g) of
the unit disk whose coefficient moduli are bounded by one of three stock
families (koebe, convex, uniform) or given explicitly.  It computes the
largest r such that every dilated member f(rz)/r belongs to the
close-to-convex class cut out by |f_z - 1| < 1 - beta - |f_zbar|, checks
memberships numerically, certifies sharpness through witness Jacobians,
and evaluates the Bloch-Landau consequence for bounded harmonic maps.

``import harmradius`` imports coefficients, extremals, radii and bloch,
none of which imports numpy, and re-exports their names: the radii, the
coefficient sums, the sharpness check of a profile, the Bloch table and
the extremal labels are usable without numpy.  maps (numpy on its first
array input) and membership load on first use (PEP 562): the first lookup
of one of their exported names imports the submodule and binds all its
exports here.
"""

import importlib

from . import bloch, coefficients, extremals, radii
from .coefficients import *
from .extremals import *
from .radii import *
from .bloch import *

__version__ = "0.1.0"

# The lazy submodules' __all__, in order; a test keeps the two in step.
_LAZY = {
    "maps": (
        "EvaluationDomainError", "UnsupportedOperation", "HarmonicMap", "identity_map",
    ),
    "membership": (
        "BOUNDARY_TOL", "COLLISION_TOL", "GridSpec", "MembershipReport",
        "coeff_condition", "c_h2_numeric", "starlike_scan", "injectivity_oracle",
        "coefficient_growth_check",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["__version__", *coefficients.__all__, *_LAZY["maps"], *extremals.__all__,
           *_LAZY["membership"], *radii.__all__, *bloch.__all__]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
    # bound here, so later lookups, and code that walks vars(harmradius), see
    # plain attributes
    globals().update((n, getattr(module, n)) for n in _LAZY[_OWNER[name]])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
