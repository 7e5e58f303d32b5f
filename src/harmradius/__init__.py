"""Radii of close-to-convexity and starlikeness for planar harmonic maps.

The library works with normalized harmonic mappings f = h + conj(g) of
the unit disk whose coefficient moduli are bounded by one of three stock
families (koebe, convex, uniform) or given explicitly.  It computes the
largest r such that every dilated member f(rz)/r belongs to the
close-to-convex class cut out by |f_z - 1| < 1 - beta - |f_zbar|, checks
memberships numerically, certifies sharpness through witness Jacobians,
and evaluates the Bloch-Landau consequence for bounded harmonic maps.
"""

from . import bloch, coefficients, extremals, maps, membership, radii
from .coefficients import *
from .maps import *
from .extremals import *
from .membership import *
from .radii import *
from .bloch import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (coefficients, maps, extremals, membership, radii, bloch)
    for name in module.__all__
]
