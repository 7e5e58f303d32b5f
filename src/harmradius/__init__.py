"""Radii of close-to-convexity and starlikeness for planar harmonic maps.

The library works with normalized harmonic mappings f = h + conj(g) of
the unit disk whose coefficient moduli are bounded by one of three stock
families (koebe, convex, uniform) or given explicitly.  It computes the
largest r such that every dilated member f(rz)/r belongs to the
close-to-convex class cut out by |f_z - 1| < 1 - beta - |f_zbar|, checks
memberships numerically, certifies sharpness through witness Jacobians,
and evaluates the Bloch-Landau consequence for bounded harmonic maps.

The submodules load on first use (PEP 562): ``import harmradius`` imports
none of them, and the first lookup of an exported name imports the
submodule that defines it and binds all that submodule's exports here.
Only maps and membership import numpy, so the radii, the coefficient
sums, the Bloch table and the extremal labels are usable without it.
"""

import importlib

__version__ = "0.1.0"

# Each submodule's __all__, in order; a test keeps the two in step.
_EXPORTS = {
    "coefficients": (
        "SERIES_EVAL_MAX", "TailBound", "CoefficientSeq", "BoundFamily",
        "FAMILY_POLYNOMIALS", "koebe_bounds", "convex_bounds", "power_sums",
        "weighted_sum", "weighted_sum_tail", "weighted_sum_limit",
        "sequence_from_dict", "sequence_to_dict", "load_sequence", "save_sequence",
    ),
    "maps": (
        "EvaluationDomainError", "UnsupportedOperation", "ClosedForm", "HarmonicMap",
        "identity_map",
    ),
    "extremals": (
        "CONVEX_EXTREMAL_CONVEXITY_RADIUS", "JacobianProfile", "harmonic_koebe",
        "convex_extremal", "koebe_witness", "convex_witness", "uniform_witness",
        "koebe_witness_profile", "convex_witness_profile", "uniform_witness_profile",
        "one_term_extremal", "EXTREMALS", "PARAMETERS", "WITNESSES", "get_extremal",
    ),
    "membership": (
        "BOUNDARY_TOL", "COLLISION_TOL", "GridSpec", "MembershipReport",
        "coeff_condition", "c_h2_numeric", "starlike_scan", "injectivity_oracle",
        "coefficient_growth_check",
    ),
    "radii": (
        "BISECTION_TOL", "NoRadiusError", "RadiusReport", "SharpnessReport",
        "radius_by_bisection", "koebe_family_radius", "convex_family_radius",
        "uniform_family_radius", "closed_form_radius", "jacobian_roots",
        "verify_sharpness",
    ),
    "bloch": (
        "MIN_BOUND", "PRIOR_ESTIMATE_FACTOR", "BlochRow", "coefficient_bound",
        "bloch_radius", "phi", "psi", "bloch_table", "bloch_table_csv",
        "BLOCH_CSV_HEADER",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
    # bound here, so later lookups, and code that walks vars(harmradius), see
    # plain attributes
    globals().update((n, getattr(module, n)) for n in _EXPORTS[_OWNER[name]])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
