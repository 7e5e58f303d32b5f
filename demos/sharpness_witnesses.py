#!/usr/bin/env python3
"""Why the radii cannot be enlarged.

Each closed-form radius comes with a witness map whose Jacobian is
positive strictly inside the radius, vanishes exactly at it, and turns
negative just outside, so the map stops being sense-preserving there.
This script scans each witness Jacobian along the real axis, localizes
its roots, and runs the packaged sharpness verdict.

The printed root lists are the data behind the CLI's jacobian-scan CSV.
"""

from harmradius.coefficients import BoundFamily
from harmradius.extremals import (
    convex_witness_profile,
    koebe_witness_profile,
    uniform_witness_profile,
)
from harmradius.radii import closed_form_radius, jacobian_roots, verify_sharpness

WITNESSES = [
    ("F0", koebe_witness_profile(), closed_form_radius(BoundFamily.koebe()).radius, 0.25),
    ("L0", convex_witness_profile(), closed_form_radius(BoundFamily.convex()).radius, 0.35),
    ("f0(c=1)", uniform_witness_profile(1.0),
     closed_form_radius(BoundFamily.uniform(1.0)).radius, 0.5),
]


def main() -> None:
    for label, profile, radius, hi in WITNESSES:
        print(f"witness {label}")
        print(f"  claimed radius      {radius:.15f}")
        print(f"  J(0)              = {profile(0.0):.6f}")
        print(f"  J(radius)         = {profile(radius):+.3e}")
        print(f"  J(radius + 1e-3)  = {profile(radius + 1e-3):+.3e}")
        roots = jacobian_roots(profile, 0.0, hi)
        print(f"  roots on (0, {hi}) = {[f'{r:.12f}' for r in roots]}")
        report = verify_sharpness(profile, radius)
        print(f"  sharpness verdict  passed={report.passed}  "
              f"interior_min={report.interior_min:.3e}  "
              f"root_residual={report.root_residual:.3e}  "
              f"exterior_margin={report.exterior_margin:.3e}")
        print()

    # F0 is the interesting one: its Jacobian recovers, so the map is
    # locally sense-preserving again past the second root even though
    # global injectivity is already lost.
    profile = koebe_witness_profile()
    print("F0 sign pattern along the real axis:")
    for r in (0.05, 0.11, 0.113, 0.14, 0.164, 0.17, 0.22):
        sign = "+" if profile(r) > 0 else "-"
        print(f"  r={r:<6} J={profile(r):+12.6f}  ({sign})")


if __name__ == "__main__":
    main()
