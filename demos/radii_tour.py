#!/usr/bin/env python3
"""Tour of the three closed-form radii.

For each coefficient-bounded family the library knows in closed form,
this script prints the radius, the polynomial residual at the root, and
a bisection cross-check on the defining weighted sum.  It then samples
the weighted sum on both sides of the radius to show the crossing that
defines it: S(r) < 1 inside, S(r) > 1 outside.

Deterministic; requires only numpy and harmradius.
"""

import numpy as np

from harmradius.coefficients import BoundFamily, weighted_sum
from harmradius.radii import closed_form_radius, radius_by_bisection

CASES = [
    ("harmonic Koebe bounds", BoundFamily.koebe()),
    ("convex bounds", BoundFamily.convex()),
    ("uniform bound c=1", BoundFamily.uniform(1.0)),
    ("uniform bound c=2, |b1|=0.3", BoundFamily.uniform(2.0, 0.3)),
]


def main() -> None:
    print("family radii: closed form vs bisection")
    print("=" * 64)
    for name, family in CASES:
        closed = closed_form_radius(family)
        bisected = radius_by_bisection(family, 0.0)
        print(f"\n{name}")
        print(f"  closed form   r = {closed.radius:.15f}")
        print(f"  bisection     r = {bisected.radius:.15f}")
        print(f"  difference        {abs(closed.radius - bisected.radius):.2e}")
        print(f"  residual |p(r)| = {closed.residual:.2e}")

        # the weighted sum crosses 1 exactly at the radius
        r = closed.radius
        for probe in (0.5 * r, 0.9 * r, r, min(0.999, 1.1 * r)):
            s = weighted_sum(family, probe)
            side = "inside " if probe < r else ("at     " if probe == r else "outside")
            print(f"  {side} r={probe:.6f}  S(r) = {s:.12f}")

    print("\nbeta sweep on the Koebe family (stricter target 1 - beta):")
    fam = BoundFamily.koebe()
    for beta in np.linspace(0.0, 0.8, 5):
        report = radius_by_bisection(fam, float(beta))
        print(f"  beta={beta:.2f}  r = {report.radius:.12f}")


if __name__ == "__main__":
    main()
