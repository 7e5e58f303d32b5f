#!/usr/bin/env python3
"""Membership checks in action.

Three experiments:

1. Scale the harmonic Koebe map by rho and run the pointwise inequality
   check.  The verdict flips from satisfied to violated as rho crosses
   the closed-form radius, which is the whole point of the radius.

2. Run every check on a random coefficient sequence that satisfies the
   coefficient condition, showing the implication chain: coefficient
   condition -> growth condition -> pointwise inequality -> starlike.

3. Hunt for an actual range collision of the witness F0 on |z| < 0.2.
   The Jacobian changes sign below 0.2, so two distinct points must
   land on the same image value; the oracle finds such a pair.
"""

import numpy as np

from harmradius.coefficients import BoundFamily, CoefficientSeq
from harmradius.extremals import get_extremal
from harmradius.maps import HarmonicMap
from harmradius.membership import (
    c_h2_numeric,
    coeff_condition,
    coefficient_growth_check,
    injectivity_oracle,
    starlike_scan,
)
from harmradius.radii import closed_form_radius


def main() -> None:
    koebe = get_extremal("koebe")
    radius = closed_form_radius(BoundFamily.koebe()).radius

    print(f"1. scaling the harmonic Koebe map across r = {radius:.6f}")
    for rho in (0.05, 0.10, 0.112903, 0.12, 0.2, 0.5):
        report = c_h2_numeric(koebe.dilate(rho), 0.0)
        print(f"   rho={rho:<9} verdict={report.verdict:<12} "
              f"margin={report.margin:+.6f}")

    print("\n2. implication chain on a fixed random-ish sequence")
    seq = CoefficientSeq({2: 0.12, 5: 0.03 + 0.02j}, {1: 0.0, 3: 0.04j}, 5)
    f = HarmonicMap.from_series(seq, label="demo-seq")
    checks = [
        ("coefficient condition", coeff_condition(seq)),
        ("growth condition", coefficient_growth_check(seq)),
        ("pointwise inequality", c_h2_numeric(f, 0.0)),
        ("starlike scan r=0.999", starlike_scan(f, 0.999)),
    ]
    for name, report in checks:
        print(f"   {name:<24} {report.verdict:<12} margin={report.margin:+.6f}")

    print("\n3. range collision for the witness F0 on |z| < 0.2")
    report = injectivity_oracle(get_extremal("F0"), 0.2, 256)
    print(f"   verdict: {report.verdict}")
    if report.witness is not None:
        z1, z2 = report.witness
        f0 = get_extremal("F0")
        print(f"   z1 = {z1:.6f}")
        print(f"   z2 = {z2:.6f}")
        print(f"   |z1 - z2|       = {abs(z1 - z2):.3e}")
        print(f"   |F0(z1)-F0(z2)| = {abs(f0(np.complex128(z1)) - f0(np.complex128(z2))):.3e}")

    print("\n   same oracle strictly inside the radius (scaled Koebe):")
    report = injectivity_oracle(koebe.dilate(0.112903), 0.999, 256)
    print(f"   verdict: {report.verdict}  ({report.note or 'no collision found'})")


if __name__ == "__main__":
    main()
