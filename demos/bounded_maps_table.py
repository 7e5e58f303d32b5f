#!/usr/bin/env python3
"""Univalent disks for bounded harmonic maps.

A harmonic map of the unit disk with |f| <= M and f(0) = 0, df(0) = dz
has every coefficient modulus |a_n| + |b_n| bounded by 4M/pi, so the
uniform-family radius machinery applies with c = 4M/pi.  The resulting
disk of univalence r_S and the guaranteed schlicht disk radius R_S
improve on two earlier comparison bounds phi and psi, evaluated here
at x = 8M/pi.

Prints the table in CSV form and the improvement ratios.
"""

from harmradius.bloch import (
    PRIOR_ESTIMATE_FACTOR,
    bloch_radius,
    bloch_table,
    bloch_table_csv,
    coefficient_bound,
)


def main() -> None:
    rows = bloch_table([1.0, 2.0, 3.0, 5.0, 10.0])
    print(bloch_table_csv(rows), end="")

    print("\nimprovement over the comparison bounds:")
    for row in rows:
        print(f"  M={row.M:<5} r_S/phi = {row.r_S / row.phi:6.3f}   "
              f"R_S/psi = {row.R_S / row.psi:6.3f}")

    print("\nschlicht disk vs the older fixed-constant estimate at M=1:")
    r_s, big_r = bloch_radius(1.0)
    print(f"  R_S        = {big_r:.6f}")
    print(f"  1/11.105   = {PRIOR_ESTIMATE_FACTOR:.6f}")
    print(f"  ratio      = {big_r * 11.105:.3f}x")

    print("\ncoefficient bound c = 4M/pi behind each row:")
    for M in (1.0, 2.0, 3.0):
        print(f"  M={M}: c = {coefficient_bound(M):.6f}")


if __name__ == "__main__":
    main()
