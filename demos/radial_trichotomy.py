"""Radial solutions of the coupled power system across the exponent range.

The pair det D^2 u1 = (-u2)^a, det D^2 u2 = (-u1)^b on the unit ball in
dimension n has a sharp threshold at a * b = n^2: below it there is
exactly one radial convex solution, above it at least one, and exactly
at the threshold none, because a one-parameter scaling family pushes
every candidate toward zero or infinity.  The solver finds the
amplitudes from a 2x2 log-linear system whose determinant is n^2 - a*b,
so the threshold shows up as a singular system.  This script walks a
grid of exponent products and reports which regime each pair lands in.
"""

import numpy as np

from masym import NoSolution, solve_coupled_radial

N = 2
PAIRS = [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (1.5, 2.0), (2.0, 2.0),
         (1.0, 4.0), (2.0, 3.0), (3.0, 3.0), (2.0, 5.0)]


def main():
    print(f"dimension n = {N}, critical product n^2 = {N * N}")
    print(f"{'a':>5} {'b':>5} {'a*b':>6}  outcome")
    for a, b in PAIRS:
        res = solve_coupled_radial(a, b, N)
        if isinstance(res, NoSolution):
            drift = "zero" if res.drift_sign < 0 else "infinity"
            print(f"{a:5.1f} {b:5.1f} {a * b:6.2f}  no solution "
                  f"({res.reason}; amplitude drifts toward {drift})")
            continue
        u1, u2 = res
        regime = "unique" if a * b < N * N else "existing"
        print(f"{a:5.1f} {b:5.1f} {a * b:6.2f}  {regime} solution, "
              f"u1(0) = {u1(0.0):+.6f}, u2(0) = {u2(0.0):+.6f}")

    # the center values vary smoothly in the exponents away from the
    # threshold; show a small slice in b for fixed a
    print("\ncenter depth along b at a = 1:")
    for b in np.linspace(0.5, 3.5, 7):
        res = solve_coupled_radial(1.0, float(b), N)
        if isinstance(res, NoSolution):
            print(f"  b = {b:4.2f}: no solution")
        else:
            print(f"  b = {b:4.2f}: u1(0) = {res[0](0.0):+.6f}")


if __name__ == "__main__":
    main()
