"""Stdlib-only check of Riemann-Roch on X against the invariant records.

    PYTHONPATH=src python tests/rr_check.py

For a divisor D = a*xi + b*H on the Calabi-Yau threefold X in |-K_Z|,
Z = P(E) over P^m with E of rank r, Hirzebruch-Riemann-Roch reads

    chi(X, D) = D^3/6 + c2.D/12,

with D^3 = a^3*xi3 + 3a^2*b*xi2_h + 3a*b^2*xi_h2 + b^3*h3 and
c2.D = a*xi_dot_c2 + b*h_dot_c2, all of them fields of the record of
``invariants_for``.  The sequence 0 -> O_Z(D + K_Z) -> O_Z(D) -> O_X(D) -> 0
gives the same number from the bundle alone:
chi(X, D) = chi(Z, D) - chi(Z, D + K_Z), with K_Z = -r*xi + (c1 - m - 1)*H,
and for a >= 0

    chi(Z, a*xi + b*H) = chi(P^m, Sym^a E (x) O(b)),

read from ``sym_power``, the reference ``twist`` of
``tests/bott_kernel_check.py`` and ``euler_characteristic`` below.  With
a >= r both terms have a >= 0, so no relative duality enters.  Both sides
are polynomials of degree <= 4 in (a, b), so five values of each prove the
identity for one spec: a polynomial of degree <= 4 in each variable that
vanishes on a 5 x 5 product grid is zero.

It runs on p3 (0,0)..(0,4) and on six p1 specs, each also twisted by every
t in -2..2 (a twisted spec is the same X in the basis xi + tH), at every
a in r..r+4 and b in -3..2: 1650 points, the 330 untwisted ones among
them.  It exits 1 on the first difference and needs nothing outside the
standard library, so it runs under any Python the package supports;
``tests/test_invariants.py`` runs it on the untwisted points.
"""

import sys
from math import factorial, prod

from bott_kernel_check import twist
from cybundle.chow import BundleSpec
from cybundle.cohomology import SplitBundle, sym_power
from cybundle.invariants import invariants_for

# (base_dim, degrees): the normalized p3 specs of gap <= 4 and six
# normalized p1 specs
SPECS = tuple((3, (0, b)) for b in range(5)) + tuple(
    (1, degrees)
    for degrees in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 1, 2),
                    (0, 1, 2, 3))
)


def euler_characteristic(b):
    """chi(b) via the binomial polynomial C(d+m, m) extended to all integers.

    For m = 3 this is (d+1)(d+2)(d+3)/6, valid for negative d as well, so it
    matches the alternating sum of the Bott dimensions without case splits.
    Each product of m consecutive integers is divisible by m!, so the sum is.
    """
    m = b.base_dim
    return sum(prod(range(d + 1, d + m + 1)) for d in b.degrees) // factorial(m)


def chi_z(e, a, b):
    """chi(Z, a*xi + b*H) for a >= 0: chi(P^m, Sym^a E (x) O(b))."""
    return euler_characteristic(twist(sym_power(e, a), b))


def check(specs=SPECS, twists=range(-2, 3)):
    """Compare both sides at every point; returns the number of points."""
    points = 0
    for m, degrees in specs:
        for t in twists:
            e = twist(SplitBundle(m, degrees), t)
            spec = BundleSpec.from_split(m, e.degrees)
            inv, r, c1 = invariants_for(spec), spec.rank, spec.c1
            for a in range(r, r + 5):
                for b in range(-3, 3):
                    d3 = (a ** 3 * inv.xi3 + 3 * a * a * b * inv.xi2_h
                          + 3 * a * b * b * inv.xi_h2 + b ** 3 * inv.h3)
                    c2_d = a * inv.xi_dot_c2 + b * inv.h_dot_c2
                    chi = chi_z(e, a, b) - chi_z(e, a - r, b + c1 - m - 1)
                    # D^3/6 + c2.D/12 = chi, times 12
                    if 2 * d3 + c2_d != 12 * chi:
                        raise AssertionError(
                            f"{degrees} on P^{m} twisted by {t}, D = {a}xi + {b}H: "
                            f"(2 D^3 + c2.D)/12 = {2 * d3 + c2_d}/12 != chi = {chi}"
                        )
                    points += 1
    return points


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    version = sys.version.split()[0]
    print(f"ok: Riemann-Roch on X holds at {n} points under Python {version}")
