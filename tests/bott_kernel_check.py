"""Stdlib-only check of the Bott-rule kernels against per-summand references.

    PYTHONPATH=src python tests/bott_kernel_check.py

compares ``cohomology.cohomology`` with the sum of ``line_cohomology`` over
the line summands, one call per summand, and ``cohomology.sym_power`` with
the sorted degree sums over all non-decreasing index tuples.  With a twist
t, ``cohomology(b, i, t)`` is compared with the reference over the degrees
d + t and with ``cohomology(b.twist(t), i)``.  It runs on every p1 spec
that ``enumerate --base p1 --max-degree 20`` reports (1771 specs: Sym^4 E
at the twist 2 - c1, and ``invariants.picard_number`` against the closed
form 2 + sum of max(0, c1 - 3 - s) over the 4-fold degree sums s) and on
seeded random bundles on P^1 and P^3 whose degrees include the bisection
boundaries -m-1, -m, -1 and 0, for every index i in -1..m+1; an index
outside 0..m must raise ValueError.  Each random bundle is also checked at
every twist t in -m-3..m+3, next to a bundle whose degrees sit on the
shifted boundaries -m-1-t, -m-t, -1-t and -t.  It exits 1 on the first
difference and needs nothing outside the standard library, so it runs
under any Python the package supports; ``tests/test_cohomology.py`` runs
it too.
"""

import sys
from itertools import combinations_with_replacement, product
from random import Random

from cybundle.cli import _enumerate_specs
from cybundle.cohomology import SplitBundle, cohomology, line_cohomology, sym_power
from cybundle.invariants import picard_number


def ref_cohomology(m, degrees, i):
    """h^i summand by summand; None where the index is out of range."""
    if not 0 <= i <= m:
        return None
    total = 0
    for d in degrees:
        total += line_cohomology(m, d, i)
    return total


def ref_sym_power(degrees, k):
    """One degree sum per non-decreasing index tuple, i.e. per k-multiset."""
    return sorted(
        sum(degrees[j] for j in idx)
        for idx in product(range(len(degrees)), repeat=k)
        if list(idx) == sorted(idx)
    )


def kernel(b, i, *twist):
    """cohomology(b, i, *twist); None where it raises ValueError."""
    try:
        return cohomology(b, i, *twist)
    except ValueError:
        return None


def check_bundle(b):
    """Compare every index of b, and fail on the first difference."""
    m = b.base_dim
    if list(b.degrees) != sorted(b.degrees):
        raise AssertionError(f"degrees not sorted: {b!r}")
    for i in range(-1, m + 2):
        want, got = ref_cohomology(m, b.degrees, i), kernel(b, i)
        if got != want:
            raise AssertionError(f"h^{i} of {b!r}: {got} != reference {want}")


def check_twist(b, t):
    """Compare every index of b (x) O(t), taken by the twist argument and
    by the twisted bundle, with the reference over the degrees d + t."""
    m = b.base_dim
    for i in range(-1, m + 2):
        want = ref_cohomology(m, [d + t for d in b.degrees], i)
        got, via_bundle = kernel(b, i, t), kernel(b.twist(t), i)
        if got != want or via_bundle != want:
            raise AssertionError(
                f"h^{i} of {b!r} twisted by {t}: {got} (argument), "
                f"{via_bundle} (twisted bundle) != reference {want}"
            )


def check_sym_power(b, k):
    """sym_power(b, k) against the reference, then its cohomology."""
    s = sym_power(b, k)
    want = ref_sym_power(b.degrees, k)
    if s.base_dim != b.base_dim or list(s.degrees) != want:
        raise AssertionError(f"Sym^{k} of {b!r}: {s.degrees} != reference {want}")
    check_bundle(s)
    return s


def boundary_degrees(rng, m):
    """Up to six degrees, each a bisection boundary or a small integer."""
    pool = (-m - 2, -m - 1, -m, -1, 0, 1)
    return [
        rng.choice(pool) if rng.random() < 0.6 else rng.randint(-9, 9)
        for _ in range(rng.randint(1, 6))
    ]


def check(seed=0, count=2000, max_degree=20):
    """Run every comparison; returns the number of bundles checked."""
    checked = 0
    for spec in _enumerate_specs("p1", max_degree):
        degrees, c1 = spec.split_degrees, spec.c1
        check_twist(check_sym_power(SplitBundle(1, degrees), 4), 2 - c1)
        sums = map(sum, combinations_with_replacement(degrees, 4))
        want = 2 + sum(max(0, c1 - 3 - s) for s in sums)
        got = picard_number(spec)[0]
        if got != want:
            raise AssertionError(f"rho of {degrees}: {got} != closed form {want}")
        checked += 1
    rng = Random(seed)
    for n in range(count):
        m = (1, 3)[n % 2]
        b = SplitBundle(m, tuple(boundary_degrees(rng, m)))
        check_bundle(b)
        for t in range(-m - 3, m + 4):
            check_twist(b, t)
            # the same draw moved onto the boundaries shifted by -t
            check_twist(SplitBundle(m, tuple(d - t for d in b.degrees)), t)
        check_bundle(b.dual())
        check_sym_power(b, rng.randint(0, 4 if len(b.degrees) <= 4 else 2))
        checked += 1
    return checked


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    version = sys.version.split()[0]
    print(f"ok: {n} bundles match the per-summand references under Python {version}")
