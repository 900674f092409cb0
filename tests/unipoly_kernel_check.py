"""Stdlib-only check of the integer univariate kernels against Fraction references.

    PYTHONPATH=src python tests/unipoly_kernel_check.py

compares ``ratpoly.poly_gcd`` and ``ratpoly.rational_roots``, which take
int coefficient lists, with the Fraction versions they replaced: Euclid
through ``ref_divmod`` and a monic result, and the rational root test
through ``ref_evaluate`` over the sorted candidate set, both on lists of
Fraction coefficients (index = degree, no trailing zeros).  The kernels get
``ints(p)``, the rational polynomial times the lcm of its denominators, so
their inputs keep a content and a sign.  It runs on seeded polynomials of
degree <= 6: products of rational linear factors (repeated roots, roots at
0, negative and non-integral leading coefficients) with an irreducible
quadratic or none, and dense random ones.  Root lists are compared
exactly, order included; gcd(p, p'), gcd(p, q) with q sharing a random
factor with p, and gcds with the zero polynomial must be primitive int
lists with a positive leading coefficient, equal to the monic reference
times that coefficient.  It exits 1 on the first difference and needs
nothing outside the standard library, so it runs under any Python the
package supports; ``tests/test_ratpoly.py`` runs it too.
"""

import sys
from fractions import Fraction
from math import gcd, isqrt, lcm
from random import Random

from cybundle.ratpoly import derivative, poly_gcd, rational_roots


def trim(a: list) -> list:
    """a without its trailing zeros."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def mul(a: list, b: list) -> list:
    """The product; ints stay ints."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def ints(a: list) -> list:
    """The int coefficient list lcm(denominators) * a, content and sign kept."""
    den = lcm(1, *(c.denominator for c in a))
    return [int(c * den) for c in a]


def gcd_matches(got: list, want: list) -> bool:
    """got is a primitive int list with a positive leading coefficient and
    equals the monic reference want times that coefficient."""
    return (all(type(c) is int for c in got) and got[-1] > 0 and gcd(*got) == 1
            and [c * got[-1] for c in want] == got)


def ref_divmod(a: list, b: list) -> tuple:
    """Quotient and remainder of coefficient lists without trailing zeros,
    b nonzero; the remainder has no trailing zeros."""
    rem, q = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        q[k] = f = rem[-1] / b[-1]
        for i, c in enumerate(b):
            rem[k + i] -= f * c
        while rem and rem[-1] == 0:
            rem.pop()
    return q, rem


def ref_evaluate(a: list, x: Fraction) -> Fraction:
    return sum((c * x ** i for i, c in enumerate(a)), Fraction(0))


def ref_poly_gcd(a: list, b: list) -> list:
    """Monic gcd by Euclid over Fraction coefficients."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def ref_divisors(n: int) -> list:
    if n == 0:
        return [1]
    return sorted({d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})


def ref_rational_roots(p: list) -> list:
    """The roots at 0, then every candidate in ascending order, each tested
    and divided out by Fraction arithmetic for as long as it is a root."""
    if not p:
        raise ValueError("the zero polynomial has every root")
    k = 0
    while p[k] == 0:
        k += 1
    roots = [Fraction(0)] * k
    p = [Fraction(c) for c in p[k:]]
    if len(p) == 1:
        return roots
    denlcm = lcm(*(c.denominator for c in p))
    ints = [int(c * denlcm) for c in p]
    lead, const = ints[-1], ints[0]
    cands = set()
    for pn in ref_divisors(abs(const)):
        for qn in ref_divisors(abs(lead)):
            cands.add(Fraction(pn, qn))
            cands.add(Fraction(-pn, qn))
    for r in sorted(cands):
        while len(p) > 1 and ref_evaluate(p, r) == 0:
            p, rem = ref_divmod(p, [-r, 1])
            if rem:
                raise AssertionError(f"{r} is a root but leaves a remainder")
            roots.append(r)
    return roots


def random_scalar(rng: Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))


def irreducible_quadratic(rng: Random) -> list:
    """x^2 + b*x + c with a discriminant that is not a rational square."""
    while True:
        b, c = rng.randint(-5, 5), rng.randint(-5, 5)
        disc = b * b - 4 * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            return [c, b, 1]


def factored(rng: Random) -> list:
    """A scalar times rational linear factors, some repeated or at 0, and
    an irreducible quadratic or none; degree <= 6."""
    p = [random_scalar(rng)]
    quadratic = rng.random() < 0.5
    roots = []
    for _ in range(rng.randint(0, 4 if quadratic else 6)):
        if roots and rng.random() < 0.3:
            r = rng.choice(roots)
        elif rng.random() < 0.15:
            r = Fraction(0)
        else:
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        roots.append(r)
        p = mul(p, [-r, 1])
    return mul(p, irreducible_quadratic(rng)) if quadratic else p


def dense(rng: Random) -> list:
    """Random coefficients of degree <= 6; never the zero polynomial."""
    while True:
        p = trim([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(rng.randint(1, 7))])
        if p:
            return p


def random_poly(rng: Random) -> list:
    return dense(rng) if rng.random() < 0.25 else factored(rng)


def check(seed: int = 0, count: int = 2000) -> int:
    """Compare kernels and references on count polynomials; returns count."""
    rng = Random(seed)
    for _ in range(count):
        p = random_poly(rng)
        got, want = rational_roots(ints(p)), ref_rational_roots(p)
        if got != want or any(type(r) is not Fraction for r in got):
            raise AssertionError(f"rational_roots({ints(p)}): {got} != {want}")
        shared = factored(rng)
        q = mul(shared, random_poly(rng))
        pairs = ((ints(p), derivative(ints(p))), (mul(p, shared), q), (q, p), (p, []), ([], p))
        for a, b in pairs:
            a, b = ints(a), ints(b)
            got, want = poly_gcd(a, b), ref_poly_gcd(a, b)
            if not gcd_matches(got, want):
                raise AssertionError(f"poly_gcd({a}, {b}) = {got}, monic {want}")
    return count


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    print(f"ok: rational_roots and poly_gcd of {n} polynomials match the Fraction "
          f"references under Python {sys.version.split()[0]}")
