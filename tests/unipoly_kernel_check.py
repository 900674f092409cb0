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
exactly, order included: ``rational_roots`` returns each root s/t as the
int pair (s, t) with t > 0, and the reference maps each of its Fraction
roots r to (r.numerator, r.denominator).  gcd(p, p'), gcd(p, q) with q
sharing a random factor with p, and gcds with the zero polynomial must be
primitive int lists with a positive leading coefficient, equal to the
monic reference times that coefficient.

It also compares ``kahler.rationality_analysis``, which reads the y = 1
chart and the power of y dividing w, with ``ref_rationality``, the
two-chart search it replaced: gcd(w, w') in the chart y = 1, then in the
reversed chart x = 1, then the rational roots of the y-chart, all by the
int kernels checked above.  The verdict and the double roots, each a point
[x, y] of P^1 as a primitive int pair with y > 0 or (1, 0), must be equal on
every nonzero cubic with coefficients in -6..6 and every product of three
nonzero linear forms with coefficients in -3..3 (139 152 cubics).

It exits 1 on the first difference and needs nothing outside the standard
library, so it runs under any Python the package supports;
``tests/test_ratpoly.py`` and ``tests/test_kahler.py`` run it on smaller
sizes.
"""

import sys
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from random import Random

from cybundle.kahler import CubicForm, Rationality, rationality_analysis
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
    and divided out by Fraction arithmetic for as long as it is a root;
    each root r is returned as the pair (r.numerator, r.denominator)."""
    if not p:
        raise ValueError("the zero polynomial has every root")
    k = 0
    while p[k] == 0:
        k += 1
    roots = [Fraction(0)] * k
    p = [Fraction(c) for c in p[k:]]
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
    return [(r.numerator, r.denominator) for r in roots]


def y_chart_point(root: tuple) -> tuple:
    """The root s/t = (s, t) of the chart y = 1 as the point [s : t]."""
    s, t = root
    return s, t


def x_chart_point(root: tuple) -> tuple:
    """The root s/t = (s, t) of the chart x = 1 as the point [t : s], a
    primitive int pair with y > 0, or (1, 0)."""
    s, t = root
    if s == 0:
        return 1, 0
    return (t, s) if s > 0 else (-t, -s)


def is_point(p) -> bool:
    """p is a primitive int pair (x, y) with y > 0, or (1, 0)."""
    x, y = p
    return (type(x) is int and type(y) is int and gcd(x, y) == 1
            and (y > 0 or (x, y) == (1, 0)))


def ref_rationality(w: tuple) -> tuple:
    """(verdict, double roots) of the cubic w = (w30, w21, w12, w03) by the
    two-chart search: in the chart y = 1, then in the reversed chart x = 1,
    a gcd(p, p') of degree >= 1 whose rational roots number its degree is
    a double line, each root mapped to its point; else the y-chart's
    rational roots and its degree drop (the power of y dividing w) either
    count 3 lines or not."""
    full = [c // gcd(*w) for c in reversed(w)]
    y = trim(full)
    for point, p in ((y_chart_point, y), (x_chart_point, trim(full[::-1]))):
        g = poly_gcd(p, derivative(p))
        if len(g) >= 2:
            roots = rational_roots(g)
            if len(roots) == len(g) - 1:
                return Rationality.RATIONAL_DOUBLE_LINE, tuple(map(point, roots))
    if len(rational_roots(y)) + 4 - len(y) == 3:
        return Rationality.RATIONAL_FACTORS, ()
    return Rationality.IRRATIONAL_OR_UNRESOLVED, ()


def rationality_grid(bound: int, linear_bound: int):
    """Every nonzero (w30, w21, w12, w03) with entries in -bound..bound,
    then every ordered product of three nonzero linear forms a*x + b*y
    with a, b in -linear_bound..linear_bound."""
    for w in product(range(-bound, bound + 1), repeat=4):
        if any(w):
            yield w
    span = range(-linear_bound, linear_bound + 1)
    forms = [f for f in product(span, repeat=2) if any(f)]
    for (a, b), (c, d), (e, f) in product(forms, repeat=3):
        q2, q1, q0 = a * c, a * d + b * c, b * d
        yield q2 * e, q2 * f + q1 * e, q1 * f + q0 * e, q0 * f


def check_rationality(bound: int = 6, linear_bound: int = 3) -> int:
    """Compare rationality_analysis with ref_rationality on the grid;
    returns the number of cubics."""
    n = 0
    for w in rationality_grid(bound, linear_bound):
        r = rationality_analysis(CubicForm(*w))
        got, want = (r.verdict, r.double_roots), ref_rationality(w)
        if got != want or not all(map(is_point, r.double_roots)):
            raise AssertionError(f"rationality_analysis{w}: {got} != {want}")
        n += 1
    return n


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
        if got != want or not all(type(s) is type(t) is int for s, t in got):
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
        n, cubics = check(), check_rationality()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    print(f"ok: rational_roots and poly_gcd of {n} polynomials and rationality_analysis "
          f"of {cubics} cubics match the references under Python {sys.version.split()[0]}")
