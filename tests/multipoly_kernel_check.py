"""Stdlib-only check of ``MultiPoly.sum_of_products`` against Fraction arithmetic.

    PYTHONPATH=src python tests/multipoly_kernel_check.py

compares the integer kernel with a reference that multiplies and adds plain
dicts of ``Fraction`` coefficients.  It runs on

* the octic Delta = s01^2 - 4*s00*s11 of every golden discriminant case,
  whose section it samples again from the golden seed and bound;
* seeded random sums: squares, zero weights, zero and non-homogeneous
  operands, exponents past 2^8 and 2^16;
* discriminant-shaped sums: sections of degrees 0-8 at bounds 0, 1, 2 and
  1000, their squares, Delta and the twelve products of the gradient
  identity;
* homogeneous sums with (D+1)^3 = sum |a|*|b| - 1, + 0 and + 1 monomial
  pairs, on either side of the dense accumulator's size rule, and
  homogeneous operands of degree 2^16, which must stay on the packed one.

Each sum also checks which accumulator the size rule picks.  The script
then compares ``gradient_identity_holds``, which checks the four partials
field by field against the checks' own Delta(r0*q) over r0^2, with
``ref_gradient_identity``, the four separate ``sum_of_products`` identities
it replaced: on sections of p3 (0,0)..(0,4),
(1,3) and (-2,2) at bounds 0, 1, 2, 1000 and 10^6, each with its own octic
and with octics perturbed at 1 to 3 monomials by +-1 and by +-den in the
numerator.  On each of those sections it also compares that
Delta(r0*q), ``_check_delta()``, with ``ref_check_delta``, the same
product in Fraction arithmetic of the section scaled by r0 = 3/2.  It
also checks ``sample_section`` against ``ref_sample_section``,
which draws from ``_Lcg``, a generator object with the sampler's constants:
p3 (0,0)..(0,4) at seeds 0, -3, 2^64 + 5 and 10^23 and bounds 0, 1, 2, 1000
and ``MAX_SECTION_BOUND``.  And it checks ``to_canonical_text`` and
``Octic.to_json_coeffs``, which reduce and write each coefficient in one
walk of a table of each degree's monomials, against ``ref_canonical_text``
and ``ref_json_coeffs``, which sort and format every exponent and write
each coefficient through ``Fraction``: on homogeneous polynomials of
degrees 0-12, mixed-degree ones and zero.  And it checks
``value_and_gradient``, the one evaluation loop, which skips the terms that
vanish at a zero coordinate with their partials, and ``MultiPoly.evaluate``,
its value, against ``ref_value_and_gradient`` and ``ref_evaluate``, which
compute every term: at (1, 0, 0, 0), (0, 0, 0, 1) and rational points with
0 to 3 zero coordinates.  And it checks ``multipoly_gradient`` and the
product by an int or Fraction, which build each result's dict once,
already divided by its common factor with the denominator, against
``ref_gradient`` and ``ref_scalar_product``, which differentiate and scale
dicts of ``Fraction``: on the octics and sections of p3 (0,0)..(0,4) at
bounds 0, 1, 2, 1000 and 10^6, polynomials of degrees 9-12, mixed-degree
ones and zero, by the scalars 0, +-1, +-3/2, 7, -5/6 and 12, checking
each result's storage rule too.  It exits 1 on the first difference and needs
nothing outside the standard library, so it runs under any Python the
package supports; ``tests/test_ratpoly.py`` runs it too.
"""

import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random
from typing import Sequence, Tuple

from cybundle.chow import BundleSpec
from cybundle.discriminant import (
    _LCG_INC,
    _LCG_MASK,
    _LCG_MULT,
    MAX_SECTION_BOUND,
    Octic,
    build_discriminant,
    gradient_identity_holds,
    sample_section,
    witness_section,
)
from cybundle.invariants import section_degrees
from cybundle.ratpoly import (
    MultiPoly,
    _dense_degree,
    monomials_of_degree,
    multipoly_gradient,
    to_canonical_text,
    value_and_gradient,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

# exponent pools: small, around the 8-bit and around the 16-bit field widths
EXPONENTS = (range(0, 4), range(254, 259), range(2 ** 16 - 2, 2 ** 16 + 2))


# the constant 1 and the variables z0..z3, for sums and test inputs
ONE = MultiPoly({(0, 0, 0, 0): 1})
Z = [MultiPoly({tuple(int(k == i) for k in range(4)): 1}) for i in range(4)]


def as_fractions(p: MultiPoly) -> dict:
    """p's coefficients as a new dict of Fractions."""
    return {e: Fraction(c, p.den) for e, c in p.num.items()}


def reference(terms) -> dict:
    """Sum of w*a*b as a dict of nonzero Fractions, for (w, a, b) with a and
    b each a MultiPoly or a dict from exponent 4-tuples to rationals."""
    out = {}
    for w, a, b in terms:
        a, b = (as_fractions(p) if isinstance(p, MultiPoly) else p for p in (a, b))
        for e1, c1 in a.items():
            c1 *= w
            for e2, c2 in b.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def coefficients(p: MultiPoly) -> dict:
    """p's coefficients as Fractions, after checking the storage rule."""
    if type(p.den) is not int or p.den <= 0:
        raise AssertionError(f"bad denominator {p.den!r}")
    if any(type(c) is not int or c == 0 for c in p.num.values()):
        raise AssertionError("a numerator is zero or not an int")
    if gcd(p.den, *p.num.values()) != 1:
        raise AssertionError("numerators and denominator share a factor")
    return as_fractions(p)


def random_poly(rng: Random) -> MultiPoly:
    pool = rng.choice(EXPONENTS)
    terms = {}
    for _ in range(rng.randrange(6)):
        e = tuple(rng.choice(pool) if rng.random() < 0.5 else rng.randrange(3)
                  for _ in range(4))
        terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
    return MultiPoly(terms)


def random_terms(rng: Random) -> list:
    """Up to four (w, a, b); some square a term, some cancel an earlier one."""
    terms = []
    for _ in range(rng.randrange(5)):
        w, a = rng.randint(-3, 3), random_poly(rng)
        kind = rng.randrange(4)
        if kind == 0:
            terms.append((w, a, a))
        elif kind == 1 and terms:
            w0, a0, b0 = rng.choice(terms)
            terms.append((-w0, b0, a0))
        else:
            terms.append((w, a, random_poly(rng)))
    return terms


def golden_sections():
    """(name, section, golden coefficients) of every golden discriminant case."""
    for path in sorted(GOLDEN_DIR.glob("discriminant-*.stdout")):
        text = path.read_text(encoding="utf-8")
        if text.startswith("{"):
            payload = json.loads(text)
        else:  # the text format: one "key: json value" per line
            payload = {k: json.loads(v) for k, _, v in
                       (line.partition(": ") for line in text.splitlines())}
        spec = BundleSpec.from_split(3, tuple(payload["degrees"]))
        q = sample_section(spec, payload["seed"], payload["bound"])
        coeffs = {tuple(map(int, e.split(","))): Fraction(c)
                  for e, c in payload["octic_coeffs"].items()}
        yield path.name, q, coeffs


def section_poly(rng: Random, degree: int, bound: int) -> MultiPoly:
    """num/den on every monomial of the degree, num in [-bound, bound] and
    den in 1..4, as sample_section draws them."""
    return MultiPoly({e: Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
                      for e in monomials_of_degree(degree)})


def discriminant_sums(rng: Random, bounds: Sequence[int]):
    """The sums the discriminant makes, on sections of degrees (d, 4, 8 - d)
    for d in 0..4: Delta, the squares of the sections and the four sums of
    the gradient identity."""
    for bound in bounds:
        for d in range(5):
            s00, s01, s11 = (section_poly(rng, k, bound) for k in (d, 4, 8 - d))
            g00, g01, g11 = map(multipoly_gradient, (s00, s01, s11))
            yield ((1, s01, s01), (-4, s00, s11))
            yield ((1, s00, s00), (1, s11, s11))
            for i in range(4):
                yield ((2, s01, g01[i]), (-4, s11, g00[i]), (-4, s00, g11[i]))


def sparse_homogeneous(rng: Random, degree: int, size: int) -> MultiPoly:
    """``size`` distinct monomials of the degree with nonzero coefficients."""
    exps = rng.sample(monomials_of_degree(degree), size)
    return MultiPoly({e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))
                      for e in exps})


def boundary_sums(rng: Random):
    """(terms, dense): homogeneous products of degree D whose pair count
    sum |a|*|b| is (D+1)^3 + delta for delta in -1, 0, 1."""
    for degree in range(1, 7):
        for delta in (-1, 0, 1):
            left, terms = (degree + 1) ** 3 + delta, []
            while left:
                da = rng.randint(0, degree)
                na, nb = len(monomials_of_degree(da)), len(monomials_of_degree(degree - da))
                ka = rng.randint(1, min(na, left))
                if 2 * da == degree and ka * ka <= left and rng.random() < 0.3:
                    a = sparse_homogeneous(rng, da, ka)
                    terms.append((rng.randint(1, 3), a, a))
                    left -= ka * ka
                    continue
                kb = min(nb, left // ka)
                terms.append((rng.choice((-2, -1, 1, 2)), sparse_homogeneous(rng, da, ka),
                              sparse_homogeneous(rng, degree - da, kb)))
                left -= ka * kb
            yield terms, delta >= 0


def wide_homogeneous_sums(rng: Random):
    """Homogeneous operands of degree 2^16: the array would need 2^51 slots."""
    top = 2 ** 16
    for _ in range(5):
        a, b = (MultiPoly({(top - k, k, 0, 0): rng.randint(1, 5), (0, 0, top - k, k): -1,
                           (1, 1, 1, top - 3): Fraction(1, rng.randint(1, 5))})
                for k in (rng.randint(0, 3), rng.randint(0, 3)))
        yield ((1, a, b), (2, b, b), (-1, a, a))


GRADIENT_SPECS = ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (-2, 2))
GRADIENT_BOUNDS = (0, 1, 2, 1000, 10 ** 6)


def ref_gradient_identity(q, octic: Octic) -> bool:
    """The gradient identity as four sum_of_products identities, one per
    partial derivative."""
    g_delta = multipoly_gradient(octic.poly)
    g00, g01, g11 = map(multipoly_gradient, (q.s00, q.s01, q.s11))
    return all(
        g_delta[i] == MultiPoly.sum_of_products(
            ((2, q.s01, g01[i]), (-4, q.s11, g00[i]), (-4, q.s00, g11[i])))
        for i in range(4)
    )


def perturbed_octics(rng: Random, octic: Octic):
    """The octic with 1 to 3 numerators moved by +-1 and by +-den, each
    on monomials drawn from all 165 of degree 8."""
    mons = monomials_of_degree(8)
    den = octic.poly.den
    for step in (1, -1, den, -den):
        for count in (1, 2, 3):
            num = dict(octic.poly.num)
            for e in rng.sample(mons, count):
                num[e] = num.get(e, 0) + step
            yield Octic(MultiPoly._trusted({e: c for e, c in num.items() if c}, den))


def ref_check_delta(q) -> dict:
    """Delta(r0*q) for r0 = 3/2, the product both self-checks read, as
    ``reference`` computes it on the section's Fractions times 3/2."""
    s00, s01, s11 = ({e: c * Fraction(3, 2) for e, c in as_fractions(p).items()}
                     for p in (q.s00, q.s01, q.s11))
    return reference(((1, s01, s01), (-4, s00, s11)))


def check_gradient_identity(seed: int = 0, seeds_per_case: int = 2) -> Tuple[int, int]:
    """gradient_identity_holds against the reference on every spec and bound of
    GRADIENT_SPECS x GRADIENT_BOUNDS; returns (identities compared, of them
    true).  The true ones are exactly the unperturbed octics.  Each
    section's _check_delta(), which both checks read, is compared with
    ref_check_delta too."""
    rng = Random(seed)
    compared = held = 0
    for degrees in GRADIENT_SPECS:
        spec = BundleSpec.from_split(3, degrees)
        for bound in GRADIENT_BOUNDS:
            for _ in range(seeds_per_case):
                q = sample_section(spec, rng.randrange(2 ** 31), bound)
                if coefficients(q._check_delta()) != ref_check_delta(q):
                    raise AssertionError(f"_check_delta on {degrees} bound {bound} differs "
                                         "from Fraction arithmetic")
                octic = build_discriminant(q)
                for i, o in enumerate((octic, *perturbed_octics(rng, octic))):
                    got, want = gradient_identity_holds(q, o), ref_gradient_identity(q, o)
                    if got != want or want != (i == 0):
                        raise AssertionError(
                            f"gradient identity on {degrees} bound {bound}, octic {i} "
                            f"(0 = unperturbed): gradient_identity_holds {got}, reference {want}")
                    compared += 1
                    held += want
    return compared, held


class _Lcg:
    """64-bit linear congruential generator with sample_section's constants."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _LCG_MASK

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return self.state

    def next_int(self, lo: int, hi: int) -> int:
        return lo + (self.next_u64() >> 32) % (hi - lo + 1)


def ref_sample_section(spec: BundleSpec, seed: int, bound: int):
    """(s00, s01, s11) as dicts of nonzero Fractions: per monomial of each
    degree in graded-lex order, a numerator in [-bound, bound], then a
    denominator in 1..4, each from one _Lcg step."""
    rng = _Lcg(seed)
    out = []
    for degree in section_degrees(spec):
        draws = {e: (rng.next_int(-bound, bound), rng.next_int(1, 4))
                 for e in monomials_of_degree(degree)}
        out.append({e: Fraction(n, d) for e, (n, d) in draws.items() if n})
    return tuple(out)


SAMPLER_SEEDS = (0, -3, 2 ** 64 + 5, 10 ** 23)
SAMPLER_BOUNDS = (0, 1, 2, 1000, MAX_SECTION_BOUND)


def check_sampler() -> int:
    """sample_section against ref_sample_section on p3 (0,0)..(0,4) at every
    seed of SAMPLER_SEEDS and bound of SAMPLER_BOUNDS; returns the number of
    sections compared."""
    compared = 0
    for b in range(5):
        spec = BundleSpec.from_split(3, (0, b))
        for seed in SAMPLER_SEEDS:
            for bound in SAMPLER_BOUNDS:
                q = sample_section(spec, seed, bound)
                got = tuple(coefficients(p) for p in (q.s00, q.s01, q.s11))
                if got != ref_sample_section(spec, seed, bound):
                    raise AssertionError(f"sample_section on (0,{b}) seed {seed} bound "
                                         f"{bound} differs from the _Lcg reference")
                compared += 1
    return compared


def ref_coefficient_texts(p: MultiPoly) -> dict:
    """Each coefficient of p as Fraction(c, den) reduces it, written as
    ``n/d`` with d always shown."""
    return {e: f"{f.numerator}/{f.denominator}" for e, f in as_fractions(p).items()}


def ref_canonical_text(p: MultiPoly) -> str:
    """to_canonical_text by two stable sorts of p's exponents, every power
    formatted on its own."""
    if p.is_zero():
        return "0"
    coeffs = ref_coefficient_texts(p)
    parts = []
    for e in sorted(sorted(coeffs, reverse=True), key=sum, reverse=True):
        parts.append(coeffs[e] + "".join(f"*z{i}" if k == 1 else f"*z{i}^{k}"
                                         for i, k in enumerate(e) if k))
    return " + ".join(parts)


def ref_json_coeffs(p: MultiPoly) -> dict:
    return {f"{e0},{e1},{e2},{e3}": t for (e0, e1, e2, e3), t in ref_coefficient_texts(p).items()}


def check_renderer(seed: int = 0, count: int = 20) -> int:
    """to_canonical_text against ref_canonical_text, and Octic.to_json_coeffs
    against ref_json_coeffs for the octics among them, on ``count`` seeded
    homogeneous polynomials of each degree 0..12 (every monomial, or a
    random subset), as many of mixed degrees, and zero; returns the number
    of polynomials compared."""
    rng = Random(seed)

    def poly(exps) -> MultiPoly:
        return MultiPoly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in exps})

    polys = [MultiPoly()]
    for degree in range(13):
        mons = monomials_of_degree(degree)
        polys.append(poly(mons))
        polys += [poly(rng.sample(mons, rng.randint(1, len(mons)))) for _ in range(count - 1)]
    for _ in range(count):
        polys.append(poly(rng.choice(monomials_of_degree(rng.randint(0, 12)))
                          for _ in range(rng.randint(2, 30))))
    for p in polys:
        if to_canonical_text(p) != ref_canonical_text(p):
            raise AssertionError(f"to_canonical_text differs from the reference on {p.num!r}")
        if set(map(sum, p.num)) <= {8}:  # zero or a homogeneous octic
            if Octic(p).to_json_coeffs() != ref_json_coeffs(p):
                raise AssertionError(f"to_json_coeffs differs from the reference on {p.num!r}")
    return len(polys)


def ref_partial(a: dict, i: int) -> dict:
    """d/dz_i of a dict from exponent 4-tuples to rationals, as a new dict."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def ref_evaluate(a: dict, point) -> Fraction:
    """a at the point in Fraction arithmetic, every term computed: no term
    is skipped at a zero coordinate."""
    point, total = [Fraction(x) for x in point], Fraction(0)
    for e, c in a.items():
        for x, k in zip(point, e):
            c *= x ** k
        total += c
    return total


def ref_value_and_gradient(p: MultiPoly, point) -> tuple:
    """p and its four ref_partial derivatives at the point, by ref_evaluate."""
    a = as_fractions(p)
    return ref_evaluate(a, point), tuple(ref_evaluate(ref_partial(a, i), point)
                                         for i in range(4))


def zero_coordinate_points(rng: Random, count: int) -> list:
    """(1, 0, 0, 0), (0, 0, 0, 1), then ``count`` points with each number
    0..3 of zero coordinates, at random places; the other coordinates are
    nonzero rationals."""
    points = [(1, 0, 0, 0), (0, 0, 0, 1)]
    for zeros in range(4):
        for _ in range(count):
            pt = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                  for _ in range(4)]
            for i in rng.sample(range(4), zeros):
                pt[i] = 0
            points.append(tuple(pt))
    return points


def check_evaluation(seed: int = 0, count: int = 3) -> int:
    """``value_and_gradient``, which skips the terms that vanish at a point's
    zero coordinates, and ``MultiPoly.evaluate``, its value, against
    ref_value_and_gradient, which computes every term, for exact
    equality: on zero, sparse and dense homogeneous polynomials of degrees
    0-8, mixed-degree ones, and the octics of sampled sections and of their
    witness sections, each at the points of zero_coordinate_points; returns
    the number of (polynomial, point) pairs compared."""
    rng = Random(seed)
    polys = [MultiPoly()]
    for degree in range(9):
        polys.append(section_poly(rng, degree, 9))
        polys += [sparse_homogeneous(rng, degree, rng.randint(1, len(monomials_of_degree(degree))))
                  for _ in range(2)]
    for _ in range(count):
        polys.append(MultiPoly.sum_of_products(
            (1, sparse_homogeneous(rng, d, rng.randint(1, 2 * d + 1)), ONE)
            for d in rng.sample(range(9), 3)))
    for b in range(5):
        q = sample_section(BundleSpec.from_split(3, (0, b)), rng.randrange(2 ** 31), 2)
        polys += [build_discriminant(q).poly, build_discriminant(witness_section(q)).poly]
    points = zero_coordinate_points(rng, count)
    for p in polys:
        for point in points:
            value, gradient = got = value_and_gradient(p, point)
            want = ref_value_and_gradient(p, point)
            if got != want or p.evaluate(point) != want[0]:
                raise AssertionError(f"evaluation at {point} differs from the reference "
                                     f"on {p.num!r}")
            if not all(type(x) is Fraction for x in (value, *gradient)):
                raise AssertionError(f"evaluation at {point} returned a non-Fraction")
    return len(polys) * len(points)


def ref_gradient(p: MultiPoly) -> tuple:
    """The four partials of p as dicts of nonzero Fractions, by ref_partial."""
    a = as_fractions(p)
    return tuple(ref_partial(a, i) for i in range(4))


def ref_scalar_product(p: MultiPoly, s) -> dict:
    """p times the rational s as a dict of nonzero Fractions."""
    return {e: c * s for e, c in as_fractions(p).items() if c * s}


CONSTRUCTION_BOUNDS = (0, 1, 2, 1000, MAX_SECTION_BOUND)
# 12 shares factors with the sections' den 12 and with their content
SCALARS = (0, 1, -1, Fraction(3, 2), Fraction(-3, 2), 7, Fraction(-5, 6), 12)


def construction_inputs(rng: Random, count: int) -> list:
    """Zero; the octic and the three components of a sampled section of p3
    (0,0)..(0,4) at each bound of CONSTRUCTION_BOUNDS; ``count`` dense and
    ``count`` sparse homogeneous polynomials of each degree 9-12; and
    ``count`` mixed-degree ones."""
    polys = [MultiPoly()]
    for b in range(5):
        for bound in CONSTRUCTION_BOUNDS:
            q = sample_section(BundleSpec.from_split(3, (0, b)), rng.randrange(2 ** 31), bound)
            polys += [build_discriminant(q).poly, q.s00, q.s01, q.s11]
    for degree in range(9, 13):
        for _ in range(count):
            polys.append(section_poly(rng, degree, 9))
            polys.append(sparse_homogeneous(rng, degree, rng.randint(1, 40)))
    for _ in range(count):
        polys.append(MultiPoly.sum_of_products(
            (1, sparse_homogeneous(rng, d, rng.randint(1, 2 * d + 1)), ONE)
            for d in rng.sample(range(13), 3)))
    return polys


def check_constructions(seed: int = 0, count: int = 2) -> Tuple[int, int]:
    """``multipoly_gradient`` against ref_gradient, and ``MultiPoly.__mul__``
    by each scalar of SCALARS, from either side, against
    ref_scalar_product, on construction_inputs; each of them builds its
    dicts in lowest terms at once, which ``coefficients`` checks.  Returns
    (gradients compared, scalar products compared)."""
    polys = construction_inputs(Random(seed), count)
    products = 0
    for p in polys:
        if tuple(map(coefficients, multipoly_gradient(p))) != ref_gradient(p):
            raise AssertionError(f"multipoly_gradient differs from the reference on {p.num!r}")
        for s in SCALARS:
            want = ref_scalar_product(p, s)
            if coefficients(p * s) != want or coefficients(s * p) != want:
                raise AssertionError(f"the product by {s} differs from the reference "
                                     f"on {p.num!r}")
            products += 1
    return len(polys), products


def check(
    seed: int = 0, count: int = 2000, bounds: Sequence[int] = (0, 1, 2, 1000)
) -> Tuple[int, int]:
    """Compare the kernel with the reference on the golden octics, ``count``
    random sums and the discriminant-shaped sums at each of ``bounds``;
    returns the number of sums and how many took the dense accumulator."""
    checked = dense = 0

    def compare(terms, what: str, want_dense=None) -> None:
        nonlocal checked, dense
        if coefficients(MultiPoly.sum_of_products(terms)) != reference(terms):
            raise AssertionError(f"{what}: kernel and reference differ: {terms!r}")
        kept = [(w, a, b) for w, a, b in terms if w and a.num and b.num]
        is_dense = bool(kept) and _dense_degree(kept) is not None
        if kept and want_dense is not None and is_dense != want_dense:
            raise AssertionError(f"{what}: dense accumulator {'not ' * want_dense}taken")
        checked += 1
        dense += is_dense

    for name, q, coeffs in golden_sections():
        compare(((1, q.s01, q.s01), (-4, q.s00, q.s11)), f"golden octic {name}", True)
        if coefficients(build_discriminant(q).poly) != coeffs:
            raise AssertionError(f"golden octic {name}: differs from the golden file")
    rng = Random(seed)
    for _ in range(count):
        compare(random_terms(rng), "random sum")
    for terms in discriminant_sums(rng, bounds):
        compare(terms, "discriminant-shaped sum")
    for terms, want in boundary_sums(rng):
        compare(terms, "sum at the size rule", want)
    for terms in wide_homogeneous_sums(rng):
        compare(terms, "degree 2^16 sum", False)
    return checked, dense


if __name__ == "__main__":
    try:
        n, n_dense = check()
        n_grad, n_held = check_gradient_identity(seeds_per_case=6)
        n_sampled, n_rendered = check_sampler(), check_renderer()
        n_evaluated = check_evaluation()
        n_gradients, n_scaled = check_constructions()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    print(f"ok: {n} sums of products match Fraction arithmetic "
          f"({n_dense} on the dense accumulator), {n_grad} gradient identities "
          f"({n_held} true) match the four-product form and their sections' "
          f"Delta(r0*q) Fraction arithmetic, {n_sampled} sections match "
          f"the _Lcg sampler, {n_rendered} renderings the sorting renderer and "
          f"{n_evaluated} evaluations the term-by-term reference, and "
          f"{n_gradients} gradients and {n_scaled} scalar products Fraction "
          f"arithmetic under Python {sys.version.split()[0]}")
