"""Stdlib-only check of ``MultiPoly.sum_of_products`` against Fraction arithmetic.

    PYTHONPATH=src python tests/multipoly_kernel_check.py

compares the integer kernel with a reference that multiplies and adds plain
dicts of ``Fraction`` coefficients.  It runs on seeded random sums (squares,
zero weights, zero and non-homogeneous operands, exponents past 2^8 and
2^16) and on the octic Delta = s01^2 - 4*s00*s11 of every golden
discriminant case, whose section it samples again from the golden seed and
bound.  It exits 1 on the first difference and needs nothing outside the
standard library, so it runs under any Python the package supports;
``tests/test_ratpoly.py`` runs it too.
"""

import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

from cybundle.chow import BundleSpec
from cybundle.discriminant import build_discriminant, sample_section
from cybundle.ratpoly import MultiPoly

GOLDEN_DIR = Path(__file__).parent / "golden"

# exponent pools: small, around the 8-bit and around the 16-bit field widths
EXPONENTS = (range(0, 4), range(254, 259), range(2 ** 16 - 2, 2 ** 16 + 2))


def reference(terms) -> dict:
    """Sum of w*a*b as a dict of nonzero Fractions, for (w, a, b) of MultiPoly."""
    out = {}
    for w, a, b in terms:
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + w * c1 * c2
    return {e: c for e, c in out.items() if c}


def coefficients(p: MultiPoly) -> dict:
    """p's coefficients as Fractions, after checking the storage rule."""
    if type(p.den) is not int or p.den <= 0:
        raise AssertionError(f"bad denominator {p.den!r}")
    if any(type(c) is not int or c == 0 for c in p.num.values()):
        raise AssertionError("a numerator is zero or not an int")
    if gcd(p.den, *p.num.values()) != 1:
        raise AssertionError("numerators and denominator share a factor")
    return p.terms


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


def check(seed: int = 0, count: int = 2000) -> int:
    """Compare the kernel with the reference; returns the number of sums."""
    checked = 0
    for name, q, coeffs in golden_sections():
        terms = ((1, q.s01, q.s01), (-4, q.s00, q.s11))
        if coefficients(MultiPoly.sum_of_products(terms)) != reference(terms):
            raise AssertionError(f"golden octic {name}: kernel and reference differ")
        if coefficients(build_discriminant(q).poly) != coeffs:
            raise AssertionError(f"golden octic {name}: differs from the golden file")
        checked += 1
    rng = Random(seed)
    for _ in range(count):
        terms = random_terms(rng)
        if coefficients(MultiPoly.sum_of_products(terms)) != reference(terms):
            raise AssertionError(f"sum differs: {terms!r}")
        checked += 1
    return checked


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    print(f"ok: {n} sums of products match Fraction arithmetic "
          f"under Python {sys.version.split()[0]}")
