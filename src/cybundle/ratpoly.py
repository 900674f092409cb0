"""Exact polynomial arithmetic over the rationals.

Two representations are used throughout the library:

* ``UniPoly`` -- dense univariate polynomials (coefficient list, index =
  degree) used for the cubic-form analysis on the two-dimensional divisor
  lattice.
* ``MultiPoly`` -- sparse homogeneous polynomials in the four coordinates
  z0..z3, used for the discriminant construction.

All coefficients are ``fractions.Fraction``; no floating point appears
anywhere in the library, so every equality test is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

Exponent = Tuple[int, int, int, int]

NVARS = 4


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class UniPoly:
    """Dense univariate polynomial with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: List[Fraction] = cs

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls([])

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "UniPoly":
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{d}")
        return "UniPoly(" + " + ".join(terms) + ")"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __getitem__(self, d: int) -> Fraction:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else Fraction(0)

    def evaluate(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * _frac(x) + c
        return acc

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return UniPoly([c / lead for c in self.coeffs])

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(q), UniPoly(rem)


def derivative(p: UniPoly) -> UniPoly:
    """Formal derivative."""
    return UniPoly([p.coeffs[d] * d for d in range(1, len(p.coeffs))])


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals by the Euclidean algorithm.

    Raises ValueError if both inputs are zero.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def rational_roots(p: UniPoly) -> List[Fraction]:
    """All rational roots of p, with multiplicity, via the rational root test.

    Input is cleared to integer coefficients first; candidates are p/q with
    p | constant term and q | leading coefficient.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    # strip x^k factor: root 0 with multiplicity k
    k = 0
    while p.coeffs[k] == 0:
        k += 1
    roots = [Fraction(0)] * k
    if k:
        p = UniPoly(p.coeffs[k:])
    if p.degree == 0:
        return roots
    denlcm = 1
    for c in p.coeffs:
        denlcm = denlcm * c.denominator // _gcd_int(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in p.coeffs]
    lead, const = ints[-1], ints[0]
    cands = set()
    for pn in _divisors(abs(const)):
        for qn in _divisors(abs(lead)):
            cands.add(Fraction(pn, qn))
            cands.add(Fraction(-pn, qn))
    for r in sorted(cands):
        while p.degree >= 1 and p.evaluate(r) == 0:
            p, rem = p.divmod(UniPoly([-r, 1]))
            assert rem.is_zero()
            roots.append(r)
    return roots


def _gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int) -> List[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials in z0..z3
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial in z0..z3; terms map exponent 4-tuples to Fractions.

    Zero-coefficient terms are never stored.  Helper predicates check
    homogeneity; the arithmetic itself works for any sparse polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponent, Fraction] | None = None) -> None:
        tm: Dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c != 0:
                    if len(e) != NVARS or any(x < 0 for x in e):
                        raise ValueError(f"bad exponent tuple {e!r}")
                    tm[tuple(e)] = c
        self.terms = tm

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def monomial(cls, exponent: Iterable[int], coeff=1) -> "MultiPoly":
        return cls({tuple(exponent): _frac(coeff)})

    @classmethod
    def variable(cls, i: int) -> "MultiPoly":
        e = [0] * NVARS
        e[i] = 1
        return cls.monomial(e)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree; -1 for zero."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        tm = dict(self.terms)
        for e, c in other.terms.items():
            tm[e] = tm.get(e, Fraction(0)) + c
        return MultiPoly(tm)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return MultiPoly({e: c * other for e, c in self.terms.items()})
        # clear denominators once so the inner loop runs on plain integers
        da = _denominator_lcm(self)
        db = _denominator_lcm(other)
        ai = [(e, int(c * da)) for e, c in self.terms.items()]
        bi = [(e, int(c * db)) for e, c in other.terms.items()]
        acc: Dict[Exponent, int] = {}
        for e1, c1 in ai:
            for e2, c2 in bi:
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                acc[e] = acc.get(e, 0) + c1 * c2
        den = da * db
        return MultiPoly({e: Fraction(v, den) for e, v in acc.items() if v})

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Fraction:
        pt = [_frac(x) for x in point]
        acc = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                for _ in range(k):
                    v *= x
            acc += v
        return acc

    def __repr__(self) -> str:
        return f"MultiPoly({to_canonical_text(self)})"


def _denominator_lcm(p: MultiPoly) -> int:
    lcm = 1
    for c in p.terms.values():
        d = c.denominator
        lcm = lcm * d // _gcd_int(lcm, d)
    return lcm


def multipoly_gradient(p: MultiPoly) -> Tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """Formal partial derivatives with respect to z0..z3."""
    parts = []
    for i in range(NVARS):
        tm: Dict[Exponent, Fraction] = {}
        for e, c in p.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                tm[tuple(ne)] = c * e[i]
        parts.append(MultiPoly(tm))
    return tuple(parts)  # type: ignore[return-value]


def monomials_of_degree(d: int) -> List[Exponent]:
    """All exponent tuples in z0..z3 of total degree d, graded-lex order."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            for c in range(d - a - b, -1, -1):
                out.append((a, b, c, d - a - b - c))
    return out


def _grlex_key(e: Exponent):
    # higher total degree first, then lexicographically larger exponent first
    return (-sum(e), tuple(-x for x in e))


def to_canonical_text(p: MultiPoly) -> str:
    """Canonical text form: graded-lex term order, coefficients as num/den.

    Example: ``3/1*z0^2*z1``.  The zero polynomial prints as ``0``.
    """
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.terms, key=_grlex_key):
        c = p.terms[e]
        factors = [f"{c.numerator}/{c.denominator}"]
        for i, k in enumerate(e):
            if k == 1:
                factors.append(f"z{i}")
            elif k > 1:
                factors.append(f"z{i}^{k}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def from_canonical_text(text: str) -> MultiPoly:
    """Inverse of to_canonical_text."""
    text = text.strip()
    if text == "0":
        return MultiPoly.zero()
    tm: Dict[Exponent, Fraction] = {}
    for term in text.split("+"):
        factors = term.strip().split("*")
        coeff = Fraction(factors[0])
        e = [0, 0, 0, 0]
        for f in factors[1:]:
            if "^" in f:
                var, pw = f.split("^")
                e[int(var[1:])] += int(pw)
            else:
                e[int(f[1:])] += 1
        key = tuple(e)
        tm[key] = tm.get(key, Fraction(0)) + coeff
    return MultiPoly(tm)
