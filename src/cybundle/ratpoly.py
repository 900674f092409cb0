"""Exact polynomial arithmetic over the rationals.

Two representations are used throughout the library:

* int coefficient lists (index = degree, no trailing zeros) for the
  cubic-form analysis on the divisor lattice; ``derivative``, ``poly_gcd``
  and ``rational_roots`` are their algebra.
* ``MultiPoly`` -- sparse polynomials in the four coordinates z0..z3 for
  the discriminant construction, with products and evaluation.

``UniPoly`` is a ``fractions.Fraction`` coefficient list with ``-`` and
value equality, for library callers; ``MultiPoly`` keeps integer numerators
over one common denominator in lowest terms.  No floating point appears
anywhere in the library, so every equality test is exact.  ``Fraction`` is
read through ``_value.fractions``, which imports the module on its first
read: a request that builds no UniPoly and scales or evaluates no MultiPoly
(every command but ``discriminant``) never loads ``fractions``.

``poly_gcd`` runs Euclid on primitive pseudo-remainders and returns the
primitive gcd (content divided out, leading coefficient positive);
``rational_roots`` tests each root candidate s/t by the integer
t^n * a(s/t) and returns each root as the int pair (s, t).

Every product of two ``MultiPoly`` goes through one integer kernel,
``MultiPoly.sum_of_products``, which computes a sum of w*a*b with int
weights w in one pass over integer exponent keys.  The accumulator it fills
is read from the operands alone: when every operand is homogeneous, every
product has one degree D and the products have at least (D+1)^3 monomial
pairs in all -- as every product the discriminant makes does -- a flat list
of (D+1)^3 ints; otherwise (mixed degrees, sparse or huge-degree operands)
a dict keyed by packed exponents.  The keys never leave the kernel: ``num``
stays keyed by exponent 4-tuples, and the flat list is read back by one
walk of the degree-D monomials in graded-lex order, each with its slot,
from a table built on the first read-back of degree D for D up to 8.
``multipoly_gradient`` reads the four shifted exponents e - 1_i of each
term from a table built on the first gradient of its degree up to 8, and
builds each partial's dict once, already in lowest terms, as the product
by a scalar builds its one.  One loop evaluates, ``value_and_gradient``:
it drops the terms that vanish with all their first partials at the
point's zero coordinates and makes one pass over the rest (an octic at
(1, 0, 0, 0) keeps at most 4 of its 165), or returns zeros at once when
none is left; ``MultiPoly.evaluate`` is its value.  One walk renders:
``to_canonical_text`` writes each coefficient it meets in a walk of that
order as ``n/d`` in lowest terms, reading each monomial's text from a
table built for its degree on the first render.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from functools import cache, cmp_to_key
from itertools import zip_longest
from math import gcd, lcm
from operator import index

from ._value import fractions

Exponent = tuple[int, int, int, int]

NVARS = 4


class UniPoly:
    """Rational coefficient list without trailing zeros; of arithmetic it
    keeps only ``-``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        F = fractions.Fraction
        cs = [c if isinstance(c, F) else F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: list[fractions.Fraction] = cs

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly([a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])


def derivative(a: list[int]) -> list[int]:
    """Formal derivative of an int coefficient list (index = degree)."""
    return [a[d] * d for d in range(1, len(a))]


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their content, the leading coefficient made positive."""
    g = gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [-c // g for c in ints]


def _integer_coeffs(coeffs: Sequence) -> list[int]:
    """The primitive integer multiple of a nonzero list of ints or
    Fractions; an int is its own numerator over denominator 1."""
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two int coefficient lists, leading coefficient
    positive, by the Euclidean algorithm on primitive pseudo-remainders.

    Over the rationals it is the gcd up to a unit.  Raises ValueError if
    both inputs are zero or either ends in a zero.
    """
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    if a[-1:] == [0] or b[-1:] == [0]:
        raise ValueError("coefficient lists must have no trailing zeros")
    f = _primitive(a) if a else []
    g = _primitive(b) if b else []
    while g:
        # lead^k * f modulo g; each step cancels the top coefficient of r
        r, d, lead = f, len(g) - 1, g[-1]
        while len(r) > d:
            c, k = r[-1], len(r) - 1 - d
            r = [x * lead for x in r[:k]] + [x * lead - c * y for x, y in zip(r[k:], g)]
            while r and r[-1] == 0:
                r.pop()
        f, g = g, _primitive(r) if r else []
    return f


def rational_roots(a: list[int]) -> list[tuple[int, int]]:
    """All rational roots of an int coefficient list a_0..a_n, with
    multiplicity, via the rational root test; a root s/t is the coprime int
    pair (s, t) with t > 0, and a root at 0 is (0, 1).

    The order is fixed: the roots at 0 first, then the others ascending by
    value, compared exactly as s1*t2 against s2*t1.  After the power of x
    is divided out, a candidate s/t in lowest terms, with s | a_0 and
    t | a_n, is a root when the integer t^n * a(s/t) vanishes, and t*x - s
    then divides a exactly in integers (Gauss's lemma).  [] or a list
    ending in 0 raises ValueError.
    """
    if not a:
        raise ValueError("the zero polynomial has every root")
    if a[-1] == 0:
        raise ValueError("coefficient lists must have no trailing zeros")
    # strip x^k factor: root 0 with multiplicity k
    k = 0
    while a[k] == 0:
        k += 1
    roots, a = [(0, 1)] * k, a[k:]
    if len(a) == 1:
        return roots
    heads, found = _divisors(abs(a[0])), []
    for t in _divisors(abs(a[-1])):
        for s0 in heads:
            if gcd(s0, t) != 1:
                continue
            for s in (s0, -s0):
                while len(a) > 1 and _scaled_value(a, s, t) == 0:
                    a = _divide_linear(a, s, t)
                    found.append((s, t))
    return roots + sorted(found, key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))


def _scaled_value(a: list[int], s: int, t: int) -> int:
    """t^n * a(s/t) for the integer coefficients a_0..a_n, by Horner."""
    acc, tp = a[-1], 1
    for c in a[-2::-1]:
        tp *= t
        acc = acc * s + c * tp
    return acc


def _divide_linear(a: list[int], s: int, t: int) -> list[int]:
    """The quotient of a by t*x - s, a factor of a in integers: q_(i-1) =
    (a_i + s*q_i) / t from the top down."""
    q, acc = [], 0
    for c in a[:0:-1]:
        acc = (c + s * acc) // t
        q.append(acc)
    return q[::-1]


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _low_order_terms(p: MultiPoly, zeros: Sequence[bool], order: int) -> dict[Exponent, int]:
    """p's terms whose exponents on the coordinates flagged in ``zeros`` sum
    to less than ``order``."""
    z0, z1, z2, z3 = zeros
    return {e: c for e, c in p.num.items() if z0 * e[0] + z1 * e[1] + z2 * e[2] + z3 * e[3] < order}


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials in z0..z3
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse polynomial in z0..z3 with rational coefficients.

    Stored as integer numerators over one common denominator, in lowest
    terms: ``num`` maps exponent 4-tuples to nonzero ``int`` numerators,
    ``den`` is a positive ``int``, and gcd(content, den) = 1, so equal
    polynomials have equal storage.  Products and evaluation work for any
    sparse polynomial; there is no ``+`` or ``-``, since every sum the
    library forms is a ``sum_of_products``.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: Mapping[Exponent, fractions.Fraction] | None = None) -> None:
        tm: dict[Exponent, fractions.Fraction] = {}
        if terms:
            F = fractions.Fraction
            for e, c in terms.items():
                if not isinstance(c, F):
                    c = F(c)
                if c != 0:
                    if len(e) != NVARS or any(index(x) < 0 for x in e):
                        raise ValueError(f"bad exponent tuple {e!r}")
                    tm[tuple(e)] = c
        # over the lcm of reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for c in tm.values()))
        self.num = {e: c.numerator * (den // c.denominator) for e, c in tm.items()}
        self.den = den

    @classmethod
    def _trusted(cls, num: dict[Exponent, int], den: int) -> "MultiPoly":
        """Wrap integer numerators with valid exponents and no zero entry over
        ``den`` > 0, dividing out their common factor with ``den``."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        return cls._lowest(num, den)

    @classmethod
    def _lowest(cls, num: dict[Exponent, int], den: int) -> "MultiPoly":
        """Wrap storage that is already in lowest terms: ``_trusted``'s
        input with gcd(den, *num.values()) = 1.  Nothing checks it."""
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    def is_zero(self) -> bool:
        return not self.num

    def total_degree(self) -> int:
        """Max total degree; -1 for zero."""
        return max(map(sum, self.num), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and (self.den, self.num) == (other.den, other.num)

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __mul__(self, other) -> "MultiPoly":
        """The product with a MultiPoly (sum_of_products), or with an int or
        Fraction a/b.  The scalar product reads its common factor first:
        g = gcd(den*b, a*content), content the gcd of the numerators, so
        its one dict holds c*a // g over den*b // g, in lowest terms."""
        if isinstance(other, MultiPoly):
            return MultiPoly.sum_of_products(((1, self, other),))
        if not isinstance(other, (int, fractions.Fraction)):
            return NotImplemented
        if not other:
            return MultiPoly()
        a, den = other.numerator, self.den * other.denominator
        g = gcd(den, a * gcd(*self.num.values()))
        return MultiPoly._lowest({e: c * a // g for e, c in self.num.items()}, den // g)

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(
        cls, terms: Iterable[tuple[int, "MultiPoly", "MultiPoly"]]
    ) -> "MultiPoly":
        """The exact sum of w*a*b over ``terms`` of (int w, a, b), in one pass.

        The products accumulate as integers over the common denominator
        lcm(a.den * b.den), each monomial pair added at the sum of its two
        keys; a term whose a is b visits each unordered pair once.  Which
        accumulator serves a call is read from its nonzero operands alone:

        * dense: every a and b is homogeneous, every a*b has one degree D,
          and (D+1)^3 <= sum |a|*|b|, so the array is no larger than the
          pair loop that fills it.  A flat list of (D+1)^3 ints, indexed
          by e1 + B*e2 + B^2*e3 with B = D + 1, read back by one walk of
          _slot_table(D), each monomial of degree D in graded-lex order
          with its slot: a table built on first use for D up to 8, one
          built per call above.
        * packed: anything else.  A dict keyed by four ``width``-bit fields,
          with 2^width above twice the largest exponent of any operand.

        Both keys are additive in the exponents with no carry across a
        field, so the key of a product monomial is the sum of the keys of
        its factors.
        """
        terms = [(w, a, b) for w, a, b in terms if w and a.num and b.num]
        if not terms:
            return cls()
        den = lcm(*(a.den * b.den for _, a, b in terms))
        degree = _dense_degree(terms)
        if degree is None:
            top = max(max(map(max, p.num)) for _, a, b in terms for p in (a, b))
            width = (2 * top).bit_length()

            def keyed(p: "MultiPoly") -> list[tuple[int, int]]:
                return [(((e0 << width | e1) << width | e2) << width | e3, c)
                        for (e0, e1, e2, e3), c in p.num.items()]

            acc = defaultdict(int)
        else:
            b1 = degree + 1
            b2 = b1 * b1

            def keyed(p: "MultiPoly") -> list[tuple[int, int]]:
                return [(e1 + b1 * e2 + b2 * e3, c) for (_, e1, e2, e3), c in p.num.items()]

            acc = [0] * (b2 * b1)
        _accumulate(acc, [(w * (den // (a.den * b.den)), ka := keyed(a),
                           ka if b is a else keyed(b)) for w, a, b in terms])
        if degree is None:
            mask = (1 << width) - 1
            num = {
                (k >> 3 * width, k >> 2 * width & mask, k >> width & mask, k & mask): c
                for k, c in acc.items()
                if c
            }
        else:
            slots = _dense_slots(degree) if degree < len(_MONOMIALS) else _slot_table(degree)
            num = {e: c for e, k in slots if (c := acc[k])}
        return cls._trusted(num, den)

    def evaluate(self, point: Sequence) -> fractions.Fraction:
        """The value at a point of P^3 given by 4 rational coordinates: the
        value of value_and_gradient's one pass, its partials unused."""
        return value_and_gradient(self, point)[0]

    def __repr__(self) -> str:
        return f"MultiPoly({to_canonical_text(self)})"


def _homogeneous_degree(p: MultiPoly) -> int | None:
    """The degree of a nonzero homogeneous p; None if p mixes degrees."""
    degrees = set(map(sum, p.num))
    return degrees.pop() if len(degrees) == 1 else None


def _accumulate(acc, terms) -> None:
    """Add f*a*b to ``acc`` for each (int f, a, b) of ``terms``, a and b lists
    of (key, int coefficient), a monomial pair at the sum of its keys; a term
    whose a is b visits each unordered pair once.  See sum_of_products."""
    for f, a, b in terms:
        if a is b:
            for i, (ka, ca) in enumerate(a):
                acc[ka + ka] += f * ca * ca
                ca *= 2 * f
                for kb, cb in a[i + 1:]:
                    acc[ka + kb] += ca * cb
        else:
            for ka, ca in a:
                ca *= f
                for kb, cb in b:
                    acc[ka + kb] += ca * cb


def _dense_degree(terms) -> int | None:
    """The output degree D when the nonzero ``terms`` of sum_of_products
    take its dense accumulator: every operand homogeneous, every product
    of degree D, and (D+1)^3 at most the number of monomial pairs."""
    out, pairs = None, 0
    for _, a, b in terms:
        da = _homogeneous_degree(a)
        db = da if b is a else _homogeneous_degree(b)
        if da is None or db is None or out not in (None, da + db):
            return None
        out = da + db
        pairs += len(a.num) * len(b.num)
    return out if (out + 1) ** 3 <= pairs else None


def multipoly_gradient(p: MultiPoly) -> tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """Formal partial derivatives with respect to z0..z3, in one pass.

    The term c*z^e adds e_i*c at e - 1_i to the i-th partial.  The shifted
    exponents e - 1_i come from _shift_table when p's first term has a
    degree up to 8, and are built per term otherwise, or for a term the
    table lacks (p mixes degrees).  Each partial's keys and values are
    collected in two lists; its common factor g = gcd(den, *values) is
    read from them, and its one dict is built already divided by g, in
    lowest terms (an octic of den 144 has g = 2 or 4 in every partial)."""
    k0, k1, k2, k3 = keys = ([], [], [], [])
    v0, v1, v2, v3 = values = ([], [], [], [])
    degree = sum(next(iter(p.num), ()))
    table = _shift_table(degree) if degree < len(_MONOMIALS) else {}
    for e, c in p.num.items():
        e0, e1, e2, e3 = e
        f0, f1, f2, f3 = table.get(e) or _shifted(e)
        if e0:
            k0.append(f0)
            v0.append(c * e0)
        if e1:
            k1.append(f1)
            v1.append(c * e1)
        if e2:
            k2.append(f2)
            v2.append(c * e2)
        if e3:
            k3.append(f3)
            v3.append(c * e3)
    den, parts = p.den, []
    for ks, vs in zip(keys, values):
        g = gcd(den, *vs)
        parts.append(MultiPoly._lowest(
            dict(zip(ks, vs if g == 1 else [c // g for c in vs])), den // g))
    return tuple(parts)  # type: ignore[return-value]


def _shifted(e: Exponent) -> tuple[Exponent | None, ...]:
    """e - 1_i for i = 0..3, None where e_i = 0: where the term at e lands
    in each partial."""
    e0, e1, e2, e3 = e
    return ((e0 - 1, e1, e2, e3) if e0 else None, (e0, e1 - 1, e2, e3) if e1 else None,
            (e0, e1, e2 - 1, e3) if e2 else None, (e0, e1, e2, e3 - 1) if e3 else None)


def value_and_gradient(
    p: MultiPoly, point: Sequence
) -> tuple[fractions.Fraction, tuple[fractions.Fraction, ...]]:
    """p and its four partials at a point, in one pass over p's live terms.

    The partials are those of ``multipoly_gradient(p)``, without building
    them, and ``p.evaluate(point)`` is the value.  A term whose exponents
    on the point's zero coordinates sum to 2 or more vanishes there with
    all four partials, so the pass skips it: at (1, 0, 0, 0) only the terms
    z0^8 and z0^7*z_i of an octic are left.  With no term left, the value
    and the partials are zero, returned without the pass: at (1, 0, 0, 0)
    the discriminant command's witness keeps none, in its Delta and in
    its three section values.  At the point (n0, n1, n2,
    n3)/q, q the lcm of the coordinates' denominators and D the largest
    degree of the terms left, all five sums are taken over den * q^D: c*z^e
    adds c * n^e * q^(D - |e|) to the value and c * e_i * n^(e - 1_i) *
    q^(D + 1 - |e|) to the i-th partial.
    """
    F = fractions.Fraction
    pt = [x if isinstance(x, F) else F(x) for x in point]
    if len(pt) != NVARS:
        raise ValueError("a point of P^3 has 4 coordinates")
    q = lcm(*(x.denominator for x in pt))
    bases = [x.numerator * (q // x.denominator) for x in pt]
    live = _low_order_terms(p, [not b for b in bases], 2)
    if not live:
        zero = F(0)
        return zero, (zero, zero, zero, zero)
    top = max(map(sum, live))
    p0, p1, p2, p3, pq = ([b**k for k in range(top + 2)] for b in (*bases, q))
    v = g0 = g1 = g2 = g3 = 0
    for (e0, e1, e2, e3), c in live.items():
        c *= pq[top - e0 - e1 - e2 - e3]
        x0, x1, x2, x3 = p0[e0], p1[e1], p2[e2], p3[e3]
        x01, x23 = x0 * x1, x2 * x3
        v += c * x01 * x23
        c *= pq[1]
        if e0:
            g0 += c * e0 * p0[e0 - 1] * x1 * x23
        if e1:
            g1 += c * e1 * p1[e1 - 1] * x0 * x23
        if e2:
            g2 += c * e2 * p2[e2 - 1] * x3 * x01
        if e3:
            g3 += c * e3 * p3[e3 - 1] * x2 * x01
    den = p.den * pq[top]
    return F(v, den), tuple(F(g, den) for g in (g0, g1, g2, g3))


def monomials_of_degree(d: int) -> list[Exponent]:
    """All exponent tuples in z0..z3 of total degree d, graded-lex order."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            for c in range(d - a - b, -1, -1):
                out.append((a, b, c, d - a - b - c))
    return out


# monomials_of_degree(d) for d = 0..8, the degrees of every section and octic
_MONOMIALS = tuple(map(monomials_of_degree, range(9)))


def _slot_table(d: int) -> tuple[tuple[Exponent, int], ...]:
    """(e, e1 + B*e2 + B^2*e3) with B = d + 1 for every monomial e of degree
    d, graded-lex: the slot of e in sum_of_products' dense accumulator."""
    b1 = d + 1
    b2 = b1 * b1
    return tuple((e, e[1] + b1 * e[2] + b2 * e[3]) for e in monomials_of_degree(d))


@cache
def _dense_slots(d: int) -> tuple[tuple[Exponent, int], ...]:
    """_slot_table(d) for d <= 8, built on the first dense read-back of
    degree d, not at import."""
    return _slot_table(d)


@cache
def _shift_table(d: int) -> dict[Exponent, tuple[Exponent | None, ...]]:
    """_shifted(e) of every monomial e of degree d <= 8, keyed by e; built
    on the first gradient of degree d, not at import."""
    return {e: _shifted(e) for e in _MONOMIALS[d]}


# "*z<i>^<k>" by variable and power up to 8; _monomial_text formats higher ones
_POWER_TEXT = tuple(("", f"*z{i}", *(f"*z{i}^{k}" for k in range(2, 9))) for i in range(NVARS))


def _monomial_text(e: Exponent) -> tuple[Exponent, str, str]:
    """e with its ``*zi^k`` text suffix and its "e0,e1,e2,e3" key."""
    z0, z1, z2, z3 = _POWER_TEXT
    try:
        suffix = z0[e[0]] + z1[e[1]] + z2[e[2]] + z3[e[3]]
    except IndexError:
        suffix = "".join(t[k] if k < len(t) else f"*z{i}^{k}"
                         for i, (t, k) in enumerate(zip(_POWER_TEXT, e)))
    return e, suffix, "%d,%d,%d,%d" % e


@cache
def _monomial_texts(d: int) -> tuple[tuple[Exponent, str, str], ...]:
    """_monomial_text of every monomial of degree d <= 8 (every section and
    octic), graded-lex; built on the first render of degree d, not at
    import, as only discriminant renders."""
    return tuple(map(_monomial_text, _MONOMIALS[d]))


def _graded_lex(p: MultiPoly) -> list[tuple[str, str, str]]:
    """(coefficient, suffix, key) for each term c*z^e of p, with the suffix
    and key of _monomial_text(e) and c written as ``n/d`` in lowest terms,
    d > 0 and always shown, as Fraction(n, d) would print it, in one walk:
    higher total degree first, then the lexicographically larger exponent.
    Degrees up to 8 are read off _monomial_texts; higher ones are sorted and
    formatted here."""
    num, den, top = p.num, p.den, len(_MONOMIALS)
    degrees = sorted(set(map(sum, num)), reverse=True)
    tables = [_monomial_texts(d) for d in degrees if d < top]
    if degrees and degrees[0] >= top:
        high = sorted((e for e in num if sum(e) >= top), key=lambda e: (sum(e), e), reverse=True)
        tables.insert(0, map(_monomial_text, high))
    return [(f"{c // (g := gcd(c, den))}/{den // g}", s, k)
            for table in tables for e, s, k in table if (c := num.get(e))]


def to_canonical_text(p: MultiPoly, _rows: list[tuple[str, str, str]] | None = None) -> str:
    """Canonical text form: graded-lex term order, coefficients as num/den.

    Example: ``3/1*z0^2*z1``.  The zero polynomial prints as ``0``.
    ``_rows``, if given, must be _graded_lex(p); nothing checks it.
    """
    if p.is_zero():
        return "0"
    rows = _graded_lex(p) if _rows is None else _rows
    return " + ".join([t + suffix for t, suffix, _ in rows])
