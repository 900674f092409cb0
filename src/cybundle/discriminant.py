"""The discriminant octic of the double cover pi: X -> P^3.

A section of -K_Z over a split rank-2 bundle with degrees (a, b) is a
fiberwise quadric  s = s00*x0^2 + s01*x0*x1 + s11*x1^2  with coefficient
polynomials of degrees (a-b+4, 4, b-a+4) on P^3.  The branch locus of the
induced 2:1 cover is the degree-8 surface

    Delta = s01^2 - 4*s00*s11,

and the common zeros of (s00, s01, s11) -- the full fibers contained in
X -- are singular points of Delta.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from ._value import Frozen, fractions
from .chow import BundleSpec
from .invariants import section_degrees
from .ratpoly import (
    _MONOMIALS,
    MultiPoly,
    _graded_lex,
    _homogeneous_degree,
    _low_order_terms,
    multipoly_gradient,
    to_canonical_text,
    value_and_gradient,
)


# r0 = 3/2, the scalar of the Delta(r0*q) that both self-checks read
_R0 = (3, 2)


class QuadraticSection(Frozen):
    """The fiberwise quadric datum (s00, s01, s11) over a split spec; ``_trusted`` wraps
    components homogeneous of section_degrees already: sampled, scaled or truncated."""

    # _check holds Delta(r0*q) once _check_delta has built it
    __slots__ = ("spec", "s00", "s01", "s11", "_check")
    _fields = ("spec", "s00", "s01", "s11")

    def __init__(self, spec: BundleSpec, s00: MultiPoly, s01: MultiPoly,
                 s11: MultiPoly) -> None:
        self._fill(spec, s00, s01, s11)
        if (self.spec.base_dim, self.spec.rank) != (3, 2) or not self.spec.is_split:
            raise ValueError("quadratic sections need a split rank-2 spec on P^3")
        d00, d01, d11 = section_degrees(self.spec)
        for name, poly, want in (
            ("s00", self.s00, d00),
            ("s01", self.s01, d01),
            ("s11", self.s11, d11),
        ):
            if poly.num and _homogeneous_degree(poly) != want:
                raise ValueError(f"{name} must be homogeneous of degree {want}")

    def scale(self, r) -> "QuadraticSection":
        return QuadraticSection._trusted(self.spec, self.s00 * r, self.s01 * r, self.s11 * r)

    def _check_delta(self) -> MultiPoly:
        """Delta(r0*q) for r0 = 3/2, by the checks' own product
        (_checks_product), built on the first call and kept: the scaling law
        and the gradient identity of one request read the one product."""
        try:
            return self._check
        except AttributeError:
            r0 = fractions.Fraction(*_R0)
            object.__setattr__(self, "_check", _checks_product(self.scale(r0)))
            return self._check


class Octic(Frozen):
    """A (possibly zero) octic surface in P^3; ``_trusted`` wraps the Delta of a
    validated section, and the CLI's homogeneous_degree_8 check makes its degree pass."""

    # _lex holds the graded-lex rows once _rows has built them
    __slots__ = ("poly", "_lex")
    _fields = ("poly",)

    def __init__(self, poly: MultiPoly) -> None:
        self._fill(poly)
        if not self.is_homogeneous_octic():
            raise ValueError("the discriminant must be homogeneous of degree 8")

    def is_homogeneous_octic(self) -> bool:
        """Zero or homogeneous of degree 8, in one pass over the exponents."""
        return not self.poly.num or _homogeneous_degree(self.poly) == 8

    @property
    def _rows(self) -> list:
        """(coefficient text, ``*zi^k`` suffix, "e0,e1,e2,e3" key) of each
        term in graded-lex order, built once for both renderings."""
        try:
            return self._lex
        except AttributeError:
            object.__setattr__(self, "_lex", _graded_lex(self.poly))
            return self._lex

    def to_text(self) -> str:
        return to_canonical_text(self.poly, self._rows)

    def to_json_coeffs(self) -> dict:
        """The coefficients keyed by "e0,e1,e2,e3", in no particular order."""
        return {key: t for t, _, key in self._rows}


def build_discriminant(q: QuadraticSection) -> Octic:
    """Delta = s01^2 - 4*s00*s11, homogeneous of degree 8."""
    return Octic._trusted(MultiPoly.sum_of_products(((1, q.s01, q.s01), (-4, q.s00, q.s11))))


def _checks_product(q: QuadraticSection) -> MultiPoly:
    """s01^2 - 4*s00*s11, written apart from build_discriminant: the checks
    compare the printed octic with this product, so a wrong line in either
    one fails them."""
    return MultiPoly.sum_of_products(((1, q.s01, q.s01), (-4, q.s00, q.s11)))


def scaling_law_check(q: QuadraticSection, octic: Octic, r=None) -> bool:
    """Delta(r*q) == r^2 * octic, exactly, where ``octic`` is the Delta(q)
    of build_discriminant(q): the check verifies that octic.

    Delta(r*q) is the checks' own product (_checks_product), not
    build_discriminant's.  ``r`` defaults to r0 = 3/2, whose Delta(r0*q)
    the section keeps for the gradient identity too (_check_delta); any
    other r builds its own.  With r = a/b in lowest terms the sides are
    compared term by term, cross-multiplied: num * fl against octic.num *
    fr, with fl = b^2 * octic.den and fr = a^2 * den over their gcd, so no
    r^2 * octic is built.  When both factors are then 1 (fl = fr = 576 on
    every sampled octic of den 144), the two numerator dicts are compared
    as stored: scaling both sides by one nonzero factor changes no verdict.
    """
    F = fractions.Fraction
    r = F(*_R0) if r is None else F(r)
    a, b = r.numerator, r.denominator
    lhs = q._check_delta() if (a, b) == _R0 else _checks_product(q.scale(r))
    if not a:
        return not lhs.num
    fl, fr = b * b * octic.poly.den, a * a * lhs.den
    g = gcd(fl, fr)
    fl, fr = fl // g, fr // g
    if fl == fr:  # both 1
        return lhs.num == octic.poly.num
    return ({e: c * fl for e, c in lhs.num.items()}
            == {e: c * fr for e, c in octic.poly.num.items()})


def base_locus_expected(spec: BundleSpec) -> int:
    """Bezout count of common zeros of (s00, s01, s11): d00*d01*d11.

    Equals 4*(16 - (b-a)^2) = 64 - 4*gamma; fiber_count asserts the two
    agree, from the same section_degrees.
    """
    d00, d01, d11 = section_degrees(spec)
    return d00 * d01 * d11


# the note of a base-locus point where Delta or its gradient does not vanish
WITNESS_FAILED = "full fiber: octic value or gradient does not vanish"


class WitnessRecord(Frozen):
    """Evaluation of the section data and the discriminant at one point."""

    __slots__ = ("point", "s00", "s01", "s11", "delta", "gradient", "on_base_locus",
                 "singular_point_verified", "note")

    def __init__(self, point: tuple[fractions.Fraction, ...], s00: fractions.Fraction,
                 s01: fractions.Fraction, s11: fractions.Fraction, delta: fractions.Fraction,
                 gradient: tuple[fractions.Fraction, ...],
                 on_base_locus: bool, singular_point_verified: bool, note: str) -> None:
        self._fill(point, s00, s01, s11, delta, gradient, on_base_locus,
                   singular_point_verified, note)


def singularity_witness(q: QuadraticSection, point: Sequence) -> WitnessRecord:
    """Evaluate (s00, s01, s11, Delta, grad Delta) at a point of P^3.

    If all three section components vanish there, the point is a full fiber
    and must be a singular point of the octic: the record is verified when
    both the value and the gradient of Delta vanish, and otherwise carries
    WITNESS_FAILED as its note, which the CLI reports as a failed check.
    Delta is built from the section terms of order < 2 at the point (the sum
    of their exponents on its zero coordinates) alone: a term of Delta of
    order < 2 comes only from pairs of them, and the others vanish at the
    point with their partials.  Delta and its gradient are evaluated in one
    pass over Delta's terms.  A section term of order >= 1 vanishes at the
    point, so each section value is that of its terms of order 0.  A
    ValueError refuses a point without exactly 4 coordinates, or with all
    of them zero.  At the CLI's point (1, 0, 0, 0) a witness section has
    no term of order 0, so its values are evaluated from no term and every
    term of this Delta has order 2: value_and_gradient keeps none of them,
    and the verdict checks only that the product kernel adds no term of
    lower order.
    """
    pt = tuple(map(fractions.Fraction, point))
    if len(pt) != 4:
        raise ValueError("a point of P^3 has 4 coordinates")
    if all(x == 0 for x in pt):
        raise ValueError("(0,0,0,0) is not a point of P^3")
    zeros = [x == 0 for x in pt]
    live = QuadraticSection._trusted(q.spec, *(
        MultiPoly._trusted(_low_order_terms(p, zeros, 2), p.den) for p in (q.s00, q.s01, q.s11)))
    delta = build_discriminant(live).poly
    v00, v01, v11 = (MultiPoly._trusted(_low_order_terms(p, zeros, 1), p.den).evaluate(pt)
                     for p in (live.s00, live.s01, live.s11))
    dval, grad = value_and_gradient(delta, pt)
    on_locus = v00 == v01 == v11 == 0
    if on_locus:
        verified = dval == 0 and all(g == 0 for g in grad)
        note = "full fiber: octic value and gradient vanish" if verified else WITNESS_FAILED
    elif dval == 0:
        note = "on the octic; smooth-point test not performed"
        verified = False
    else:
        note = "off the octic; no singularity claim"
        verified = False
    return WitnessRecord(
        point=pt,
        s00=v00,
        s01=v01,
        s11=v11,
        delta=dval,
        gradient=grad,
        on_base_locus=on_locus,
        singular_point_verified=verified,
        note=note,
    )


def gradient_identity_holds(q: QuadraticSection, octic: Octic) -> bool:
    """grad octic = 2*s01*grad s01 - 4*s11*grad s00 - 4*s00*grad s11, as an
    identity of polynomials, where ``octic`` is the printed Delta(q).

    Checked times z_i, which loses nothing (z_i is not a zero divisor).  By
    the product rule z_i times the right side is z_i*d/dz_i Delta(q), whose
    term at z^e is e_i times Delta(q)'s.  Delta(q) is read as
    _check_delta() / r0^2, the product the scaling law also reads: with
    r0 = a/b, its term at e is b^2 * num over a^2 * den, and field i of
    slot e1 + 9*e2 + 81*e3 is e_i times that term.  The left side reads
    the partials of multipoly_gradient(octic), not Delta(q): the i-th
    partial's term at e - 1_i lands in field i of slot e, at offset 0, 1,
    9 or 81 from its own; the fields are compared over a common denominator.
    Every degree-8 monomial has some e_i != 0, so this accepts exactly the
    octics scaling_law_check at r0 accepts: it is no independent check.
    """
    delta, (a, b), den_l = q._check_delta(), _R0, octic.poly.den
    # Delta(q) over den_r, each numerator times den_l: a common denominator
    den_r, f_r = delta.den * a * a, den_l * b * b
    # field i of slot k at index k + 729*i on both sides
    lhs, rhs = [0] * 2916, [0] * 2916
    for (e0, e1, e2, e3), v in delta.num.items():
        k, v = e1 + 9 * e2 + 81 * e3, v * f_r
        rhs[k], rhs[k + 729], rhs[k + 1458], rhs[k + 2187] = e0 * v, e1 * v, e2 * v, e3 * v
    for field, offset, g in zip((0, 729, 1458, 2187), (0, 1, 9, 81),
                                multipoly_gradient(octic.poly)):
        f = den_r * (den_l // g.den)
        for (_, e1, e2, e3), c in g.num.items():
            lhs[e1 + 9 * e2 + 81 * e3 + offset + field] += c * f
    return lhs == rhs


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# sample_section draws each numerator from the top 32 bits of one LCG step,
# so the span 2*bound + 1 must stay far below 2^32
MAX_SECTION_BOUND = 10 ** 6


def sample_section(spec: BundleSpec, seed: int, bound: int) -> QuadraticSection:
    """Pseudo-random rational coefficients num/den with num in
    [-bound, bound] and den in [1, 4], one per monomial of each prescribed
    degree.  Same seed, same output.  ``bound`` runs from 0 to
    MAX_SECTION_BOUND; a ValueError refuses anything else.

    A 64-bit LCG, state = (state*_LCG_MULT + _LCG_INC) mod 2^64 from
    seed mod 2^64, with fixed constants so golden files are reproducible
    across platforms, takes two steps per monomial in graded-lex order of
    s00, s01 and s11: num = -bound + (top 32 bits) mod (2*bound + 1), then
    den = 1 + (top 32 bits) mod 4.  For spans up to 2*MAX_SECTION_BOUND + 1
    the modulo bias is below 2^-11.
    """
    degrees = section_degrees(spec)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound > MAX_SECTION_BOUND:
        raise ValueError(f"bound must be <= {MAX_SECTION_BOUND}")
    state, span, parts = seed & _LCG_MASK, 2 * bound + 1, []
    # num/den is stored as num * (12 // den) over 12 = lcm(1, 2, 3, 4)
    for degree in degrees:
        num = {}
        for e in _MONOMIALS[degree]:
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            n = (state >> 32) % span - bound
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            if n:
                num[e] = n * (12, 6, 4, 3)[(state >> 32) % 4]
        parts.append(MultiPoly._trusted(num, 12))
    return QuadraticSection._trusted(spec, *parts)


def witness_section(section: QuadraticSection) -> QuadraticSection:
    """The section with the pure z0 monomial dropped from each component.

    Every component then vanishes at (1, 0, 0, 0), so the point lies in the
    base locus and is a guaranteed singular point of the octic.  The
    discriminant command passes the section it sampled, or a draw at bound
    1 when its own bound is 0 (the zero section would witness nothing).
    A component is homogeneous, so its one pure z0 monomial is (d, 0, 0, 0)
    with d the degree of any of its terms: the component is copied and that
    key popped, and reduced to lowest terms where the dropped term was the
    one coprime to the denominator.  A degree-0 component, such as s00 of
    (0, 4), becomes zero.
    """

    def drop_pure_z0(p: MultiPoly) -> MultiPoly:
        num = p.num.copy()
        num.pop((sum(next(iter(num), ())), 0, 0, 0), None)
        return MultiPoly._trusted(num, p.den)

    s00, s01, s11 = (drop_pure_z0(p) for p in (section.s00, section.s01, section.s11))
    return QuadraticSection._trusted(section.spec, s00, s01, s11)
