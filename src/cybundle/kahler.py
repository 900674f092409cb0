"""Cubic-form analysis of the Kaehler cone and the second contraction.

N^1(X) is two-dimensional with basis (xi|X, pi^*h).  The cubic hypersurface
{D^3 = 0} is a binary cubic w(x, y); a double line in it forces rational
boundary rays via gcd(w, w').  The coefficients of w are ints on X; the
analysis clears a cubic once to a primitive int list, reads the y = 1
chart and the power of y dividing w from it and runs the ``ratpoly``
kernels on int lists.  A double line is reported as the point [x, y] of
P^1 in the basis of the rays.  For normalized split bundles the boundary
rays themselves are known (the cone of X is the restricted cone of Z), so
they are asserted and their c2-values reported rather than rediscovered.
The Gram determinant reads the top intersections of
``closed_form_intersections``; only ``verify_KY_squared`` reduces.
"""

from __future__ import annotations

from enum import Enum

from ._value import Frozen, fractions
from .chow import BundleSpec, ChowClass, closed_form_intersections, integrate
from .invariants import (RHO_ONE_SPLITTING_P3, CyInvariants, OracleMismatchError,
                         admissibility_p3, closed_forms)
from .ratpoly import _integer_coeffs, derivative, poly_gcd, rational_roots


class Rationality(str, Enum):
    RATIONAL_DOUBLE_LINE = "RationalDoubleLine"
    RATIONAL_FACTORS = "RationalFactors"
    IRRATIONAL_OR_UNRESOLVED = "IrrationalOrUnresolved"


class ContractionKind(str, Enum):
    DIVISOR_TO_SURFACE = "DivisorToSurface_P1xPk"
    RULED_OVER_POINTS = "RuledOverPoints"
    RULED_OVER_QUARTIC = "RuledOverQuartic"
    SIXTEEN_CURVES = "SixteenCurves_QuinticImage"
    SIXTY_FOUR_CURVES = "SixtyFourCurves"
    EXCLUDED = "ExcludedByTheorem"


class CubicForm(Frozen):
    """w(x, y) = sum_{i+j=3} w_ij x^i y^j in the basis (xi|X, pi^*h).

    w_ij = C(3, i) * (L1^i . L2^j) with L1 = xi|X, L2 = pi^*h: ints from
    w_cubic; library callers may pass rationals.
    """

    __slots__ = ("w30", "w21", "w12", "w03")

    def __init__(self, w30: int | fractions.Fraction, w21: int | fractions.Fraction,
                 w12: int | fractions.Fraction, w03: int | fractions.Fraction) -> None:
        self._fill(w30, w21, w12, w03)

    def is_zero(self) -> bool:
        return self.w30 == self.w21 == self.w12 == self.w03 == 0


def w_cubic(inv: CyInvariants) -> CubicForm:
    """Expand (x*L1 + y*L2)^3 with the triple products from the invariants."""
    return CubicForm(w30=inv.xi3, w21=3 * inv.xi2_h, w12=3 * inv.xi_h2, w03=inv.h3)


class RationalityReport(Frozen):
    # double_roots: each double line of w as a primitive int point (x, y) of
    # P^1 in the basis (xi|X, pi^*h) of KahlerReport.rays: y > 0, or (1, 0)
    __slots__ = ("verdict", "double_roots")

    def __init__(self, verdict: Rationality, double_roots: tuple[tuple[int, int], ...]) -> None:
        self._fill(verdict, double_roots)


def rationality_analysis(w: CubicForm) -> RationalityReport:
    """Double-line detection by gcd(w, Dw) in the y = 1 chart.

    A root s/t of that chart (t > 0) is the line [s:t].  The chart misses
    only the line y = 0, the point [1:0].  If y^k divides w exactly, y = 0
    is a k-fold root of w(1, y), whose gcd with its derivative is y^(k-1):
    that line is double exactly when k >= 2.  If no double line exists,
    fall back to full rational-root factorization.

    The verdict describes the cubic {D^3 = 0}, not the Kaehler cone: the
    split p3 specs (0,1)..(0,3) read IRRATIONAL_OR_UNRESOLVED although
    their boundary rays (1, 0) and (0, 1) are rational.  This verdict is
    what reports print as ``rationality``.
    """
    if w.is_zero():
        raise ValueError("the zero cubic has no rationality analysis")
    # chart 'y' sets y = 1 (a poly in x): one primitive int list (its sign
    # leaves every root alone) whose y_mult trailing zeros say y^y_mult | w
    y = _integer_coeffs([w.w03, w.w12, w.w21, w.w30])
    while y[-1] == 0:
        y.pop()
    y_mult = 4 - len(y)
    # a one-entry chart has derivative [] and gcd [1], which the len test skips
    g = poly_gcd(y, derivative(y))
    if len(g) >= 2:
        roots = rational_roots(g)
        # the lemma guarantees rationality of the repeated factor; a
        # degree >= 1 gcd without rational roots would contradict it
        if len(roots) == len(g) - 1:
            return RationalityReport(Rationality.RATIONAL_DOUBLE_LINE, tuple(roots))
    if y_mult >= 2:
        return RationalityReport(Rationality.RATIONAL_DOUBLE_LINE, ((1, 0),) * (y_mult - 1))
    # a cubic with a simple y-factor can still split off rational lines
    if len(rational_roots(y)) + y_mult == 3:
        return RationalityReport(Rationality.RATIONAL_FACTORS, ())
    return RationalityReport(Rationality.IRRATIONAL_OR_UNRESOLVED, ())


class KahlerReport(Frozen):
    # rays in the basis (xi|X, pi^*h), c2_values per ray in the same order;
    # degeneracy_det for m = 3 only
    __slots__ = ("rays", "cubic", "analysis", "c2_values", "degeneracy_det", "basis_det")

    def __init__(self, rays: tuple[tuple[int, int], tuple[int, int]], cubic: CubicForm,
                 analysis: RationalityReport, c2_values: tuple[int, int],
                 degeneracy_det: int | None, basis_det: int) -> None:
        self._fill(rays, cubic, analysis, c2_values, degeneracy_det, basis_det)

    @property
    def rationality(self) -> Rationality:
        return self.analysis.verdict

    def to_dict(self) -> dict:
        return {
            "rays": [list(r) for r in self.rays],
            "rationality": self.rationality.value,
            "c2_values": list(self.c2_values),
            "degeneracy_det": self.degeneracy_det,
            "basis_det": self.basis_det,
        }


class RhoNotTwoError(ValueError):
    """The spec does not satisfy the rho = 2 criterion required here."""


def require_rho_two(spec: BundleSpec) -> BundleSpec:
    """The normalized spec, or RhoNotTwoError naming why rho = 2 fails.

    boundary_rays and classify_contraction_p1 guard with it; a report row
    reaches them once its invariant record reads rho = 2, so a record that
    disagrees with this criterion raises here instead of printing a cone."""
    if not spec.is_split:
        raise RhoNotTwoError("cone analysis needs split, normalized bundles")
    norm = spec.normalized()
    if norm.base_dim == 1:
        if norm.c1 > 3:
            raise RhoNotTwoError(f"c1 = {norm.c1} > 3 forces rho > 2")
    else:
        if not admissibility_p3(norm):
            a, b = norm.split_degrees
            raise RhoNotTwoError(f"splitting gap {b - a} > 4: no smooth X")
        if norm.split_degrees == RHO_ONE_SPLITTING_P3:
            raise RhoNotTwoError("O + O(4) has rho = 1")
    return norm


def boundary_rays(spec: BundleSpec, inv: CyInvariants) -> KahlerReport:
    """Kaehler-cone boundary rays with their c2-values.

    ``inv`` is the spec's own record.  In the normalized basis the rays are
    exactly xi|X = (1, 0) and pi^*h = (0, 1), both of positive c2.  A twist
    by O(t), t the least degree, moves only xi: D = x*xi + y*H =
    x*xi_norm + (y + t*x)*H, so the report reads the cubic w(x, y - t*x) and
    c2.xi_norm = c2.xi - t*c2.h, checked against spec.normalized()'s closed forms.
    """
    norm = require_rho_two(spec)
    if (inv.base_dim, inv.c1, inv.c2) != (spec.base_dim, spec.c1, spec.c2):
        raise ValueError("inv is not the record of the spec")
    t, w = spec.split_degrees[0], w_cubic(inv)
    w = CubicForm(w.w30 - t * w.w21 + t * t * w.w12 - t ** 3 * w.w03,
                  w.w21 - 2 * t * w.w12 + 3 * t * t * w.w03, w.w12 - 3 * t * w.w03, w.w03)
    c2_xi, c2_h = inv.xi_dot_c2 - t * inv.h_dot_c2, inv.h_dot_c2
    if c2_xi <= 0 or c2_h <= 0:
        raise ArithmeticError("c2-positivity violated on a boundary ray")
    if norm is not spec:  # c in INTEGRAL_KEYS order; w's w21 is 3*xi2_h, its w12 3*xi_h2
        c = closed_forms(norm)
        for key, want, got in (("xi_dot_c2", c[2], c2_xi), ("xi3", c[7], w.w30),
                               ("3*xi2_h", 3 * c[6], w.w21), ("3*xi_h2", 3 * c[5], w.w12)):
            if got != want:
                raise OracleMismatchError(f"sheared {key}: closed form {want} != {got}")
    return KahlerReport(
        rays=((1, 0), (0, 1)),
        cubic=w,
        analysis=rationality_analysis(w),
        c2_values=(c2_xi, c2_h),
        degeneracy_det=degeneracy_determinant(norm) if norm.base_dim == 3 else None,
        basis_det=h4_basis_determinant(norm),
    )


def degeneracy_determinant(spec: BundleSpec) -> int:
    """det [[c1+4, 2], [c1^2 - 2*c2 + 4*c1, c1+4]] = 16 - gamma.

    Vanishes exactly when gamma = 16, the case where a surface class on Z
    can be contracted by the anticanonical system.
    """
    if (spec.base_dim, spec.rank) != (3, 2):
        raise ValueError("degeneracy determinant is for rank-2 bundles on P^3")
    c1, c2 = spec.c1, spec.c2
    return (c1 + 4) ** 2 - 2 * (c1 ** 2 - 2 * c2 + 4 * c1)


def h4_basis_determinant(spec: BundleSpec) -> int:
    """Determinant of the Gram matrix of the middle-cohomology basis.

    m = 3 basis: ((pi^*h)^2, xi.pi^*h), Gram [[H^4 = 0, xi H^3], [xi H^3, xi^2 H^2]];
    m = 1 basis: (xi.pi^*h, xi^2), Gram [[xi^2 H^2 = 0, xi^3 H], [xi^3 H, xi^4]].
    The entries are the top intersections of closed_form_intersections; the
    result is -1 in both geometries, so the basis is unimodular.
    """
    n = closed_form_intersections(spec)
    if spec.base_dim == 3:
        g11, g12, g22 = 0, n.xi1_h3, n.xi2_h2
    else:
        g11, g12, g22 = n.xi2_h2, n.xi3_h1, n.xi4
    return g11 * g22 - g12 * g12


class ContractionReport(Frozen):
    __slots__ = ("c1", "rk_trivial", "kind", "count", "k_y_squared", "quartic_degree",
                 "image")

    def __init__(self, c1: int, rk_trivial: int, kind: ContractionKind,
                 count: int | None = None, k_y_squared: int | None = None,
                 quartic_degree: int | None = None, image: str | None = None) -> None:
        self._fill(c1, rk_trivial, kind, count, k_y_squared, quartic_degree, image)

    def to_dict(self) -> dict:
        return {
            "c1": self.c1,
            "rk_trivial": self.rk_trivial,
            "kind": self.kind.value,
            "count": self.count,
            "k_y_squared": self.k_y_squared,
            "quartic_degree": self.quartic_degree,
            "image": self.image,
        }


def classify_contraction_p1(spec: BundleSpec) -> ContractionReport:
    """Classification of the second contraction for rank-4 bundles on P^1.

    Total in (c1, rk F), where F is the maximal trivial subbundle of the
    normalized splitting.  c1 > 3 means rho > 2 and is refused by
    require_rho_two.
    """
    if (spec.base_dim, spec.rank) != (1, 4) or not spec.is_split:
        raise ValueError("classification needs a split rank-4 bundle over P^1")
    norm = require_rho_two(spec)
    c1 = norm.c1
    rk_f = sum(1 for d in norm.split_degrees if d == 0)
    if c1 == 3:
        if rk_f >= 3:
            return ContractionReport(c1, rk_f, ContractionKind.EXCLUDED)
        return ContractionReport(c1, rk_f, ContractionKind.DIVISOR_TO_SURFACE)
    if c1 == 2:
        if rk_f == 2:
            return ContractionReport(
                c1, rk_f, ContractionKind.RULED_OVER_POINTS, count=4
            )
        return ContractionReport(
            c1, rk_f, ContractionKind.RULED_OVER_QUARTIC, quartic_degree=4
        )
    if c1 == 1:
        return ContractionReport(
            c1,
            rk_f,
            ContractionKind.SIXTEEN_CURVES,
            count=16,
            k_y_squared=verify_KY_squared(norm),
            image="quintic in P^4 with 16 double points on a linearly embedded P^2",
        )
    return ContractionReport(c1, rk_f, ContractionKind.SIXTY_FOUR_CURVES, count=64)


def verify_KY_squared(spec: BundleSpec) -> int:
    """(-K_Z).(xi - H)^3 on Z for the blow-up case E = 3O + O(1); equals -7.

    xi - H is the class of the exceptional divisor of the blow-down of Z to
    P^4; the integral is the self-intersection of the canonical divisor of
    the contracted surface.
    """
    if spec.base_dim != 1 or (norm := spec.normalized()).split_degrees != (0, 0, 0, 1):
        raise ValueError("K_Y^2 verification is for degrees (0, 0, 0, 1)")
    e = ChowClass(norm, {(1, 0): 1, (0, 1): -1})
    # -K_Z = r*xi + (m + 1 - c1)*H = 4*xi + H
    L = ChowClass(norm, {(1, 0): 4, (0, 1): 1})
    return integrate(L * e * e * e)
