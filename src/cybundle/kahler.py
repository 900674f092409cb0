"""Cubic-form analysis of the Kaehler cone and the second contraction.

N^1(X) is two-dimensional with basis (xi|X, pi^*h).  The cubic hypersurface
{D^3 = 0} is a binary cubic w(x, y); a double line in it forces rational
boundary rays via gcd(w, w').  The coefficients of w are ints on X; the
analysis clears a cubic once to a primitive int list, reads both charts
from it and runs the ``ratpoly`` kernels on int lists.  For normalized
split bundles the boundary rays themselves are known (the cone of X is the
restricted cone of Z), so they are asserted and their c2-values reported
rather than rediscovered.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from ._value import Frozen
from .chow import BundleSpec, ChowClass, anticanonical_class, integrate, reduce
from .invariants import RHO_ONE_SPLITTING_P3, CyInvariants, admissibility_p3
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

    def __init__(self, w30: int | Fraction, w21: int | Fraction, w12: int | Fraction,
                 w03: int | Fraction) -> None:
        self._fill(w30, w21, w12, w03)

    def is_zero(self) -> bool:
        return self.w30 == self.w21 == self.w12 == self.w03 == 0


def w_cubic(inv: CyInvariants) -> CubicForm:
    """Expand (x*L1 + y*L2)^3 with the triple products from the invariants."""
    return CubicForm(w30=inv.xi3, w21=3 * inv.xi2_h, w12=3 * inv.xi_h2, w03=inv.h3)


class RationalityReport(Frozen):
    # chart: the chart that exhibited the gcd factor; double_roots: the roots
    # of gcd(w, Dw) in that chart
    __slots__ = ("verdict", "chart", "double_roots")

    def __init__(self, verdict: Rationality, chart: Optional[str],
                 double_roots: Tuple[Fraction, ...]) -> None:
        self._fill(verdict, chart, double_roots)


def rationality_analysis(w: CubicForm) -> RationalityReport:
    """Double-line detection by gcd(w, Dw) on both dehomogenization charts.

    A double line through [1:0] is invisible in the y-chart, so both charts
    are inspected.  If no double line exists, fall back to full rational-root
    factorization of the cubic.

    The verdict describes the cubic {D^3 = 0}, not the Kaehler cone: the
    split p3 specs (0,1)..(0,3) read IRRATIONAL_OR_UNRESOLVED although
    their boundary rays (1, 0) and (0, 1) are rational.  This verdict is
    what reports print as ``rationality``.
    """
    if w.is_zero():
        raise ValueError("the zero cubic has no rationality analysis")
    # chart 'y' sets y = 1 (a poly in x), chart 'x' sets x = 1: one int
    # list with its content divided out, and its reverse, each without its
    # trailing zeros (the sign of the list leaves every root alone)
    y = _integer_coeffs([w.w03, w.w12, w.w21, w.w30])
    x = y[::-1]
    for p in (y, x):
        while p[-1] == 0:
            p.pop()
    for chart, p in (("y", y), ("x", x)):
        if len(p) < 2:
            continue
        g = poly_gcd(p, derivative(p))
        if len(g) >= 2:
            roots = tuple(rational_roots(g))
            # the lemma guarantees rationality of the repeated factor; a
            # degree >= 1 gcd without rational roots would contradict it
            if len(roots) == len(g) - 1:
                return RationalityReport(
                    verdict=Rationality.RATIONAL_DOUBLE_LINE,
                    chart=chart,
                    double_roots=roots,
                )
    # degree drop in the y-chart means y divides w; a cubic with a simple
    # y-factor can still split off rational lines
    y_mult = 4 - len(y)
    roots = tuple(rational_roots(y)) if len(y) >= 2 else ()
    if len(roots) + y_mult == 3:
        return RationalityReport(
            verdict=Rationality.RATIONAL_FACTORS,
            chart=None,
            double_roots=(),
        )
    return RationalityReport(
        verdict=Rationality.IRRATIONAL_OR_UNRESOLVED,
        chart=None,
        double_roots=(),
    )


class KahlerReport(Frozen):
    # rays in the basis (xi|X, pi^*h), c2_values per ray in the same order;
    # degeneracy_det for m = 3 only
    __slots__ = ("rays", "cubic", "analysis", "c2_values", "degeneracy_det", "basis_det")

    def __init__(self, rays: Tuple[Tuple[int, int], Tuple[int, int]], cubic: CubicForm,
                 analysis: RationalityReport, c2_values: Tuple[int, int],
                 degeneracy_det: Optional[int], basis_det: int) -> None:
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


def rho_two_gate(spec: BundleSpec) -> Tuple[Optional[BundleSpec], Optional[str]]:
    """(the normalized spec, None) if rho = 2 holds for it, else (None, the
    reason it fails); require_rho_two raises that reason."""
    if not spec.is_split:
        return None, "cone analysis needs split, normalized bundles"
    norm = spec.normalized()
    if norm.base_dim == 1:
        if norm.c1 > 3:
            return None, f"c1 = {norm.c1} > 3 forces rho > 2"
    else:
        adm = admissibility_p3(norm)
        if not adm.admissible:
            return None, f"splitting gap {adm.gap} > 4: no smooth X"
        if norm.split_degrees == RHO_ONE_SPLITTING_P3:
            return None, "O + O(4) has rho = 1"
    return norm, None


def require_rho_two(spec: BundleSpec) -> BundleSpec:
    """The normalized spec, or RhoNotTwoError if rho = 2 fails for it."""
    norm, reason = rho_two_gate(spec)
    if reason is not None:
        raise RhoNotTwoError(reason)
    return norm


def boundary_rays(spec: BundleSpec, inv: CyInvariants) -> KahlerReport:
    """Kaehler-cone boundary rays with their c2-values.

    ``inv`` is the invariant record of ``spec.normalized()``.  For
    normalized split bundles the rays are exactly xi|X = (1, 0) and
    pi^*h = (0, 1); both c2-values must be strictly positive.
    """
    norm = require_rho_two(spec)
    if (inv.base_dim, inv.c1, inv.c2) != (norm.base_dim, norm.c1, norm.c2):
        raise ValueError("inv is not the record of the normalized spec")
    ray_xi, ray_h = (1, 0), (0, 1)
    c2_xi, c2_h = inv.xi_dot_c2, inv.h_dot_c2
    if c2_xi <= 0 or c2_h <= 0:
        raise ArithmeticError("c2-positivity violated on a boundary ray")
    w = w_cubic(inv)
    return KahlerReport(
        rays=(ray_xi, ray_h),
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

    m = 3 basis: ((pi^*h)^2, xi.pi^*h); m = 1 basis: (xi.pi^*h, xi^2).
    The Gram entries are recomputed through reduce/integrate; the result is
    -1 in both geometries, so the basis is unimodular.
    """
    if spec.base_dim == 3:
        v1, v2 = (0, 2), (1, 1)
    else:
        v1, v2 = (1, 1), (2, 0)

    def gram(a, b) -> int:
        return integrate(reduce(spec, {(a[0] + b[0], a[1] + b[1]): 1}))

    return gram(v1, v1) * gram(v2, v2) - gram(v1, v2) * gram(v2, v1)


class ContractionReport(Frozen):
    __slots__ = ("c1", "rk_trivial", "kind", "count", "k_y_squared", "quartic_degree",
                 "image")

    def __init__(self, c1: int, rk_trivial: int, kind: ContractionKind,
                 count: Optional[int] = None, k_y_squared: Optional[int] = None,
                 quartic_degree: Optional[int] = None, image: Optional[str] = None) -> None:
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
    e = ChowClass.xi(norm) - ChowClass.hyperplane(norm)
    return integrate(anticanonical_class(norm) * e * e * e)
