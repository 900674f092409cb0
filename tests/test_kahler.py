import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest

import unipoly_kernel_check
from chow_kernel_check import anticanonical_class, combine, hyperplane, xi
from cybundle.chow import BundleSpec, integrate
from cybundle.invariants import (
    admissibility_p3,
    invariants_for,
    invariants_p1,
    invariants_p3,
    picard_number,
)
from cybundle.kahler import (
    ContractionKind,
    CubicForm,
    Rationality,
    RhoNotTwoError,
    boundary_rays,
    classify_contraction_p1,
    degeneracy_determinant,
    h4_basis_determinant,
    rationality_analysis,
    require_rho_two,
    verify_KY_squared,
    w_cubic,
)

P1_RHO2 = [
    BundleSpec.from_split(1, (0, a1, a2, a3))
    for a1 in range(4)
    for a2 in range(a1, 4)
    for a3 in range(a2, 4)
    if a1 + a2 + a3 <= 3
]
# exhaustive grids: p1 degrees in -3..6 (up to order, which from_split
# sorts away), and p3 (a, b) with a in -3..6 and gap b - a in 0..9
P1_GRID = [BundleSpec.from_split(1, d) for d in combinations_with_replacement(range(-3, 7), 4)]
P3_GRID = [BundleSpec.from_split(3, (a, a + gap)) for a in range(-3, 7) for gap in range(10)]


def _refuses(call, spec) -> bool:
    try:
        call(spec)
    except RhoNotTwoError:
        return True
    return False


class TestWCubic:
    def test_p1_trivial(self):
        w = w_cubic(invariants_p1(BundleSpec.from_split(1, (0, 0, 0, 0))))
        assert (w.w30, w.w21, w.w12, w.w03) == (2, 12, 0, 0)

    def test_p3_trivial(self):
        inv = invariants_p3(BundleSpec.from_split(3, (0, 0)))
        w = w_cubic(inv)
        assert w.w03 == 2
        assert w.w30 == inv.xi3
        assert w.w21 == 3 * inv.xi2_h


def _double_line_at(w, point) -> bool:
    """point is a primitive int pair (x, y) with y > 0, or (1, 0), and
    w(x, y) = dw/dx = dw/dy = 0 there, in ints: the line [x:y] is a double
    root of w."""
    if not unipoly_kernel_check.is_point(point):
        return False
    x, y = point
    den = lcm(*(Fraction(c).denominator for c in (w.w30, w.w21, w.w12, w.w03)))
    a, b, c, d = (int(k * den) for k in (w.w30, w.w21, w.w12, w.w03))
    return (a * x ** 3 + b * x * x * y + c * x * y * y + d * y ** 3,
            3 * a * x * x + 2 * b * x * y + c * y * y,
            b * x * x + 2 * c * x * y + 3 * d * y * y) == (0, 0, 0)


class TestRationality:
    def test_p1_shape_double_line(self):
        # 2 x^2 (x + 6y): the double line x = 0 is the ray pi^*h
        w = CubicForm(Fraction(2), Fraction(12), Fraction(0), Fraction(0))
        r = rationality_analysis(w)
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert r.double_roots == ((0, 1),) and _double_line_at(w, (0, 1))

    def test_constructed_double_line(self):
        # (x - y)^2 (x + y) = x^3 - x^2 y - x y^2 + y^3
        w = CubicForm(Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))
        r = rationality_analysis(w)
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert r.double_roots == ((1, 1),) and _double_line_at(w, (1, 1))

    def test_irrational(self):
        r = rationality_analysis(CubicForm(Fraction(1), Fraction(0), Fraction(0), Fraction(-2)))
        assert r.verdict is Rationality.IRRATIONAL_OR_UNRESOLVED

    def test_double_line_at_infinity(self):
        # x y^2: the double line y = 0, the point [1:0], is not in the y = 1
        # chart; y^2 divides w, so it is read from that power
        w = CubicForm(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        r = rationality_analysis(w)
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert r.double_roots == ((1, 0),) and _double_line_at(w, (1, 0))

    # w = y^3 has the constant y-chart [1] and y^3 divides it, so the line
    # y = 0 is read from that power; w = x^3 has the y-chart x^3, whose gcd
    # with its derivative is x^2
    @pytest.mark.parametrize("w, point", [
        (CubicForm(1, 0, 0, 0), (0, 1)),
        (CubicForm(0, 0, 0, 1), (1, 0)),
    ])
    def test_cube_of_a_line(self, w, point):
        r = rationality_analysis(w)
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert r.double_roots == (point, point) and _double_line_at(w, point)

    def test_zero_form_refused(self):
        with pytest.raises(ValueError):
            rationality_analysis(CubicForm(Fraction(0), Fraction(0), Fraction(0), Fraction(0)))

    # no argv yields RATIONAL_FACTORS: three library cubics without a double
    # line, two of them split into rational lines
    @pytest.mark.parametrize("w, verdict", [
        # x y (x - y): y divides w, so the y-chart drops to degree 2
        (CubicForm(0, 1, -1, 0), Rationality.RATIONAL_FACTORS),
        # (x - y)(x - 2y)(x - 3y)
        (CubicForm(1, -6, 11, -6), Rationality.RATIONAL_FACTORS),
        # x (x^2 - 2y^2): one rational line, two irrational ones
        (CubicForm(1, 0, -2, 0), Rationality.IRRATIONAL_OR_UNRESOLVED),
    ])
    def test_factor_verdicts(self, w, verdict):
        r = rationality_analysis(w)
        assert r.verdict is verdict
        assert r.double_roots == ()

    def test_planted_double_roots(self):
        rng = random.Random(99)
        for _ in range(100):
            a = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            b = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            # (x - a y)^2 (x - b y)
            w = CubicForm(
                Fraction(1),
                -(2 * a + b),
                a * a + 2 * a * b,
                -(a * a * b),
            )
            r = rationality_analysis(w)
            assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
            assert (a.numerator, a.denominator) in r.double_roots
            assert all(_double_line_at(w, p) for p in r.double_roots), (w, r.double_roots)

    def test_matches_two_chart_reference(self):
        # the two-chart search this analysis replaced, on every nonzero cubic
        # with entries in -3..3 and every product of three nonzero linear
        # forms with entries in -1..1; the script's default grid is larger
        assert unipoly_kernel_check.check_rationality(bound=3, linear_bound=1) == 2400 + 512

    def test_every_rho2_p1_spec_has_double_line(self):
        for spec in P1_RHO2:
            w = w_cubic(invariants_p1(spec))
            assert w.w12 == 0 and w.w03 == 0
            assert rationality_analysis(w).verdict is Rationality.RATIONAL_DOUBLE_LINE


def _discriminant(a, b, c, d):
    """The discriminant of the binary cubic a x^3 + b x^2 y + c x y^2 + d y^3."""
    return b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def _seeded_cubics(rng, count):
    """Int and rational cubics with some zero coefficients, and planted
    (p x - q y)^2 (r x - s y), the two lines equal in a quarter of them;
    p = 0 or r = 0 puts a line at infinity."""
    def scalar():
        n, d = rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5))
        return n if d == 1 else Fraction(n, d)

    for i in range(count):
        if i % 2 == 0:
            ws = [scalar() if rng.random() < 0.85 else 0 for _ in range(4)]
        else:
            p, q = rng.choice(((0, 1), (1, 0))) if rng.random() < 0.1 else (scalar(), scalar())
            r, s = (p, q) if i % 4 == 1 else (scalar(), scalar())
            k = scalar() or 1
            ws = [k * p * p * r, -k * (p * p * s + 2 * p * q * r),
                  k * (q * q * r + 2 * p * q * s), -k * q * q * s]
        if any(ws):
            yield CubicForm(*ws)


class TestDoubleLineAgainstDiscriminant:
    """The verdict against an independent criterion.

    A nonzero binary cubic has a repeated linear factor over the complex
    numbers exactly when its discriminant vanishes.  The repeated factor of
    a rational cubic divides gcd(w, dw/dx) in one chart, so it is rational,
    and RATIONAL_DOUBLE_LINE must be read exactly then.  Each reported
    double root must be a point [x:y] where w and both its partial
    derivatives vanish.
    """

    def test_verdict_iff_discriminant_vanishes(self):
        rng = random.Random(2311)
        doubles = total = 0
        for w in _seeded_cubics(rng, 3000):
            rep = rationality_analysis(w)
            double = rep.verdict is Rationality.RATIONAL_DOUBLE_LINE
            assert double == (_discriminant(w.w30, w.w21, w.w12, w.w03) == 0), w
            assert double == bool(rep.double_roots)
            for p in rep.double_roots:
                assert _double_line_at(w, p), (w, p)
            doubles, total = doubles + double, total + 1
        # both sides of the equivalence are well represented
        assert 0.3 < doubles / total < 0.7


def _rays(spec):
    return boundary_rays(spec, invariants_for(spec))


class TestBoundaryRays:
    def test_p3_example(self):
        r = _rays(BundleSpec.from_split(3, (0, 2)))
        assert r.rays == ((1, 0), (0, 1))
        assert r.c2_values == (84, 44)

    def test_p1_example(self):
        r = _rays(BundleSpec.from_split(1, (0, 0, 1, 1)))
        assert r.c2_values == (56, 24)

    def test_rho1_refused(self):
        with pytest.raises(RhoNotTwoError):
            _rays(BundleSpec.from_split(3, (0, 4)))

    def test_c1_over_3_refused(self):
        with pytest.raises(RhoNotTwoError):
            _rays(BundleSpec.from_split(1, (0, 2, 2, 2)))

    def test_positivity_across_families(self):
        for b in range(4):
            r = _rays(BundleSpec.from_split(3, (0, b)))
            assert all(v > 0 for v in r.c2_values)
        for spec in P1_RHO2:
            r = _rays(spec)
            assert all(v > 0 for v in r.c2_values)

    def test_keeps_cubic_and_analysis(self):
        spec = BundleSpec.from_split(1, (0, 0, 1, 1))
        r = _rays(spec)
        assert r.cubic == w_cubic(invariants_p1(spec))
        assert r.analysis == rationality_analysis(r.cubic)
        assert r.rationality is r.analysis.verdict

    @pytest.mark.parametrize("field", ["xi_dot_c2", "h_dot_c2"])
    def test_c2_positivity_guard(self, field):
        # c2 is >= 24 on every ray a spec reaches, so the guard is reached
        # only through a patched record: 0 is refused, 1 passes
        spec = BundleSpec.from_split(3, (0, 1))
        inv = invariants_for(spec)
        setattr(inv, field, 0)
        with pytest.raises(ArithmeticError, match="c2-positivity"):
            boundary_rays(spec, inv)
        setattr(inv, field, 1)
        assert 1 in boundary_rays(spec, inv).c2_values

    @pytest.mark.parametrize("degrees,other", [
        ((1, 3), (0, 2)),  # the normalization's record
        ((1, 3), (0, 1)),
        ((0, 2), (1, 3)),
        ((1, 1, 2, 2), (0, 0, 1, 1)),  # the normalization's record
        ((0, 0, 1, 1), (0, 0, 0, 1)),
    ])
    def test_record_of_another_spec_refused(self, degrees, other):
        spec = BundleSpec.from_split(3 if len(degrees) == 2 else 1, degrees)
        inv = invariants_for(BundleSpec.from_split(spec.base_dim, other))
        with pytest.raises(ValueError, match="not the record of the spec"):
            boundary_rays(spec, inv)


class TestRhoTwoGate:
    def test_p3_gap_refusal_is_admissibility(self):
        # the gap refusal reads admissibility_p3; O + O(4) is the one
        # admissible splitting with rho = 1
        for spec in P3_GRID:
            a, b = spec.split_degrees
            if admissibility_p3(spec):
                assert _refuses(require_rho_two, spec) == (b - a == 4), spec
            else:
                msg = f"^splitting gap {b - a} > 4: no smooth X$"
                with pytest.raises(RhoNotTwoError, match=msg):
                    require_rho_two(spec)

    def test_refuses_exactly_when_rho_is_not_two(self):
        # the gate decides without cohomology; picard_number computes rho
        admissible = [s for s in P3_GRID if admissibility_p3(s)]
        specs = admissible + P1_GRID
        assert len(specs) == 765
        for spec in specs:
            assert _refuses(require_rho_two, spec) == (picard_number(spec)[0] != 2), spec

    def test_refusal_reasons(self):
        # each refusal names its cause, read here from rho, the gap or the
        # missing splitting; every other spec comes back normalized
        specs = [BundleSpec.from_split(1, (0, a1, a2, a3))
                 for a1 in range(4) for a2 in range(a1, 4) for a3 in range(a2, 4)]
        specs += [BundleSpec.from_split(3, (a, a + gap))
                  for a in range(-2, 8) for gap in range(7)]
        specs += [BundleSpec.from_chern(c1, c2) for c1, c2 in [(0, 0), (2, 1), (4, 4)]]
        reasons = set()
        for spec in specs:
            if not spec.is_split:
                want = "cone analysis needs split, normalized bundles"
            elif spec.base_dim == 1:
                want = None if picard_number(spec)[0] == 2 else (
                    f"c1 = {spec.c1} > 3 forces rho > 2")
            elif (gap := spec.split_degrees[1] - spec.split_degrees[0]) > 4:
                want = f"splitting gap {gap} > 4: no smooth X"
            else:
                want = None if picard_number(spec)[0] == 2 else "O + O(4) has rho = 1"
            if want is None:
                assert require_rho_two(spec) == spec.normalized(), spec
            else:
                with pytest.raises(RhoNotTwoError) as exc:
                    require_rho_two(spec)
                assert str(exc.value) == want, spec
                reasons.add(want.split()[0])
        assert reasons == {"c1", "splitting", "O", "cone"}


class TestDeterminants:
    @pytest.mark.parametrize(
        "c1,c2,want", [(4, 0, 0), (0, 0, 16), (2, 1, 16)]
    )
    def test_degeneracy_examples(self, c1, c2, want):
        assert degeneracy_determinant(BundleSpec.from_chern(c1, c2)) == want

    def test_degeneracy_identity_sweep(self):
        for c1 in range(-10, 11):
            for c2 in range(-10, 11):
                spec = BundleSpec.from_chern(c1, c2)
                assert degeneracy_determinant(spec) == 16 - spec.gamma()

    def test_degeneracy_refuses_p1_spec(self):
        with pytest.raises(ValueError, match="rank-2 bundles on P"):
            degeneracy_determinant(BundleSpec.from_split(1, (0, 0, 0, 1)))

    def test_h4_unimodular(self):
        for b in range(5):
            assert h4_basis_determinant(BundleSpec.from_split(3, (0, b))) == -1
        for spec in P1_RHO2:
            assert h4_basis_determinant(spec) == -1
        assert h4_basis_determinant(BundleSpec.from_chern(7, 3)) == -1


class TestContractionClassification:
    @pytest.mark.parametrize(
        "degrees,kind,count,quartic_degree",
        [
            ((0, 0, 0, 1), ContractionKind.SIXTEEN_CURVES, 16, None),
            ((0, 0, 1, 1), ContractionKind.RULED_OVER_POINTS, 4, None),
            ((0, 0, 0, 0), ContractionKind.SIXTY_FOUR_CURVES, 64, None),
            ((0, 0, 0, 2), ContractionKind.RULED_OVER_QUARTIC, None, 4),
            ((0, 1, 1, 1), ContractionKind.DIVISOR_TO_SURFACE, None, None),
            ((0, 0, 1, 2), ContractionKind.DIVISOR_TO_SURFACE, None, None),
            ((0, 0, 0, 3), ContractionKind.EXCLUDED, None, None),
        ],
    )
    def test_table(self, degrees, kind, count, quartic_degree):
        r = classify_contraction_p1(BundleSpec.from_split(1, degrees))
        assert r.kind is kind
        assert r.count == count
        assert r.quartic_degree == quartic_degree

    def test_sixteen_case_extras(self):
        r = classify_contraction_p1(BundleSpec.from_split(1, (0, 0, 0, 1)))
        assert r.k_y_squared == -7
        assert "quintic" in r.image

    def test_total_on_rho2(self):
        for spec in P1_RHO2:
            classify_contraction_p1(spec)  # must not raise

    def test_c1_over_3_refused(self):
        with pytest.raises(RhoNotTwoError):
            classify_contraction_p1(BundleSpec.from_split(1, (0, 0, 2, 2)))

    @pytest.mark.parametrize("degrees", [(0, 0), (0, 2)])
    def test_p3_spec_refused(self, degrees):
        # both pass the rho = 2 gate, which would classify them by c1 alone
        with pytest.raises(ValueError, match="split rank-4 bundle over P"):
            classify_contraction_p1(BundleSpec.from_split(3, degrees))

    def test_refuses_exactly_when_the_gate_does(self):
        refused = 0
        for spec in P1_GRID:
            gate = _refuses(require_rho_two, spec)
            assert _refuses(classify_contraction_p1, spec) == gate, spec
            refused += gate
        assert 0 < refused < len(P1_GRID)

    def test_count_64_matches_p3_fiber_count(self):
        # P^1 x P^3 seen from both projections
        from cybundle.invariants import fiber_count

        r = classify_contraction_p1(BundleSpec.from_split(1, (0, 0, 0, 0)))
        assert r.count == fiber_count(BundleSpec.from_split(3, (0, 0)))


class TestKYSquared:
    def test_value(self):
        assert verify_KY_squared(BundleSpec.from_split(1, (0, 0, 0, 1))) == -7

    def test_wrong_spec_refused(self):
        with pytest.raises(ValueError):
            verify_KY_squared(BundleSpec.from_split(1, (0, 0, 1, 1)))

    @pytest.mark.parametrize("t", range(-2, 3))
    def test_matches_reference_ring(self, t):
        # the request's two grids against the test-side ring: e = xi - H and
        # -K_Z = r*xi + (m + 1 - c1)*H on the normalized spec, for any twist
        spec = BundleSpec.from_split(1, (t, t, t, t + 1))
        norm = spec.normalized()
        e = combine(norm, (1, xi(norm)), (-1, hyperplane(norm)))
        L = anticanonical_class(norm)
        assert verify_KY_squared(spec) == integrate(L * e * e * e) == -7

    def test_point_class_subcheck(self):
        from cybundle.chow import reduce

        spec = BundleSpec.from_split(3, (0, 1))
        assert integrate(reduce(spec, {(1, 3): 1})) == 1
