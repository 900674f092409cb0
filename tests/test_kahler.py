import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cybundle.chow import BundleSpec
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
    rho_two_gate,
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


class TestRationality:
    def test_p1_shape_double_line(self):
        r = rationality_analysis(CubicForm(Fraction(2), Fraction(12), Fraction(0), Fraction(0)))
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert Fraction(0) in r.double_roots

    def test_constructed_double_line(self):
        # (x - y)^2 (x + y) = x^3 - x^2 y - x y^2 + y^3
        r = rationality_analysis(
            CubicForm(Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))
        )
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert r.double_roots == (Fraction(1),)

    def test_irrational(self):
        r = rationality_analysis(CubicForm(Fraction(1), Fraction(0), Fraction(0), Fraction(-2)))
        assert r.verdict is Rationality.IRRATIONAL_OR_UNRESOLVED

    def test_double_line_at_infinity(self):
        # x y^2: double line y = 0 only visible in the x = 1 chart
        r = rationality_analysis(CubicForm(Fraction(0), Fraction(0), Fraction(1), Fraction(0)))
        assert r.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert r.chart == "x"

    def test_zero_form_refused(self):
        with pytest.raises(ValueError):
            rationality_analysis(CubicForm(Fraction(0), Fraction(0), Fraction(0), Fraction(0)))

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
            assert a in r.double_roots

    def test_every_rho2_p1_spec_has_double_line(self):
        for spec in P1_RHO2:
            w = w_cubic(invariants_p1(spec))
            assert w.w12 == 0 and w.w03 == 0
            assert rationality_analysis(w).verdict is Rationality.RATIONAL_DOUBLE_LINE


def _discriminant(a, b, c, d):
    """The discriminant of the binary cubic a x^3 + b x^2 y + c x y^2 + d y^3."""
    return b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def _value_and_slope(coeffs, r):
    """p(r) and p'(r) for the coefficient list p (index = degree), by Horner."""
    value = slope = 0
    for c in reversed(coeffs):
        value, slope = value * r + c, slope * r + value
    return value, slope


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
    double root must be a zero of its chart polynomial and of that
    polynomial's derivative.
    """

    def test_verdict_iff_discriminant_vanishes(self):
        rng = random.Random(2311)
        doubles = total = 0
        for w in _seeded_cubics(rng, 3000):
            rep = rationality_analysis(w)
            double = rep.verdict is Rationality.RATIONAL_DOUBLE_LINE
            assert double == (_discriminant(w.w30, w.w21, w.w12, w.w03) == 0), w
            chart = [w.w03, w.w12, w.w21, w.w30]
            if rep.chart == "x":
                chart.reverse()
            assert double == bool(rep.double_roots)
            for r in rep.double_roots:
                assert type(r) is Fraction and _value_and_slope(chart, r) == (0, 0), (w, r)
            doubles, total = doubles + double, total + 1
        # both sides of the equivalence are well represented
        assert 0.3 < doubles / total < 0.7


def _rays(spec):
    return boundary_rays(spec, invariants_for(spec.normalized()))


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

    def test_unnormalized_spec_takes_normalized_record(self):
        spec = BundleSpec.from_split(3, (1, 3))
        assert _rays(spec) == _rays(spec.normalized())
        with pytest.raises(ValueError, match="normalized"):
            boundary_rays(spec, invariants_p3(spec))
        with pytest.raises(ValueError, match="normalized"):
            boundary_rays(spec, invariants_p3(BundleSpec.from_split(3, (0, 1))))


class TestRhoTwoGate:
    def test_p3_gap_refusal_is_admissibility(self):
        # the gap refusal reads admissibility_p3; O + O(4) is the one
        # admissible splitting with rho = 1
        for spec in P3_GRID:
            adm = admissibility_p3(spec)
            if adm.admissible:
                assert _refuses(require_rho_two, spec) == (adm.gap == 4), spec
            else:
                msg = f"^splitting gap {adm.gap} > 4: no smooth X$"
                with pytest.raises(RhoNotTwoError, match=msg):
                    require_rho_two(spec)

    def test_refuses_exactly_when_rho_is_not_two(self):
        # the gate decides without cohomology; picard_number computes rho
        admissible = [s for s in P3_GRID if admissibility_p3(s).admissible]
        specs = admissible + P1_GRID
        assert len(specs) == 765
        for spec in specs:
            assert _refuses(require_rho_two, spec) == (picard_number(spec)[0] != 2), spec

    def test_gate_and_require_rho_two_agree(self):
        # rho_two_gate returns what require_rho_two returns or raises
        specs = [BundleSpec.from_split(1, (0, a1, a2, a3))
                 for a1 in range(4) for a2 in range(a1, 4) for a3 in range(a2, 4)]
        specs += [BundleSpec.from_split(3, (a, a + gap))
                  for a in range(-2, 8) for gap in range(7)]
        specs += [BundleSpec.from_chern(c1, c2) for c1, c2 in [(0, 0), (2, 1), (4, 4)]]
        reasons = set()
        for spec in specs:
            try:
                want = (require_rho_two(spec), None)
            except RhoNotTwoError as exc:
                want = (None, str(exc))
                reasons.add(str(exc).split()[0])
            assert rho_two_gate(spec) == want, spec
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

    def test_h4_unimodular(self):
        for b in range(5):
            assert h4_basis_determinant(BundleSpec.from_split(3, (0, b))) == -1
        for spec in P1_RHO2:
            assert h4_basis_determinant(spec) == -1
        assert h4_basis_determinant(BundleSpec.from_chern(7, 3)) == -1


class TestContractionClassification:
    @pytest.mark.parametrize(
        "degrees,kind,count",
        [
            ((0, 0, 0, 1), ContractionKind.SIXTEEN_CURVES, 16),
            ((0, 0, 1, 1), ContractionKind.RULED_OVER_POINTS, 4),
            ((0, 0, 0, 0), ContractionKind.SIXTY_FOUR_CURVES, 64),
            ((0, 0, 0, 2), ContractionKind.RULED_OVER_QUARTIC, None),
            ((0, 1, 1, 1), ContractionKind.DIVISOR_TO_SURFACE, None),
            ((0, 0, 1, 2), ContractionKind.DIVISOR_TO_SURFACE, None),
            ((0, 0, 0, 3), ContractionKind.EXCLUDED, None),
        ],
    )
    def test_table(self, degrees, kind, count):
        r = classify_contraction_p1(BundleSpec.from_split(1, degrees))
        assert r.kind is kind
        assert r.count == count

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

    def test_point_class_subcheck(self):
        from cybundle.chow import integrate, reduce

        spec = BundleSpec.from_split(3, (0, 1))
        assert integrate(reduce(spec, {(1, 3): 1})) == 1
