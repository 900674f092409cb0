"""Acceptance suite: one test per exit criterion, exact tolerances (all
quantities are integers or rationals, so every comparison is equality).

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from cybundle.chow import (
    BundleSpec,
    closed_form_intersections,
    intersection_numbers_by_reduction,
)
from cybundle.cohomology import SplitBundle, cohomology, end_bundle
from cybundle.discriminant import (
    base_locus_expected,
    build_discriminant,
    gradient_identity_holds,
    sample_section,
    scaling_law_check,
    singularity_witness,
    witness_section,
)
from cybundle.invariants import (
    euler_characteristic_rank2_p3,
    fiber_count,
    h0_split,
    invariants_for,
    invariants_p1,
    invariants_p3,
    picard_number,
)
from cybundle.kahler import (
    ContractionKind,
    CubicForm,
    Rationality,
    boundary_rays,
    classify_contraction_p1,
    degeneracy_determinant,
    h4_basis_determinant,
    rationality_analysis,
    verify_KY_squared,
    w_cubic,
)
from cybundle.ratpoly import UniPoly

ADMISSIBLE_P3 = [
    BundleSpec.from_split(3, (a, b))
    for a in range(0, 9)
    for b in range(a, 9)
    if b - a <= 4
]
NORMALIZED_P3 = [BundleSpec.from_split(3, (0, b)) for b in range(5)]
P1_ALL = [
    BundleSpec.from_split(1, (0, a1, a2, a3))
    for a1 in range(0, 7)
    for a2 in range(a1, 7)
    for a3 in range(a2, 7)
]
P1_RHO2 = [s for s in P1_ALL if s.c1 <= 3]


def _passed(n, name):
    print(f"[criterion {n:2d}] {name}: PASS", file=sys.stderr)


def test_criterion_01_intersection_closed_forms():
    t0 = time.monotonic()
    for a in range(0, 9):
        for b in range(a, 9):
            spec = BundleSpec.from_split(3, (a, b))
            assert closed_form_intersections(spec) == intersection_numbers_by_reduction(spec)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(1, "intersection closed forms (P^3 family, < 1 s)")


def test_criterion_02_invariant_list_p3():
    for spec in ADMISSIBLE_P3:
        invariants_p3(spec)  # raises on closed-form/oracle mismatch
    inv0 = invariants_p3(BundleSpec.from_split(3, (0, 0)))
    assert (inv0.c3_X, inv0.h_dot_c2, inv0.mk_dot_c2) == (-168, 44, 224)
    _passed(2, "P^3 invariant list vs Chern oracle")


def test_criterion_03_c3_bound_realized():
    values = [(s.gamma(), invariants_p3(s).c3_X) for s in ADMISSIBLE_P3]
    assert min(c3 for _, c3 in values) == -296
    for g, c3 in values:
        assert c3 >= -296
        assert (c3 == -296) == (g == 16)
    _passed(3, "c3 >= -296, equality exactly at gamma = 16")


def test_criterion_04_fiber_count_triple_agreement():
    for spec in ADMISSIBLE_P3:
        assert fiber_count(spec) == 64 - 4 * spec.gamma()  # internal 3-way check
    assert fiber_count(BundleSpec.from_split(3, (0, 0))) == 64
    assert fiber_count(BundleSpec.from_split(3, (0, 4))) == 0
    _passed(4, "fiber count: closed form = pushforward c3 = Bezout")


def test_criterion_05_invariant_list_p1():
    t0 = time.monotonic()
    for spec in P1_RHO2:
        inv = invariants_p1(spec)  # raises on closed-form/oracle mismatch
        assert inv.c3_X == -168
        assert inv.h_dot_c2 == 24
        assert inv.mk_dot_c2 == 224
        assert inv.mk_cubed == 512
        assert inv.mk_sq_h == 64
        assert inv.xi_dot_c2 == 6 * spec.c1 + 44
        assert inv.xi3 == 3 * spec.c1 + 2
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passed(5, "P^1 invariant list vs oracle (< 5 s)")


def test_criterion_06_picard_criteria():
    for spec in P1_ALL:
        rho, _ = picard_number(spec)
        assert (rho == 2) == (spec.c1 <= 3)
    assert picard_number(BundleSpec.from_split(3, (0, 4)))[0] == 1
    for a in range(0, 9):
        for b in range(a, 9):
            assert cohomology(end_bundle(SplitBundle(3, (a, b))), 2) == 0
    _passed(6, "Picard criteria (rho=2 iff c1<=3; rho=1 at (0,4); h2(End)=0)")


def test_criterion_07_euler_characteristic():
    for a in range(0, 9):
        for b in range(a, 9):
            spec = BundleSpec.from_split(3, (a, b))
            assert euler_characteristic_rank2_p3(spec) == h0_split(a, b)
    assert euler_characteristic_rank2_p3(BundleSpec.from_split(3, (0, 4))) == 36
    _passed(7, "Riemann-Roch chi equals the split h^0 formula")


def test_criterion_08_determinant_identities():
    for c1 in range(-10, 11):
        for c2 in range(-10, 11):
            spec = BundleSpec.from_chern(c1, c2)
            assert degeneracy_determinant(spec) == 16 - spec.gamma()
            assert h4_basis_determinant(spec) == -1
    for spec in P1_ALL:
        assert h4_basis_determinant(spec) == -1
    _passed(8, "degeneracy det = 16 - gamma; H^4 Gram det = -1")


def test_criterion_09_cone_rationality():
    for spec in P1_RHO2:
        w = w_cubic(invariants_p1(spec))
        assert w.w12 == 0 and w.w03 == 0
        assert rationality_analysis(w).verdict is Rationality.RATIONAL_DOUBLE_LINE
    rng = random.Random(2024)
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        w = CubicForm(Fraction(1), -(2 * a + b), a * a + 2 * a * b, -(a * a * b))
        rep = rationality_analysis(w)
        assert rep.verdict is Rationality.RATIONAL_DOUBLE_LINE
        assert (a.numerator, a.denominator) in rep.double_roots
    _passed(9, "cone rationality: double lines detected, planted roots recovered")


def test_criterion_10_classification_table():
    for spec in P1_RHO2:
        report = classify_contraction_p1(spec)
        if report.kind is ContractionKind.RULED_OVER_POINTS:
            assert report.count == 4
        elif report.kind is ContractionKind.SIXTEEN_CURVES:
            assert report.count == 16
            assert report.k_y_squared == -7
        elif report.kind is ContractionKind.SIXTY_FOUR_CURVES:
            assert report.count == 64
    assert verify_KY_squared(BundleSpec.from_split(1, (0, 0, 0, 1))) == -7
    _passed(10, "contraction classification table; K_Y^2 = -7 recomputed")


def test_criterion_11_discriminant():
    t0 = time.monotonic()
    for spec in NORMALIZED_P3:
        base_locus_expected(spec)
        for seed in range(50):
            q = sample_section(spec, seed, 2)
            octic = build_discriminant(q)
            assert octic.poly.is_zero() or octic.poly.total_degree() == 8
            assert scaling_law_check(q, octic, Fraction(3, 2))
            assert gradient_identity_holds(q, octic)
            wq = witness_section(q)
            rec = singularity_witness(wq, (1, 0, 0, 0))
            assert rec.on_base_locus
            assert rec.delta == 0 and all(g == 0 for g in rec.gradient)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passed(11, "discriminant: degree, scaling, gradient identity, witnesses (< 30 s)")


def test_criterion_12_c2_positivity():
    for spec in NORMALIZED_P3:
        if spec.split_degrees == (0, 4):
            continue  # rho = 1: not in scope of the positivity claim
        assert all(v > 0 for v in boundary_rays(spec, invariants_for(spec)).c2_values)
    for spec in P1_RHO2:
        assert all(v > 0 for v in boundary_rays(spec, invariants_for(spec)).c2_values)
    # symbolic in k: (-K|X + k*pi^*h).c2 - (56 + 44k) has non-negative
    # coefficients for every admissible gamma, and 56 + 44k > 0 for k >= 0
    for spec in ADMISSIBLE_P3:
        g = spec.gamma()
        boundary_c2 = UniPoly([8 * g + 224, 44])
        lower = UniPoly([56, 44])
        diff = boundary_c2 - lower
        assert all(c >= 0 for c in diff.coeffs)
        assert lower.coeffs[0] > 0 and all(c >= 0 for c in lower.coeffs)
    _passed(12, "c2 positivity on rays and symbolically in k")
