from fractions import Fraction
from math import comb
from random import Random

import pytest

import cybundle.discriminant
import multipoly_kernel_check
from multipoly_kernel_check import ONE, Z, as_fractions
from cybundle.chow import BundleSpec
from cybundle.discriminant import (
    MAX_SECTION_BOUND,
    Octic,
    QuadraticSection,
    build_discriminant,
    base_locus_expected,
    gradient_identity_holds,
    sample_section,
    scaling_law_check,
    section_degrees,
    singularity_witness,
    witness_section,
)
from cybundle.invariants import admissibility_p3
from cybundle.ratpoly import (
    MultiPoly,
    monomials_of_degree,
    multipoly_gradient,
    to_canonical_text,
    value_and_gradient,
)

ADMISSIBLE = [BundleSpec.from_split(3, (0, b)) for b in range(5)]
# every splitting (a, b) with a in -3..6 and gap b - a in 0..9
P3_GRID = [BundleSpec.from_split(3, (a, a + gap)) for a in range(-3, 7) for gap in range(10)]


def _mono(e, c=1):
    return MultiPoly({e: c})


class TestBuildDiscriminant:
    def test_monomial_arithmetic(self):
        spec = BundleSpec.from_split(3, (0, 2))
        q = QuadraticSection(
            spec,
            _mono((2, 0, 0, 0)),
            _mono((4, 0, 0, 0)),
            _mono((6, 0, 0, 0)),
        )
        assert build_discriminant(q).poly == _mono((8, 0, 0, 0), -3)

    def test_reducible_degenerate_shape(self):
        spec = BundleSpec.from_split(3, (0, 2))
        s01 = _mono((4, 0, 0, 0), 2)
        q = QuadraticSection(spec, MultiPoly(), s01, _mono((6, 0, 0, 0)))
        assert build_discriminant(q).poly == s01 * s01

    def test_degree_8_and_linear_system_dimension(self):
        spec = BundleSpec.from_split(3, (0, 1))
        q = sample_section(spec, 5, 2)
        octic = build_discriminant(q)
        assert octic.poly.total_degree() == 8
        # |O(8)| on P^3 has C(11,3) = 165 monomials, i.e. P^164
        assert len(monomials_of_degree(8)) == comb(11, 3) == 165

    def test_json_coeffs_keys(self):
        octic = build_discriminant(sample_section(BundleSpec.from_split(3, (0, 3)), 4, 1000))
        got = octic.to_json_coeffs()
        assert len(got) == len(octic.poly.num) > 100
        for key, text in got.items():
            c = Fraction(octic.poly.num[tuple(map(int, key.split(",")))], octic.poly.den)
            assert text == f"{c.numerator}/{c.denominator}"
        assert Octic(MultiPoly()).to_json_coeffs() == {}

    def test_json_coeffs_two_digit_exponents(self):
        # no octic has them; the stand-in is an Octic wrapper, which skips
        # the degree check, around a polynomial of mixed degrees up to 124
        p = MultiPoly({(10, 0, 0, 12): Fraction(3, 4), (0, 11, 2, 0): -1,
                       (1, 0, 23, 100): Fraction(6, 8), (0, 0, 0, 0): 2})
        stand_in = Octic._trusted(p)
        assert stand_in.to_json_coeffs() == {
            "10,0,0,12": "3/4", "0,11,2,0": "-1/1", "1,0,23,100": "3/4", "0,0,0,0": "2/1"}
        assert stand_in.to_text() == to_canonical_text(p)

    def test_degree_mismatch_refused(self):
        spec = BundleSpec.from_split(3, (0, 2))
        with pytest.raises(ValueError):
            QuadraticSection(spec, _mono((3, 0, 0, 0)), _mono((4, 0, 0, 0)), _mono((6, 0, 0, 0)))
        # a lower degree and mixed degrees, in a section and in the octic
        s00, s01, s11 = _mono((2, 0, 0, 0)), _mono((4, 0, 0, 0)), _mono((6, 0, 0, 0))
        for bad in (_mono((3, 0, 0, 0)), MultiPoly({(4, 0, 0, 0): 1, (3, 0, 0, 0): 1})):
            with pytest.raises(ValueError, match="s01 must be homogeneous of degree 4"):
                QuadraticSection(spec, s00, bad, s11)
        for bad in (_mono((7, 0, 0, 0)), MultiPoly({(8, 0, 0, 0): 1, (0, 7, 0, 0): 1})):
            with pytest.raises(ValueError, match="homogeneous of degree 8"):
                Octic(bad)
        QuadraticSection(spec, MultiPoly(), s01, s11)
        Octic(MultiPoly())

    def test_spec_other_than_split_p3_refused(self):
        # without this guard both reach admissibility_p3, which refuses them in other words
        zero = MultiPoly()
        for spec in (BundleSpec.from_chern(1, 0), BundleSpec.from_split(1, (0, 0, 0, 1))):
            with pytest.raises(ValueError, match="need a split rank-2 spec on P\\^3"):
                QuadraticSection(spec, zero, zero, zero)

    def test_inadmissible_refused(self):
        spec = BundleSpec.from_split(3, (0, 5))
        with pytest.raises(ValueError):
            sample_section(spec, 0, 1)


class TestScalingLaw:
    def test_unit_and_zero(self):
        q = sample_section(ADMISSIBLE[2], 1, 2)
        octic = build_discriminant(q)
        assert scaling_law_check(q, octic, 1)
        assert scaling_law_check(q, octic, 0)
        assert build_discriminant(q.scale(0)).poly.is_zero()

    def test_random_scalars(self):
        for seed in range(10):
            q = sample_section(ADMISSIBLE[seed % 5], seed, 2)
            octic = build_discriminant(q)
            assert scaling_law_check(q, octic, Fraction(3, 2))
            assert scaling_law_check(q, octic, Fraction(-7, 5))


class TestGradientIdentity:
    @pytest.mark.parametrize("bound", [0, 1, 2, 1000, MAX_SECTION_BOUND])
    @pytest.mark.parametrize("spec", ADMISSIBLE, ids=str)
    def test_randomized(self, spec, bound):
        for seed in range(5):
            q = sample_section(spec, seed, bound)
            assert gradient_identity_holds(q, build_discriminant(q))

    @pytest.mark.parametrize("spec", ADMISSIBLE, ids=str)
    def test_swapped_partials_fail(self, spec, monkeypatch):
        # d/dz1 and d/dz2 of the octic swapped: z1*d2 and z2*d1 land in
        # fields 1 and 2
        def swapped(p):
            g0, g1, g2, g3 = multipoly_gradient(p)
            return g0, g2, g1, g3

        monkeypatch.setattr(cybundle.discriminant, "multipoly_gradient", swapped)
        for q in self._sections(spec)[1:]:  # not the zero section's zero octic
            assert not gradient_identity_holds(q, build_discriminant(q))

    @pytest.mark.parametrize("spec", ADMISSIBLE, ids=str)
    def test_fields_traded_with_euler_sum_kept_fail(self, spec, monkeypatch):
        # d1 + z2*h and d2 - z1*h keep sum_i z_i*d_i = 8*Delta, the Euler
        # identity that the four fields add up to; only the fields compared
        # one by one tell the partials apart
        h = _mono((6, 0, 0, 0))

        def traded(p):
            g0, g1, g2, g3 = multipoly_gradient(p)
            return (g0, MultiPoly.sum_of_products([(1, g1, ONE), (1, h, Z[2])]),
                    MultiPoly.sum_of_products([(1, g2, ONE), (-1, h, Z[1])]), g3)

        sections = self._sections(spec)
        for q in sections:
            g = traded(build_discriminant(q).poly)
            euler = MultiPoly.sum_of_products((1, Z[i], g[i]) for i in range(4))
            assert euler == build_discriminant(q).poly * 8
        monkeypatch.setattr(cybundle.discriminant, "multipoly_gradient", traded)
        for q in sections:
            assert not gradient_identity_holds(q, build_discriminant(q))

    @staticmethod
    def _sections(spec):
        return [sample_section(spec, seed, bound) for seed, bound in
                ((0, 0), (0, 1), (3, 2), (5, 1000), (7, MAX_SECTION_BOUND))]

    def test_matches_four_product_form(self):
        # p3 (0,0)..(0,4), (1,3), (-2,2) at bounds 0, 1, 2, 1000, 10^6, each
        # octic and 12 perturbations of it; the script runs more seeds
        compared, held = multipoly_kernel_check.check_gradient_identity(seed=1)
        assert (compared, held) == (7 * 5 * 2 * 13, 7 * 5 * 2)


class TestChecksVerifyTheGivenOctic:
    """Both checks verify the octic handed to them, the one the command
    prints: Delta(q) + z0^8 fails both, which a check that rebuilt Delta(q)
    itself would not notice."""

    @pytest.mark.parametrize("spec", ADMISSIBLE, ids=str)
    def test_wrong_octic_fails_both_checks(self, spec):
        # bound 0 gives the zero section, whose octic is zero
        for seed, bound in ((0, 2), (6, 1000), (1, 0)):
            q = sample_section(spec, seed, bound)
            octic = build_discriminant(q)
            wrong = Octic(MultiPoly.sum_of_products(
                [(1, octic.poly, ONE), (1, _mono((8, 0, 0, 0)), ONE)]))
            assert scaling_law_check(q, octic, Fraction(3, 2))
            assert gradient_identity_holds(q, octic)
            assert not scaling_law_check(q, wrong, Fraction(3, 2))
            assert not gradient_identity_holds(q, wrong)


class TestGapRule:
    """section_degrees holds the one gap refusal of this module: it, the
    sampler, the section and the Bezout count refuse exactly the splittings
    that admissibility_p3 calls inadmissible."""

    def test_refuses_exactly_the_inadmissible(self):
        zero = MultiPoly()
        calls = {
            "section_degrees": section_degrees,
            "sample_section": lambda spec: sample_section(spec, 0, 1),
            "QuadraticSection": lambda spec: QuadraticSection(spec, zero, zero, zero),
            "base_locus_expected": base_locus_expected,
        }
        refused = 0
        for spec in P3_GRID:
            admissible = admissibility_p3(spec)
            refused += not admissible
            for name, call in calls.items():
                try:
                    call(spec)
                except ValueError as exc:
                    assert not admissible, (name, spec)
                    assert str(exc) == "inadmissible spec: b - a > 4"
                else:
                    assert admissible, (name, spec)
        assert refused == 50


class TestBaseLocus:
    @pytest.mark.parametrize(
        "degrees,count", [((0, 0), 64), ((0, 4), 0), ((0, 1), 60)]
    )
    def test_expected_counts(self, degrees, count):
        spec = BundleSpec.from_split(3, degrees)
        assert base_locus_expected(spec) == count
        d00, d01, d11 = section_degrees(spec)
        assert d00 * d01 * d11 == count


class TestSingularityWitness:
    def test_constructed_base_locus_point(self):
        for spec in ADMISSIBLE:
            q = witness_section(sample_section(spec, 0, 2))
            rec = singularity_witness(q, (1, 0, 0, 0))
            assert rec.on_base_locus
            assert rec.delta == 0
            assert all(g == 0 for g in rec.gradient)
            assert rec.singular_point_verified

    def test_witness_drops_only_pure_z0_terms(self):
        for spec in ADMISSIBLE:
            q = sample_section(spec, 4, 3)
            w = witness_section(q)
            for full, dropped, degree in zip(
                (q.s00, q.s01, q.s11), (w.s00, w.s01, w.s11), section_degrees(spec)
            ):
                want = as_fractions(full)
                want.pop((degree, 0, 0, 0), None)
                assert dropped == MultiPoly(want)

    def test_generic_point_no_claim(self):
        q = sample_section(ADMISSIBLE[1], 3, 2)
        rec = singularity_witness(q, (1, 1, 1, 1))
        if rec.delta != 0:
            assert not rec.singular_point_verified
            assert "no singularity claim" in rec.note

    def test_on_octic_off_base_locus(self):
        spec = ADMISSIBLE[2]
        # Delta = -4 z0^2 z1^6 vanishes at (1,0,0,0) although s00 does not
        q = QuadraticSection(spec, _mono((2, 0, 0, 0)), MultiPoly(), _mono((0, 6, 0, 0)))
        rec = singularity_witness(q, (1, 0, 0, 0))
        assert not rec.on_base_locus
        assert rec.delta == 0
        assert "smooth-point test not performed" in rec.note

    def test_zero_point_refused(self):
        q = sample_section(ADMISSIBLE[0], 0, 1)
        with pytest.raises(ValueError):
            singularity_witness(q, (0, 0, 0, 0))

    @pytest.mark.parametrize("point", [(1, 0, 0), (1, 0, 0, 0, 0)], ids=str)
    def test_malformed_point_refused(self, point):
        q = witness_section(sample_section(ADMISSIBLE[0], 0, 1))
        with pytest.raises(ValueError, match=r"a point of P\^3 has 4 coordinates"):
            singularity_witness(q, point)

    def test_values_match_evaluated_partials(self):
        points = [(1, 0, 0, 0), (1, 1, 1, 1), (Fraction(1, 2), -1, Fraction(2, 3), 3)]
        for spec in ADMISSIBLE:
            q = sample_section(spec, 5, 1000)
            delta = build_discriminant(q).poly
            for point in points:
                rec = singularity_witness(q, point)
                assert rec.delta == delta.evaluate(point)
                assert rec.gradient == tuple(g.evaluate(point) for g in multipoly_gradient(delta))
                assert (rec.s00, rec.s01, rec.s11) == tuple(
                    p.evaluate(point) for p in (q.s00, q.s01, q.s11)
                )

    @pytest.mark.parametrize("bound", [0, 1, 2, 1000])
    def test_low_order_section_terms_give_the_full_values(self, bound):
        # the witness builds Delta from the section terms of order < 2 at the
        # point alone; its record holds the values of the whole section
        points = multipoly_kernel_check.zero_coordinate_points(Random(bound), 2)
        points.append((Fraction(1, 2), -1, Fraction(2, 3), 3))
        for spec in ADMISSIBLE:
            for seed in (0, 7):
                q = sample_section(spec, seed, bound)
                for s in (q, witness_section(q)):
                    delta = build_discriminant(s).poly
                    for point in points:
                        rec = singularity_witness(s, point)
                        assert (rec.delta, rec.gradient) == value_and_gradient(delta, point)
                        assert (rec.s00, rec.s01, rec.s11) == tuple(
                            p.evaluate(point) for p in (s.s00, s.s01, s.s11))


class TestSampling:
    def test_determinism(self):
        a = sample_section(ADMISSIBLE[3], 0, 1)
        b = sample_section(ADMISSIBLE[3], 0, 1)
        assert (a.s00, a.s01, a.s11) == (b.s00, b.s01, b.s11)

    def test_seed_sensitivity(self):
        a = sample_section(ADMISSIBLE[3], 0, 3)
        b = sample_section(ADMISSIBLE[3], 1, 3)
        assert (a.s00, a.s01, a.s11) != (b.s00, b.s01, b.s11)

    def test_bound_zero_gives_zero_section(self):
        q = sample_section(ADMISSIBLE[0], 7, 0)
        assert q.s00.is_zero() and q.s01.is_zero() and q.s11.is_zero()

    def test_coefficients_within_bound(self):
        q = sample_section(ADMISSIBLE[2], 11, 3)
        for p in (q.s00, q.s01, q.s11):
            for c in as_fractions(p).values():
                assert abs(c) <= 3

    def test_bound_above_cap_refused(self):
        sample_section(ADMISSIBLE[1], 7, MAX_SECTION_BOUND)
        with pytest.raises(ValueError, match="bound must be <="):
            sample_section(ADMISSIBLE[1], 7, MAX_SECTION_BOUND + 1)

    def test_matches_lcg_reference(self):
        # p3 (0,0)..(0,4), 4 seeds, 5 bounds against the generator-object LCG
        assert multipoly_kernel_check.check_sampler() == 5 * 4 * 5

    def test_both_signs_at_the_cap(self):
        # numerators spread over [-bound, bound], not one side of zero
        q = sample_section(ADMISSIBLE[0], 7, MAX_SECTION_BOUND)
        nums = [c.numerator for p in (q.s00, q.s01, q.s11) for c in as_fractions(p).values()]
        assert len(nums) == 3 * 35
        assert all(abs(c) <= MAX_SECTION_BOUND for c in nums)
        positive = sum(c > 0 for c in nums)
        assert 30 <= positive <= 75
