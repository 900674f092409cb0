import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chow_kernel_check
from cybundle.chow import (
    BundleSpec,
    ChowClass,
    IntersectionNumbers,
    anticanonical_class,
    closed_form_intersections,
    integrate,
    intersection_numbers_by_reduction,
    reduce,
    tangent_total_chern,
)

P3_SPECS = [BundleSpec.from_split(3, (0, b)) for b in range(0, 9)]
# c1 = 60 is the largest p1 c1 in the N = 20 survey
HOMOMORPHISM_SPECS = [
    BundleSpec.from_chern(3, 2),
    BundleSpec.from_split(3, (-1, 4)),
    BundleSpec.from_split(1, (0, 1, 2, 3)),
    BundleSpec.from_split(1, (0, 20, 20, 20)),
]
P1_SPECS = [
    BundleSpec.from_split(1, (0, a1, a2, a3))
    for a1 in range(4)
    for a2 in range(a1, 4)
    for a3 in range(a2, 4)
]
# negative, twisted and large degrees on both bases
SPLIT_SPECS = (
    [BundleSpec.from_split(3, (a, b)) for a in (-3, 0, 2) for b in range(a, a + 9)]
    + [BundleSpec.from_split(1, (a, a, a + 1, a + 7)) for a in (-2, 0, 3)]
    + P1_SPECS
)


class TestReduce:
    def test_relation_instance(self):
        spec = BundleSpec.from_split(3, (0, 4))
        got = reduce(spec, {(2, 0): 1})
        assert got == ChowClass(spec, {(1, 1): 4})

    def test_trivial_p1_bundle(self):
        spec = BundleSpec.from_split(1, (0, 0, 0, 0))
        assert reduce(spec, {(4, 0): 1}) == ChowClass(spec)
        # the top intersection lives in xi^3*H
        assert integrate(reduce(spec, {(3, 1): 1})) == 1

    def test_two_step_reduction(self):
        # c1=2, c2=1: xi^3 -> 3*H^2*xi - 2*H^3
        spec = BundleSpec.from_chern(2, 1)
        got = reduce(spec, {(3, 0): 1})
        assert got == ChowClass(spec, {(1, 2): 3, (0, 3): -2})

    def test_h_truncation(self):
        spec = BundleSpec.from_split(3, (0, 2))
        assert reduce(spec, {(0, 4): 1}) == ChowClass(spec)
        spec1 = BundleSpec.from_split(1, (0, 0, 1, 1))
        assert reduce(spec1, {(0, 2): 1}) == ChowClass(spec1)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_ring_homomorphism(self, data):
        spec = data.draw(st.sampled_from(HOMOMORPHISM_SPECS))
        r, m = spec.rank, spec.base_dim
        formal = st.dictionaries(
            st.tuples(st.integers(0, r + 2), st.integers(0, m + 1)),
            st.integers(-4, 4),
            max_size=5,
        )
        f1, f2 = data.draw(formal), data.draw(formal)
        prod = {}
        for (i1, j1), c1 in f1.items():
            for (i2, j2), c2 in f2.items():
                k = (i1 + i2, j1 + j2)
                prod[k] = prod.get(k, 0) + c1 * c2
        x = reduce(spec, f1) * reduce(spec, f2)
        assert x == reduce(spec, prod)
        # the grid stores nonzero ints only
        assert all(type(c) is int and c for c in x.coeffs.values())
        assert type(integrate(x)) is int

    def test_int_coefficients_only(self):
        spec = BundleSpec.from_split(3, (0, 4))
        for c in (Fraction(1, 2), Fraction(1), 1.0):
            with pytest.raises(TypeError):
                ChowClass(spec, {(0, 0): c})
            with pytest.raises(TypeError):
                reduce(spec, {(2, 0): c})

    def test_index_outside_normal_form_refused(self):
        # xi^5 on a rank-2 bundle is not in the normal form i < rank
        with pytest.raises(ValueError, match="normal form"):
            ChowClass(BundleSpec.from_split(3, (0, 1)), {(5, 0): 1})

    def test_unsupported_operand_raises_type_error(self):
        xi = ChowClass.xi(BundleSpec.from_split(3, (0, 4)))
        for other in (2, Fraction(1, 2), 0.5, "x"):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(TypeError):
                    op(xi, other)
                with pytest.raises(TypeError):
                    op(other, xi)


class TestChowClass:
    def test_classes_on_different_bundles_refused(self):
        # both specs are rank 2 over P^3, so each grid is in normal form on either
        a = ChowClass.xi(BundleSpec.from_split(3, (0, 1)))
        b = ChowClass.xi(BundleSpec.from_split(3, (0, 2)))
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError, match="classes live on different bundles"):
                op(a, b)


class TestIntegrate:
    def test_point_class(self):
        spec = BundleSpec.from_chern(5, 3)
        assert integrate(reduce(spec, {(1, 3): 1})) == 1

    def test_h4_vanishes(self):
        spec = BundleSpec.from_chern(5, 3)
        assert integrate(reduce(spec, {(0, 4): 1})) == 0

    def test_xi4_closed_form(self):
        spec = BundleSpec.from_split(3, (0, 4))
        assert integrate(reduce(spec, {(4, 0): 1})) == 64


class TestClosedForms:
    @pytest.mark.parametrize(
        "c1,c2,expected",
        [(4, 0, (1, 4, 16, 64)), (0, 0, (1, 0, 0, 0)), (2, 1, (1, 2, 3, 4))],
    )
    def test_examples(self, c1, c2, expected):
        spec = BundleSpec.from_chern(c1, c2)
        assert closed_form_intersections(spec) == IntersectionNumbers(*expected)

    @pytest.mark.parametrize("spec", P3_SPECS + P1_SPECS, ids=str)
    def test_matches_reduction(self, spec):
        assert closed_form_intersections(spec) == intersection_numbers_by_reduction(spec)

    # the oracle pairs -K_Z with these numbers, so they are pinned against
    # reduce + integrate on every Chern datum its own tests use
    def test_p3_grid_matches_reduction(self):
        for c1 in range(-8, 21):
            for c2 in range(-10, 21):
                spec = BundleSpec.from_chern(c1, c2)
                assert closed_form_intersections(spec) == \
                    intersection_numbers_by_reduction(spec), spec

    def test_p1_range_matches_reduction(self):
        for c1 in range(-8, 71):
            spec = BundleSpec(1, 4, c1)
            assert closed_form_intersections(spec) == \
                intersection_numbers_by_reduction(spec), spec


class TestTangentChern:
    def test_degree_one_is_anticanonical(self):
        # entry j of c_1 is the coefficient of xi^(1-j) * H^j
        cases = [
            (BundleSpec.from_split(3, (0, 4)), [2, 0]),
            (BundleSpec.from_split(1, (0, 0, 0, 0)), [4, 2]),
            (BundleSpec.from_split(3, (0, 0)), [2, 4]),
        ]
        for spec, c1 in cases:
            ct = tangent_total_chern(spec)
            assert ct[1] == c1
            assert chow_kernel_check.as_class(spec, ct[1]) == anticanonical_class(spec)

    @pytest.mark.parametrize("spec", P3_SPECS[:5] + P1_SPECS[:8], ids=str)
    def test_general_anticanonical_formula(self, spec):
        # degree-1 part is r*xi + (m+1-c1)*H in both geometries
        ct = tangent_total_chern(spec)
        assert ct[1] == [spec.rank, spec.base_dim + 1 - spec.c1]

    def test_c0_is_one(self):
        ct = tangent_total_chern(BundleSpec.from_split(3, (0, 2)))
        assert ct[0] == [1]
        assert [len(part) for part in ct] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("spec", SPLIT_SPECS, ids=str)
    def test_matches_product_over_chern_roots(self, spec):
        # reference: the split degrees are the Chern roots of E, so
        # c(T_Z) = prod_i (1 + xi - a_i*H) * (1 + H)^(m+1)
        assert tangent_total_chern(spec) == chow_kernel_check.ref_chern_roots(spec)

    def test_non_split_degree_one_is_anticanonical(self):
        for c1 in range(-3, 6):
            for c2 in range(-2, 5):
                spec = BundleSpec.from_chern(c1, c2)
                ct = tangent_total_chern(spec)
                assert ct[0] == [1]
                assert chow_kernel_check.as_class(spec, ct[1]) == anticanonical_class(spec)


class TestBundleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BundleSpec(2, 2, 0)
        with pytest.raises(ValueError):
            BundleSpec(3, 2, 5, 0, (0, 4))  # c1 mismatch
        with pytest.raises(ValueError):
            BundleSpec(1, 4, 1, 1)  # c2 on P^1

    def test_split_degree_count_must_equal_rank(self):
        # three degrees summing to c1 = 3 at rank 4
        with pytest.raises(ValueError, match="count"):
            BundleSpec(1, 4, 3, 0, (0, 1, 2))

    @pytest.mark.parametrize("base, degrees", [
        (1, (0, 0, 0, 1.5)),
        (1, (0, 0, 0, Fraction(3, 2))),
        (1, (0, 0, 0, Fraction(1))),
        (3, ("0", " 2")),
    ])
    def test_from_split_refuses_non_integral_degrees(self, base, degrees):
        # int() would truncate 1.5 to 1 and parse " 2"; a degree is an int
        with pytest.raises(TypeError):
            BundleSpec.from_split(base, degrees)

    @pytest.mark.parametrize("args", [
        (3, 2, 1.5, 0),  # from_chern(1.5, 0): a record with c3_X = -186.0
        (3, 2, Fraction(2), 0),
        (3, 2, "1", 0),
        (3, 2, 0, 0.5),
        (1, 4, 3.0, 0, (0, 1, 1, 1)),  # a record with xi3 = 11.0
        (1.0, 4, 3, 0, (0, 1, 1, 1)),
        (1, 4.0, 3, 0, (0, 1, 1, 1)),
        (1, 4, 3, 0, (0, 1, 1, 1.0)),
    ], ids=["c1-float", "c1-fraction", "c1-str", "c2", "c1-split", "base_dim", "rank",
            "degree"])
    def test_init_refuses_non_integral_fields(self, args):
        # each field is an int: a float would reach every record as a float
        with pytest.raises(TypeError):
            BundleSpec(*args)

    def test_unsorted_split_degrees_refused(self):
        # c1 and c2 agree with (2, 0); only the order is wrong
        with pytest.raises(ValueError, match="sorted ascending"):
            BundleSpec(3, 2, 2, 0, (2, 0))

    def test_c2_must_equal_the_product_of_split_degrees(self):
        # (0, 2) has c2 = 0, not 1
        with pytest.raises(ValueError, match="c2 must equal the product"):
            BundleSpec(3, 2, 2, 1, (0, 2))

    def test_normalization_needs_split_degrees(self):
        # Chern data alone have no least degree to twist away
        with pytest.raises(ValueError, match="normalization needs split degrees"):
            BundleSpec.from_chern(1, 0).normalized()

    def test_normalization(self):
        spec = BundleSpec.from_split(3, (1, 3))
        norm = spec.normalized()
        assert norm.split_degrees == (0, 2)
        assert spec.gamma() == norm.gamma()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        base=st.sampled_from([1, 3]),
        degrees=st.lists(st.integers(-6, 9), min_size=4, max_size=4),
    )
    def test_normalized_fast_path(self, base, degrees):
        spec = BundleSpec.from_split(base, degrees[: 2 if base == 3 else 4])
        norm = spec.normalized()
        lo = min(spec.split_degrees)
        if lo == 0:
            assert norm is spec
        else:
            assert norm is not spec
            assert norm == BundleSpec.from_split(
                base, [d - lo for d in spec.split_degrees]
            )
        assert norm.normalized() is norm
