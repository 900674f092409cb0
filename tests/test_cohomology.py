from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bott_kernel_check
from cybundle.cohomology import (
    SplitBundle,
    cohomology,
    end_bundle,
    euler_characteristic,
    line_cohomology,
    sym_power,
)


class TestLineCohomology:
    def test_structure_sheaf(self):
        assert line_cohomology(3, 0, 0) == 1

    def test_canonical_p3(self):
        assert line_cohomology(3, -4, 3) == 1

    def test_duality_p1(self):
        assert line_cohomology(1, -3, 1) == 2

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            line_cohomology(1, 0, 2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_serre_duality_sweep(self, m):
        for d in range(-10, 11):
            for i in range(m + 1):
                assert line_cohomology(m, d, i) == line_cohomology(m, -d - m - 1, m - i)


class TestConstructions:
    def test_base_other_than_p1_or_p3_refused(self):
        with pytest.raises(ValueError, match=r"P\^1 or P\^3"):
            SplitBundle(2, (0, 1))

    @pytest.mark.parametrize("degrees", [(0.5, 1), (0, 1.0), (0, Fraction(1)), ("0",)])
    def test_non_integral_degree_refused(self, degrees):
        with pytest.raises(TypeError):
            SplitBundle(1, degrees)

    @pytest.mark.parametrize("base_dim", [3.0, Fraction(3), "3"])
    def test_non_integral_base_refused(self, base_dim):
        with pytest.raises(TypeError):
            SplitBundle(base_dim, (0, 1))

    @pytest.mark.parametrize("t", [0.5, 1.0, Fraction(1), Fraction(1, 2)])
    def test_non_integral_twist_refused(self, t):
        # a twist is an int, even where a float or Fraction equals one
        b = SplitBundle(1, (-5, 0, 1))
        with pytest.raises(TypeError):
            b.twist(t)
        for i in (0, 1):
            with pytest.raises(TypeError):
                cohomology(b, i, t)

    def test_sym2_pair_sums(self):
        assert sym_power(SplitBundle(1, (0, 2)), 2).degrees == (0, 2, 4)

    def test_sym4_trivial_rank4(self):
        s = sym_power(SplitBundle(1, (0, 0, 0, 0)), 4)
        assert s.degrees == (0,) * 35

    def test_sym2_twisted_pushforward_degrees(self):
        # Sym^2(a, b) twisted by -(a+b)+4 -> (a-b+4, 4, b-a+4)
        a, b = 1, 3
        s = sym_power(SplitBundle(3, (a, b)), 2).twist(-(a + b) + 4)
        assert s.degrees == tuple(sorted((a - b + 4, 4, b - a + 4)))

    def test_end_examples(self):
        assert end_bundle(SplitBundle(3, (0, 4))).degrees == (-4, 0, 0, 4)
        assert end_bundle(SplitBundle(3, (0, 0))).degrees == (0, 0, 0, 0)
        e = end_bundle(SplitBundle(1, (0, 1, 2, 3)))
        assert len(e.degrees) == 16
        assert Counter(e.degrees) == Counter(-d for d in e.degrees)

    def test_end_self_dual(self):
        for degs in [(0, 3), (1, 4)]:
            e = end_bundle(SplitBundle(3, degs))
            assert e.dual().degrees == e.degrees


class TestCohomologySums:
    def test_h2_end_on_p3(self):
        assert cohomology(end_bundle(SplitBundle(3, (0, 4))), 2) == 0

    def test_h1_sym4_trivial_twisted(self):
        s = sym_power(SplitBundle(1, (0, 0, 0, 0)), 4)
        assert cohomology(s.twist(2), 1) == cohomology(s, 1, 2) == 0

    def test_h1_sym4_0022_twisted(self):
        # Sym^4(0,0,2,2) has five degree-0 summands; the twist by -2 makes
        # each contribute h^1 = 1
        s = sym_power(SplitBundle(1, (0, 0, 2, 2)), 4)
        assert cohomology(s.twist(-2), 1) == cohomology(s, 1, -2) == 5

    def test_twist_argument_examples(self):
        # (O(-4) + O(1) + O(4)) (x) O(-1) on P^1 is O(-5) + O + O(3):
        # h^0 = 1 + 4, h^1 = 4
        b = SplitBundle(1, (-4, 1, 4))
        assert (cohomology(b, 0, -1), cohomology(b, 1, -1)) == (5, 4)
        # on P^3 the twist moves a summand across each boundary
        b = SplitBundle(3, (-2, 0))
        assert [cohomology(b, 0, t) for t in (-1, 0, 2)] == [0, 1, 11]
        assert [cohomology(b, 3, t) for t in (-1, -2, -3)] == [0, 1, 4]

    @pytest.mark.parametrize("m", [1, 3])
    def test_euler_characteristic_additivity(self, m):
        for degs in [(-6, -1, 0, 3), (2,), (-4, 5), (0, 0, 1)]:
            b = SplitBundle(m, degs)
            alt = sum((-1) ** i * cohomology(b, i) for i in range(m + 1))
            assert euler_characteristic(b) == alt


PROPS = settings(max_examples=150, derandomize=True, deadline=None)
SPLIT_BUNDLES = st.builds(
    SplitBundle,
    st.sampled_from([1, 3]),
    st.lists(st.integers(-12, 12), min_size=1, max_size=6).map(tuple),
)


class TestBottKernelProperties:
    """cohomology and sym_power against references written summand by
    summand, without the kernel's own iteration."""

    @PROPS
    @given(b=SPLIT_BUNDLES, t=st.integers(-20, 20))
    def test_cohomology_is_the_sum_over_summands(self, b, t):
        # untwisted, and twisted by t both through the argument and through
        # the twisted bundle
        m = b.base_dim
        for i in range(m + 1):
            want = want_t = 0
            for d in b.degrees:
                want += line_cohomology(m, d, i)
                want_t += line_cohomology(m, d + t, i)
            assert cohomology(b, i) == want
            assert cohomology(b, i, t) == cohomology(b.twist(t), i) == want_t
        for i in (-1, m + 1):
            for twist in (0, t):
                with pytest.raises(ValueError):
                    cohomology(b, i, twist)

    @PROPS
    @given(b=SPLIT_BUNDLES, k=st.integers(0, 4))
    def test_sym_power_is_the_multiset_sums(self, b, k):
        # one summand per non-decreasing index tuple, i.e. per k-multiset
        want = sorted(
            sum(b.degrees[j] for j in idx)
            for idx in product(range(len(b.degrees)), repeat=k)
            if list(idx) == sorted(idx)
        )
        s = sym_power(b, k)
        assert s.base_dim == b.base_dim
        assert list(s.degrees) == want

    @PROPS
    @given(b=SPLIT_BUNDLES, t=st.integers(-20, 20))
    def test_twist_and_dual_equal_sorted_construction(self, b, t):
        # twist and dual skip the constructor's sort; the result is the
        # bundle the constructor builds from the same degrees
        for got, degrees in (
            (b.twist(t), [d + t for d in b.degrees]),
            (b.dual(), [-d for d in b.degrees]),
        ):
            want = SplitBundle(b.base_dim, tuple(sorted(degrees)))
            assert got == want
            assert hash(got) == hash(want)
            assert got.degrees == want.degrees
            assert type(got.degrees) is tuple

    def test_negative_sym_power_refused(self):
        with pytest.raises(ValueError):
            sym_power(SplitBundle(1, (0, 1)), -1)

    def test_stdlib_script(self):
        # the N <= 20 survey and seeded boundary bundles at every small
        # twist, also run as a script under other Pythons
        assert bott_kernel_check.check(seed=1, count=500) == 1771 + 500
