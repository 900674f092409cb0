import random
from fractions import Fraction

import pytest

from cybundle.ratpoly import (
    MultiPoly,
    UniPoly,
    derivative,
    from_canonical_text,
    monomials_of_degree,
    multipoly_gradient,
    poly_gcd,
    rational_roots,
    to_canonical_text,
)


def _rand_unipoly(rng, max_deg=4, bound=5):
    return UniPoly([Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                    for _ in range(rng.randint(0, max_deg + 1))])


def _rand_multipoly(rng, deg, bound=4):
    terms = {}
    for e in monomials_of_degree(deg):
        if rng.random() < 0.4:
            terms[e] = Fraction(rng.randint(-bound, bound))
    return MultiPoly(terms)


class TestUniPoly:
    def test_gcd_repeated_factor(self):
        # (x-1)^2 (x+2)
        p = UniPoly([-1, 1]) * UniPoly([-1, 1]) * UniPoly([2, 1])
        assert poly_gcd(p, derivative(p)) == UniPoly([-1, 1])

    def test_gcd_squarefree(self):
        p = UniPoly([-2, 0, 0, 1])  # x^3 - 2
        assert poly_gcd(p, UniPoly([0, 0, 3])) == UniPoly([1])

    def test_gcd_triple_root(self):
        # (x-5)^3 against its derivative -> (x-5)^2
        lin = UniPoly([-5, 1])
        p = lin * lin * lin
        assert poly_gcd(p, derivative(p)) == lin * lin

    def test_gcd_both_zero_raises(self):
        with pytest.raises(ValueError):
            poly_gcd(UniPoly.zero(), UniPoly.zero())

    def test_derivative_examples(self):
        assert derivative(UniPoly([0, 0, 0, 1])) == UniPoly([0, 0, 3])
        assert derivative(UniPoly([7])) == UniPoly.zero()
        assert derivative(UniPoly([0, 0, 12, 2])) == UniPoly([0, 24, 6])

    def test_gcd_divides_both_inputs(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = _rand_unipoly(rng), _rand_unipoly(rng)
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            for p in (a, b):
                if not p.is_zero():
                    _, r = p.divmod(g)
                    assert r.is_zero()

    def test_product_rule(self):
        rng = random.Random(13)
        for _ in range(50):
            a, b = _rand_unipoly(rng), _rand_unipoly(rng)
            assert derivative(a * b) == derivative(a) * b + a * derivative(b)

    def test_rational_roots(self):
        # 6x^3 - 5x^2 - 2x + 1 = (x-1)(3x-1)(2x+1)
        p = UniPoly([1, -2, -5, 6])
        assert sorted(rational_roots(p)) == [Fraction(-1, 2), Fraction(1, 3), Fraction(1)]


class TestMultiPoly:
    def test_monomial_products(self):
        z0, z1 = MultiPoly.variable(0), MultiPoly.variable(1)
        assert (z0 * z0) * z1 == MultiPoly.monomial((2, 1, 0, 0))
        assert (z0 + z1) * (z0 - z1) == z0 * z0 - z1 * z1
        s01 = MultiPoly.monomial((4, 0, 0, 0))
        assert s01 * s01 == MultiPoly.monomial((8, 0, 0, 0))

    def test_mul_commutative_associative(self):
        rng = random.Random(5)
        for _ in range(25):
            a = _rand_multipoly(rng, 2)
            b = _rand_multipoly(rng, 1)
            c = _rand_multipoly(rng, 2)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_degree_adds_for_homogeneous(self):
        rng = random.Random(11)
        for _ in range(25):
            a = _rand_multipoly(rng, 3)
            b = _rand_multipoly(rng, 2)
            if a.is_zero() or b.is_zero():
                continue
            p = a * b
            assert p.is_zero() or p.total_degree() == 5

    def test_gradient_examples(self):
        z0sq = MultiPoly.monomial((2, 0, 0, 0))
        g = multipoly_gradient(z0sq)
        assert g[0] == MultiPoly.monomial((1, 0, 0, 0), 2)
        assert all(gi.is_zero() for gi in g[1:])

        prod = MultiPoly.monomial((1, 1, 1, 1))
        g = multipoly_gradient(prod)
        assert g[2] == MultiPoly.monomial((1, 1, 0, 1))

        const = MultiPoly.monomial((0, 0, 0, 0), 5)
        assert all(gi.is_zero() for gi in multipoly_gradient(const))

    def test_euler_identity(self):
        rng = random.Random(3)
        for deg in (1, 2, 3, 4):
            for _ in range(10):
                p = _rand_multipoly(rng, deg)
                grad = multipoly_gradient(p)
                acc = MultiPoly.zero()
                for i in range(4):
                    acc = acc + MultiPoly.variable(i) * grad[i]
                assert acc == deg * p

    def test_canonical_text_roundtrip(self):
        rng = random.Random(17)
        for _ in range(20):
            p = _rand_multipoly(rng, 3)
            assert from_canonical_text(to_canonical_text(p)) == p

    def test_canonical_text_format(self):
        p = MultiPoly({(2, 1, 0, 0): Fraction(3)})
        assert to_canonical_text(p) == "3/1*z0^2*z1"
        assert to_canonical_text(MultiPoly.zero()) == "0"
