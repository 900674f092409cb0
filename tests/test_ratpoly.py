import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multipoly_kernel_check
import unipoly_kernel_check
from multipoly_kernel_check import ONE, Z, reference
from unipoly_kernel_check import gcd_matches, ints, mul, trim
from cybundle.chow import BundleSpec
from cybundle.discriminant import sample_section
from cybundle.ratpoly import (
    MultiPoly,
    UniPoly,
    _dense_degree,
    derivative,
    monomials_of_degree,
    multipoly_gradient,
    poly_gcd,
    rational_roots,
    to_canonical_text,
    value_and_gradient,
)


def from_canonical_text(text: str) -> MultiPoly:
    """Parse the text of to_canonical_text back into a MultiPoly: the
    reference for the round trip."""
    text = text.strip()
    if text == "0":
        return MultiPoly()
    tm = {}
    for term in text.split("+"):
        factors = term.strip().split("*")
        coeff = Fraction(factors[0])
        e = [0, 0, 0, 0]
        for f in factors[1:]:
            if "^" in f:
                var, pw = f.split("^")
                e[int(var[1:])] += int(pw)
            else:
                e[int(f[1:])] += 1
        key = tuple(e)
        tm[key] = tm.get(key, Fraction(0)) + coeff
    return MultiPoly(tm)


def _rand_ints(rng, max_deg=4, bound=5):
    """A random rational polynomial, cleared to ints with its content kept."""
    return ints(trim([Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                      for _ in range(rng.randint(0, max_deg + 1))]))


def _rand_multipoly(rng, deg, bound=4):
    terms = {}
    for e in monomials_of_degree(deg):
        if rng.random() < 0.4:
            terms[e] = Fraction(rng.randint(-bound, bound))
    return MultiPoly(terms)


class TestUniPoly:
    """The kernels on int coefficient lists, and the rational list UniPoly."""

    def test_gcd_repeated_factor(self):
        # (x-1)^2 (x+2)
        p = [2, -3, 0, 1]
        assert poly_gcd(p, derivative(p)) == [-1, 1]

    def test_gcd_squarefree(self):
        p = [-2, 0, 0, 1]  # x^3 - 2
        assert poly_gcd(p, [0, 0, 3]) == [1]

    def test_gcd_triple_root(self):
        # (x-5)^3 against its derivative -> (x-5)^2
        p = [-125, 75, -15, 1]
        assert poly_gcd(p, derivative(p)) == [25, -10, 1]

    def test_gcd_is_primitive_with_positive_lead(self):
        # 4(x - 1) and -6(x - 1); against zero, -3x alone
        assert poly_gcd([-4, 4], [6, -6]) == [-1, 1]
        assert poly_gcd([], [0, -3]) == [0, 1]
        assert poly_gcd([6, -4], []) == [-3, 2]

    def test_gcd_both_zero_raises(self):
        with pytest.raises(ValueError):
            poly_gcd([], [])

    @pytest.mark.parametrize("a,b", [([0], [0]), ([0], [1]), ([1], [0]), ([], [0]),
                                     ([1, 2, 0], [1, 1]), ([-1, 1], [2, 0, 0])])
    def test_gcd_trailing_zero_raises(self, a, b):
        # [] is the zero polynomial; a list ending in 0 is malformed
        with pytest.raises(ValueError, match="trailing zeros"):
            poly_gcd(a, b)

    def test_derivative_examples(self):
        assert derivative([0, 0, 0, 1]) == [0, 0, 3]
        assert derivative([7]) == []
        assert derivative([0, 0, 12, 2]) == [0, 24, 6]
        assert all(type(c) is int for c in derivative([5, -3, 2]))

    def test_gcd_divides_both_inputs(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = _rand_ints(rng), _rand_ints(rng)
            if not a and not b:
                continue
            g = poly_gcd(a, b)
            for p in (a, b):
                if p:
                    assert unipoly_kernel_check.ref_divmod(p, g)[1] == []

    def test_product_rule(self):
        # UniPoly subtracts the int lists as rationals
        rng = random.Random(13)
        for _ in range(50):
            a, b = _rand_ints(rng), _rand_ints(rng)
            left = UniPoly(derivative(mul(a, b))) - UniPoly(mul(derivative(a), b))
            assert left == UniPoly(mul(a, derivative(b)))

    def test_unipoly_value(self):
        p = UniPoly([1, Fraction(1, 2), 0, 0])
        assert p.coeffs == [1, Fraction(1, 2)] and all(type(c) is Fraction for c in p.coeffs)
        assert p == UniPoly([Fraction(1), Fraction(1, 2)]) != [1, Fraction(1, 2)]
        assert hash(p) == hash(UniPoly([1, Fraction(1, 2)]))
        assert p - p == UniPoly([]) and (p - UniPoly([0, 1])).coeffs == [1, Fraction(-1, 2)]

    def test_rational_roots(self):
        # 6x^3 - 5x^2 - 2x + 1 = (x-1)(3x-1)(2x+1)
        p = [1, -2, -5, 6]
        assert rational_roots(p) == [(-1, 2), (1, 3), (1, 1)]

    def test_rational_roots_keep_content_and_sign(self):
        # -2x^2 - 4x + 6 = -2(x + 3)(x - 1)
        assert rational_roots([6, -4, -2]) == [(-3, 1), (1, 1)]

    def test_rational_roots_of_empty_list_raises(self):
        # [] is the zero polynomial: a[-1] would raise IndexError instead
        with pytest.raises(ValueError, match="the zero polynomial has every root"):
            rational_roots([])

    @pytest.mark.parametrize("a", [[0], [0, 0], [1, 0], [-2, 1, 0]])
    def test_rational_roots_trailing_zero_raises(self, a):
        with pytest.raises(ValueError, match="trailing zeros"):
            rational_roots(a)

    def test_rational_roots_order(self):
        # the roots at 0 first, then the others ascending with multiplicity:
        # -3 x^2 (x - 2)(x + 1/2)^2 (x^2 + 1)
        plus_half = [Fraction(1, 2), 1]
        p = mul(mul([0, 0, -3], [-2, 1]), mul(plus_half, plus_half))
        p = ints(mul(p, [1, 0, 1]))
        assert rational_roots(p) == [(0, 1), (0, 1), (-1, 2), (-1, 2), (2, 1)]


LINEAR_ROOTS = st.lists(st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=4),
                        max_size=5)
NONZERO = (st.integers(-7, 7) | st.fractions(-7, 7, max_denominator=5)).filter(bool)
TAILS = st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=5), max_size=4)


def _with_roots(lead, roots, tail=()):
    """lead * prod (x - r) * tail, the tail left out when it is zero."""
    p, tail = [Fraction(lead)], trim(tail)
    for r in roots:
        p = mul(p, [-r, 1])
    return mul(p, tail) if tail else p


class TestUniPolyAgainstReference:
    """The integer kernels against the Fraction versions they replaced; the
    kernels get the rational polynomials cleared by ``ints``."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(lead=NONZERO, roots=LINEAR_ROOTS, tail=TAILS, shared=st.integers(0, 5),
           other=LINEAR_ROOTS)
    def test_matches_reference(self, lead, roots, tail, shared, other):
        p = _with_roots(lead, roots, tail)
        assert rational_roots(ints(p)) == unipoly_kernel_check.ref_rational_roots(p)
        q = _with_roots(-lead, roots[:shared] + other)
        for a, b in ((p, derivative(p)), (p, q), (q, p), ([], q)):
            assert gcd_matches(poly_gcd(ints(a), ints(b)),
                               unipoly_kernel_check.ref_poly_gcd(a, b))

    def test_stdlib_script(self):
        # seeded factored and dense polynomials, also run as a script under
        # other Pythons
        assert unipoly_kernel_check.check(seed=1, count=300) == 300


class TestMultiPoly:
    def test_monomial_products(self):
        z0, z1 = Z[:2]
        assert (z0 * z0) * z1 == MultiPoly({(2, 1, 0, 0): 1})
        plus, minus = (MultiPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): s}) for s in (1, -1))
        assert plus * minus == MultiPoly({(2, 0, 0, 0): 1, (0, 2, 0, 0): -1})
        s01 = MultiPoly({(4, 0, 0, 0): 1})
        assert s01 * s01 == MultiPoly({(8, 0, 0, 0): 1})

    @pytest.mark.parametrize("e", [(1.5, 0, 0, 0), (0, 1.0, 0, 0), (0, 0, Fraction(1), 0)])
    def test_non_integral_exponent_refused(self, e):
        # an exponent is an int, even where a float or Fraction equals one
        with pytest.raises(TypeError):
            MultiPoly({e: 1})

    def test_mul_commutative_associative(self):
        rng = random.Random(5)
        for _ in range(25):
            a = _rand_multipoly(rng, 2)
            b = _rand_multipoly(rng, 1)
            c = _rand_multipoly(rng, 2)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)

    def test_unsupported_operand_raises_type_error(self):
        z0 = Z[0]
        for other in (0.5, "x", None):
            with pytest.raises(TypeError):
                z0 * other
            with pytest.raises(TypeError):
                other * z0
        assert z0 * 2 == 2 * z0 == MultiPoly({(1, 0, 0, 0): 2})
        half = MultiPoly({(1, 0, 0, 0): Fraction(1, 2)})
        assert z0 * Fraction(1, 2) == Fraction(1, 2) * z0 == half

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
        z0sq = MultiPoly({(2, 0, 0, 0): 1})
        g = multipoly_gradient(z0sq)
        assert g[0] == MultiPoly({(1, 0, 0, 0): 2})
        assert all(gi.is_zero() for gi in g[1:])

        prod = MultiPoly({(1, 1, 1, 1): 1})
        g = multipoly_gradient(prod)
        assert g[2] == MultiPoly({(1, 1, 0, 1): 1})

        # each partial lowers its own exponent and scales by it
        p = MultiPoly({(2, 3, 1, 4): Fraction(1, 2), (0, 1, 0, 0): 5})
        assert multipoly_gradient(p) == (
            MultiPoly({(1, 3, 1, 4): 1}),
            MultiPoly({(2, 2, 1, 4): Fraction(3, 2), (0, 0, 0, 0): 5}),
            MultiPoly({(2, 3, 0, 4): Fraction(1, 2)}),
            MultiPoly({(2, 3, 1, 3): 2}),
        )

        const = MultiPoly({(0, 0, 0, 0): 5})
        assert all(gi.is_zero() for gi in multipoly_gradient(const))

    def test_euler_identity(self):
        rng = random.Random(3)
        for deg in (1, 2, 3, 4):
            for _ in range(10):
                p = _rand_multipoly(rng, deg)
                grad = multipoly_gradient(p)
                assert MultiPoly.sum_of_products((1, Z[i], grad[i]) for i in range(4)) == deg * p

    def test_canonical_text_roundtrip(self):
        rng = random.Random(17)
        for _ in range(20):
            p = _rand_multipoly(rng, 3)
            assert from_canonical_text(to_canonical_text(p)) == p

    def test_canonical_text_format(self):
        p = MultiPoly({(2, 1, 0, 0): Fraction(3)})
        assert to_canonical_text(p) == "3/1*z0^2*z1"
        assert to_canonical_text(MultiPoly()) == "0"

    def test_canonical_text_powers_past_the_table(self):
        # powers up to 8 come from a table of "*z<i>^<k>" strings, higher
        # ones are formatted; both kinds in one term and in one text
        p = MultiPoly({(17, 0, 0, 0): Fraction(-2, 3), (0, 0, 0, 300): 5,
                       (9, 1, 8, 2): 1, (17, 2, 0, 300): Fraction(1, 4), (8, 0, 0, 0): 7})
        text = to_canonical_text(p)
        assert text == ("1/4*z0^17*z1^2*z3^300 + 5/1*z3^300 + 1/1*z0^9*z1*z2^8*z3^2"
                        " + -2/3*z0^17 + 7/1*z0^8")
        assert from_canonical_text(text) == p

    def test_canonical_text_graded_lex_order(self):
        # mixed degrees: higher total degree first, then the larger exponent
        rng = random.Random(29)
        for _ in range(30):
            p = MultiPoly({tuple(rng.randrange(12) for _ in range(4)): rng.randint(1, 9)
                           for _ in range(rng.randint(1, 12))})
            order = sorted(p.num, key=lambda e: (-sum(e), [-k for k in e]))
            assert to_canonical_text(p) == " + ".join(
                "*".join([f"{p.num[e]}/{p.den}"] + [f"z{i}" + (f"^{k}" if k > 1 else "")
                                                    for i, k in enumerate(e) if k])
                for e in order)

    def test_canonical_text_matches_sorting_reference(self):
        # homogeneous of degrees 0-12 (the monomial table stops at 8), mixed
        # degrees and zero, also run as a script under other Pythons
        assert multipoly_kernel_check.check_renderer(seed=1, count=8) == 1 + 13 * 8 + 8


# Reference arithmetic for the properties below, from the stdlib script:
# plain dicts from exponent tuples to nonzero Fractions, with none of
# MultiPoly's integer storage, and sums of products by its ``reference``.
# The names stay bound here: a property's examples are seeded from its source.

_ref_partial = multipoly_kernel_check.ref_partial
_ref_evaluate = multipoly_kernel_check.ref_evaluate


# p's coefficients as a dict of Fractions, after checking the storage rule
_checked = multipoly_kernel_check.coefficients


COEFFS = st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=8)
# mixed degrees: the polynomials need not be homogeneous
DICTS = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), COEFFS, max_size=6).map(
    lambda d: {e: Fraction(c) for e, c in d.items() if c}
)
# exponents at and past the 8- and 16-bit widths of the kernel's packed fields
WIDE_DICTS = st.dictionaries(
    st.tuples(*[st.integers(0, 2) | st.sampled_from((255, 256, 2 ** 16 - 1, 2 ** 16))] * 4),
    COEFFS,
    max_size=4,
).map(lambda d: {e: Fraction(c) for e, c in d.items() if c})
# (w, a, b, square): a square passes one MultiPoly as both factors
TERMS = st.lists(
    st.tuples(st.integers(-4, 4), DICTS | WIDE_DICTS, DICTS | WIDE_DICTS, st.booleans()),
    max_size=4,
)
SCALARS = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=7) | st.just(0)
POINTS = st.tuples(*[st.fractions(-4, 4, max_denominator=5)] * 4)
PROPS = settings(max_examples=100, derandomize=True, deadline=None)


def _homogeneous(degree):
    """A coefficient on each monomial of the degree: mostly full polynomials."""
    mons = monomials_of_degree(degree)
    return st.lists(COEFFS, min_size=len(mons), max_size=len(mons)).map(
        lambda cs: {e: Fraction(c) for e, c in zip(mons, cs) if c}
    )


@st.composite
def _homogeneous_terms(draw):
    """(w, a, b) with every a*b of one degree D <= 6; b is None for a square.
    Full operands put many of these sums on the dense accumulator."""
    degree = draw(st.integers(0, 6))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        da = draw(st.integers(0, degree))
        w, a = draw(st.integers(-4, 4)), draw(_homogeneous(da))
        square = 2 * da == degree and draw(st.booleans())
        terms.append((w, a, None if square else draw(_homogeneous(degree - da))))
    return terms


class TestMultiPolyAgainstReference:
    @PROPS
    @given(a=DICTS, b=DICTS)
    def test_ring_operations(self, a, b):
        pa, pb = MultiPoly(a), MultiPoly(b)
        assert _checked(pa) == a
        assert _checked(pa * pb) == reference([(1, a, b)])

    @PROPS
    @given(a=DICTS, k=SCALARS)
    def test_scalar_multiplication(self, a, k):
        want = {e: c * k for e, c in a.items() if c * k}
        assert _checked(MultiPoly(a) * k) == want
        assert _checked(k * MultiPoly(a)) == want

    @PROPS
    @given(a=DICTS)
    def test_gradient(self, a):
        grad = multipoly_gradient(MultiPoly(a))
        assert [_checked(g) for g in grad] == [_ref_partial(a, i) for i in range(4)]

    @PROPS
    @given(a=DICTS, point=POINTS)
    def test_evaluate(self, a, point):
        got = MultiPoly(a).evaluate(point)
        assert type(got) is Fraction and got == _ref_evaluate(a, point)
        assert MultiPoly().evaluate(point) == 0

    @PROPS
    @given(a=DICTS, b=DICTS, k=st.integers(1, 9))
    def test_equal_values_are_equal_and_hash_alike(self, a, b, k):
        pa, pb = MultiPoly(a), MultiPoly(b)
        routes = [
            MultiPoly.sum_of_products([(1, pa, ONE), (1, pb, ONE), (-1, pb, ONE)]),
            pa * Fraction(k, 7) * Fraction(7, k),
            MultiPoly(_checked(pa)),
            from_canonical_text(to_canonical_text(pa)),
            pa * ONE,
        ]
        for p in routes:
            _checked(p)
            assert p == pa and hash(p) == hash(pa)

    @pytest.mark.parametrize(
        "exponent", [(1, 0, 0), (1, 0, 0, 0, 0), (1, -1, 0, 0), ()], ids=str
    )
    def test_constructor_rejects_bad_exponents(self, exponent):
        with pytest.raises(ValueError):
            MultiPoly({exponent: Fraction(1, 2)})
        with pytest.raises(ValueError):
            MultiPoly({(0, 0, 0, 1): 1, exponent: 3})


class TestSumOfProducts:
    """MultiPoly.sum_of_products against Fraction products and sums."""

    @PROPS
    @given(terms=TERMS)
    def test_matches_reference(self, terms):
        polys = []
        for w, a, b, square in terms:
            pa = MultiPoly(a)
            polys.append((w, pa, pa) if square else (w, pa, MultiPoly(b)))
        want = reference([(w, a, a if sq else b) for w, a, b, sq in terms])
        assert _checked(MultiPoly.sum_of_products(polys)) == want

    @PROPS
    @given(a=DICTS | WIDE_DICTS, b=DICTS | WIDE_DICTS, w=st.integers(-4, 4))
    def test_full_cancellation(self, a, b, w):
        pa, pb = MultiPoly(a), MultiPoly(b)
        # a square against the same product taken as a plain one
        terms = [(w, pa, pb), (-w, pb, pa), (w, pa, pa), (-w, pa, MultiPoly(a))]
        got = MultiPoly.sum_of_products(terms)
        assert _checked(got) == {}
        assert got == MultiPoly() and got.den == 1

    def test_zero_weights_and_zero_polynomials(self):
        a = MultiPoly({(1, 0, 0, 0): Fraction(1, 3), (0, 2, 0, 1): -2})
        zero = MultiPoly()
        for terms in ([], [(0, a, a)], [(3, a, zero)], [(2, zero, zero), (0, a, a)]):
            got = MultiPoly.sum_of_products(terms)
            assert _checked(got) == {} and got == zero
        got = MultiPoly.sum_of_products([(0, a, a), (5, a, a), (1, zero, a)])
        assert _checked(got) == reference([(5, a, a)])

    @PROPS
    @given(terms=_homogeneous_terms())
    def test_homogeneous_matches_reference(self, terms):
        polys = []
        for w, a, b in terms:
            pa = MultiPoly(a)
            polys.append((w, pa, pa if b is None else MultiPoly(b)))
        want = reference([(w, a, a if b is None else b) for w, a, b in terms])
        assert _checked(MultiPoly.sum_of_products(polys)) == want

    def test_discriminant_squares_take_the_dense_accumulator(self):
        # s01^2 alone and Delta = s01^2 - 4*s00*s11, each of degree 8
        for b in range(5):
            q = sample_section(BundleSpec.from_split(3, (0, b)), b, 1000)
            for terms in ([(1, q.s01, q.s01)], [(1, q.s01, q.s01), (-4, q.s00, q.s11)]):
                assert _dense_degree(terms) == 8
                want = reference(terms)
                assert _checked(MultiPoly.sum_of_products(terms)) == want

    def test_size_rule(self):
        def quartic(k):  # the first k monomials of degree 4, of 35
            return MultiPoly({e: 1 for e in monomials_of_degree(4)[:k]})

        # D = 4: (D+1)^3 = 125 slots against 3*35 + k monomial pairs
        for k, dense in ((19, False), (20, True), (21, True)):
            terms = [(1, ONE, quartic(35))] * 3 + [(-2, quartic(k), ONE)]
            assert (_dense_degree(terms) == 4) is dense
        cubic = MultiPoly({e: 1 for e in monomials_of_degree(3)})
        # a full cubic squared: 400 pairs against 7^3 = 343 slots
        assert _dense_degree([(1, cubic, cubic)]) == 6
        # mixed output degrees, and an operand that mixes degrees
        assert _dense_degree([(1, cubic, cubic), (1, quartic(35), quartic(35))]) is None
        mixed = MultiPoly({**{e: 1 for e in monomials_of_degree(3)}, (1, 0, 0, 0): 1})
        assert _dense_degree([(1, mixed, cubic)]) is None

    def test_wide_homogeneous_operands_stay_packed(self):
        # degree 2^16 operands: the dense array would need 2^51 slots
        top = 2 ** 16
        a = MultiPoly({(top, 0, 0, 0): 3, (0, 1, top - 2, 1): Fraction(-1, 2)})
        b = MultiPoly({(0, top, 0, 0): 1, (1, 0, 0, top - 1): 5})
        terms = [(1, a, b), (2, a, a), (-1, b, b)]
        assert _dense_degree(terms) is None
        want = reference(terms)
        assert _checked(MultiPoly.sum_of_products(terms)) == want

    def test_packed_fields_hold_doubled_exponents(self):
        # the largest exponent e at 1, 2^8 - 1 and 2^16 - 1: a square reaches
        # 2e, which needs one more bit than e, in every field
        for top in (1, 2 ** 8 - 1, 2 ** 16 - 1):
            a = MultiPoly({(top, 0, 1, 0): 2, (0, top, 0, 1): -1, (1, 0, top, top): 3})
            b = MultiPoly({(0, 0, 0, top): Fraction(1, 3), (top, 1, 0, 0): 1})
            terms = [(1, a, a), (2, a, b), (-1, b, b)]
            assert _dense_degree(terms) is None
            assert _checked(MultiPoly.sum_of_products(terms)) == reference(terms)

    def test_dense_past_the_monomial_table(self):
        # degrees 9 and 10, above the import-time table's 0..8: full squares
        # of degrees 4 and 5 against one full product, on the dense accumulator
        for da, db in ((4, 5), (5, 5)):
            a, b = (MultiPoly({e: Fraction(k % 7 - 3, 1 + k % 4)
                               for k, e in enumerate(monomials_of_degree(d))})
                    for d in (da, db))
            terms = [(1, a, b), (-3, b, b)] if da == db else [(1, a, b), (2, b, a)]
            assert _dense_degree(terms) == da + db
            assert _checked(MultiPoly.sum_of_products(terms)) == reference(terms)

    def test_stdlib_script(self):
        # golden octics, seeded and discriminant-shaped sums, also run as a
        # script under other Pythons
        sums, dense = multipoly_kernel_check.check(seed=1, count=300)
        assert sums > 300 and dense > 50


def _sparse_homogeneous(rng, degree, dense=False):
    mons = monomials_of_degree(degree)
    if not dense:
        mons = rng.sample(mons, rng.randint(0, len(mons)))
    return MultiPoly({e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                      for e in mons})


class TestValueAndGradient:
    """value_and_gradient, which skips the terms that vanish at a zero
    coordinate, and evaluate, its value, against the term-by-term Fraction
    reference."""

    @staticmethod
    def _check(p, point):
        value, gradient = got = value_and_gradient(p, point)
        want = multipoly_kernel_check.ref_value_and_gradient(p, point)
        assert got == want
        assert p.evaluate(point) == want[0]
        assert type(value) is Fraction and all(type(g) is Fraction for g in gradient)

    def _points(self, rng, n):
        fixed = [(1, 1, 1, 1), (1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0),
                 (Fraction(1, 2), 3, -1, Fraction(2, 3)), (0, Fraction(-3, 4), 0, 2)]
        return fixed + multipoly_kernel_check.zero_coordinate_points(rng, n)

    def test_homogeneous_degrees_0_to_8(self):
        # sparse and, every third polynomial, dense: every monomial of the degree
        rng = random.Random(2026)
        for i, point in enumerate(self._points(rng, 60)):
            p = _sparse_homogeneous(rng, i % 9, dense=i % 3 == 0)
            self._check(p, point)

    def test_mixed_degrees(self):
        rng = random.Random(7)
        for point in self._points(rng, 50):
            p = MultiPoly.sum_of_products(
                (1, _sparse_homogeneous(rng, d), ONE) for d in rng.sample(range(7), 3))
            self._check(p, point)

    def test_zero_polynomial(self):
        assert value_and_gradient(MultiPoly(), (1, 2, 3, 4)) == (0, (0, 0, 0, 0))
        for point in self._points(random.Random(3), 1):
            self._check(MultiPoly(), point)

    def test_octic_at_the_witness_point(self):
        # only z0^8 and z0^7*z_i are live at (1, 0, 0, 0); their coefficients
        # are the value and the gradient
        q = sample_section(BundleSpec.from_split(3, (0, 2)), 4, 1000)
        delta = MultiPoly.sum_of_products(((1, q.s01, q.s01), (-4, q.s00, q.s11)))
        c = multipoly_kernel_check.as_fractions(delta)
        want = (c[(8, 0, 0, 0)], (8 * c[(8, 0, 0, 0)], c[(7, 1, 0, 0)], c[(7, 0, 1, 0)],
                                  c[(7, 0, 0, 1)]))
        assert value_and_gradient(delta, (1, 0, 0, 0)) == want
        self._check(delta, (1, 0, 0, 0))

    def test_stdlib_script(self):
        # zero, sparse, dense and mixed-degree polynomials and octics at points
        # with 0-3 zero coordinates, also run as a script under other Pythons
        assert multipoly_kernel_check.check_evaluation(seed=1, count=1) == 39 * 6

    @pytest.mark.parametrize("point", [(1, 0, 0), (1, 0, 0, 0, 0)], ids=str)
    def test_malformed_points_refused(self, point):
        p = MultiPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 2})
        for call in (p.evaluate, MultiPoly().evaluate,
                     lambda pt: value_and_gradient(p, pt)):
            with pytest.raises(ValueError, match=r"a point of P\^3 has 4 coordinates"):
                call(point)
