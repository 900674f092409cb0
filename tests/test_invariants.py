import copy
import json
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chow_kernel_check
import cybundle.invariants
import rr_check
from chow_kernel_check import oracle_by_products
from cybundle.chow import BundleSpec, ChowClass
from cybundle.cli import _enumerate_specs, main
from cybundle.cohomology import SplitBundle, cohomology, sym_power
from cybundle.invariants import (
    INTEGRAL_KEYS,
    OracleMismatchError,
    admissibility_p3,
    euler_characteristic_rank2_p3,
    fiber_count,
    _oracle_numbers,
    h0_split,
    invariants_for,
    invariants_p1,
    invariants_p3,
    picard_number,
)

ADMISSIBLE_P3 = [BundleSpec.from_split(3, (0, b)) for b in range(0, 5)]
P1_FAMILY = [
    BundleSpec.from_split(1, (0, a1, a2, a3))
    for a1 in range(0, 7)
    for a2 in range(a1, 7)
    for a3 in range(a2, 7)
]


class TestGamma:
    def test_values(self):
        assert BundleSpec.from_chern(4, 0).gamma() == 16
        assert BundleSpec.from_chern(0, 0).gamma() == 0
        assert BundleSpec.from_split(3, (1, 1)).gamma() == 0

    def test_twist_invariance(self):
        for b in range(5):
            for t in range(3):
                assert BundleSpec.from_split(3, (t, b + t)).gamma() == b * b

    def test_p1_spec_refused(self):
        with pytest.raises(ValueError, match="rank-2 bundles over P"):
            BundleSpec.from_split(1, (0, 0, 0, 1)).gamma()


class TestInvariantsP3:
    def test_trivial_bundle_values(self):
        inv = invariants_p3(BundleSpec.from_split(3, (0, 0)))
        assert inv.c3_X == -168
        assert inv.h_dot_c2 == 44
        assert inv.xi_dot_c2 == 24
        assert inv.mk_dot_c2 == 224
        assert inv.gamma == 0
        assert inv.fiber_count == 64

    def test_extremal_c3(self):
        assert invariants_p3(BundleSpec.from_split(3, (0, 4))).c3_X == -296

    def test_both_paths_agree_on_0_2(self):
        # closed forms at gamma=4, c1=2 confirmed by the Chern oracle
        inv = invariants_p3(BundleSpec.from_split(3, (0, 2)))
        assert inv.xi3 == 24
        assert inv.xi2_h == 12
        assert inv.xi_h2 == 6
        assert inv.h3 == 2

    @pytest.mark.parametrize("spec", ADMISSIBLE_P3, ids=str)
    def test_oracle_cross_check_family(self, spec):
        invariants_p3(spec)  # raises on closed-form/oracle mismatch

    def test_p1_spec_refused(self):
        # without this guard the spec reaches gamma(), which refuses it in other words
        with pytest.raises(ValueError, match="invariants_p3 needs a rank-2 bundle over P\\^3"):
            invariants_p3(BundleSpec.from_split(1, (0, 0, 0, 1)))

    def test_c3_lower_bound(self):
        vals = {s.gamma(): invariants_p3(s).c3_X for s in ADMISSIBLE_P3}
        assert min(vals.values()) == -296
        assert all(c3 == -296 for g, c3 in vals.items() if g == 16)
        assert all(c3 > -296 for g, c3 in vals.items() if g < 16)


class TestInvariantsP1:
    def test_trivial(self):
        inv = invariants_p1(BundleSpec.from_split(1, (0, 0, 0, 0)))
        assert inv.xi_dot_c2 == 44
        assert inv.xi3 == 2

    def test_0111(self):
        assert invariants_p1(BundleSpec.from_split(1, (0, 1, 1, 1))).xi3 == 11

    def test_p3_spec_refused(self):
        # refused before the closed forms, which would disagree with the oracle
        with pytest.raises(ValueError, match="rank-4 bundle over P\\^1"):
            invariants_p1(BundleSpec.from_split(3, (0, 2)))

    @pytest.mark.parametrize("spec", P1_FAMILY[:30], ids=str)
    def test_constants_any_degrees(self, spec):
        inv = invariants_p1(spec)
        assert inv.mk_cubed == 512
        assert inv.mk_dot_c2 == 224
        assert inv.c3_X == -168
        assert inv.h_dot_c2 == 24
        assert inv.mk_sq_h == 64


class TestClosedFormCertificate:
    """Agreement on a finite grid proves the closed forms for all bundles.

    Each c_k enters the oracle with H^k, and H^(m+1) = 0, so every oracle
    integral is a polynomial in (c1, c2) of weighted degree <= m, with
    wt c1 = 1 and wt c2 = 2.  The closed forms are polynomials of the same
    kind.  Over P^3 a difference therefore has deg_c1 <= 3 and deg_c2 <= 1;
    over P^1 (c2 = 0) it has deg_c1 <= 1.  By the product-grid lemma, a
    polynomial of degree below |S| in c1 and below |T| in c2 that vanishes
    on S x T is zero, so agreement on the grids below (|S| = 5, |T| = 3)
    proves agreement for every bundle, split or not.
    """

    def test_p3_grid(self):
        for c1 in range(5):
            for c2 in range(3):
                # raises OracleMismatchError on a disagreement
                inv = invariants_p3(BundleSpec.from_chern(c1, c2))
                assert (inv.c1, inv.c2, inv.picard_number) == (c1, c2, None)

    def test_p1_grid(self):
        for c1 in range(5):
            inv = invariants_p1(BundleSpec(1, 4, c1))
            assert (inv.c1, inv.picard_number) == (c1, None)


class TestEulerNumberFromPencil:
    """e(X) on P^1 from the K3 pencil instead of from c(T_Z).

    X -> P^1 is a pencil of quartic K3 surfaces in the P^3 fibers of Z.  A
    smooth fiber has e = 24, and each nodal fiber lowers that by 1, so
    e(X) = 2 * 24 - N, where N is the number of nodal fibers: the degree on
    P^1 of the discriminant of quaternary quartics, pulled back along the
    family.  That discriminant has degree n (d - 1)^(n - 1) = 4 * 3^3 = 108
    in the coefficients, and Disc(f o diag(l)) = (det l)^108 Disc(f), so the
    exponent vectors e_1..e_108 of the coefficients in any one of its
    monomials sum to (108, 108, 108, 108).  With -K_Z = 4 xi + (2 - c1) H,
    the coefficient of x^e is a section of O(2 - c1 + <e, a>) for the
    splitting a, and <e_1 + ... + e_108, a> = 108 c1.  So every monomial has
    degree N = 108 (2 - c1) + 108 c1 = 216 on P^1, for every splitting, and
    e(X) = 48 - 216 = -168 (Gelfand-Kapranov-Zelevinsky, Discriminants,
    Resultants, and Multidimensional Determinants, 1994).

    This is the closed form of ``c3_X``, which every record already compares
    with the Chern oracle; the test records the second derivation and is
    not claimed to catch a mutation that the oracle misses.  Twisting E by
    O(t) leaves Z, and so X, unchanged.
    """

    DISC_DEGREE = 4 * 3 ** 3

    def euler_number(self, c1):
        return 2 * 24 - (self.DISC_DEGREE * (2 - c1) + self.DISC_DEGREE * c1)

    def test_survey_specs(self):
        memo = {}
        specs = list(_enumerate_specs("p1", 20))
        assert len(specs) == 1771
        for spec in specs:
            assert invariants_p1(spec, memo).c3_X == self.euler_number(spec.c1) == -168

    def test_twisted_copies(self):
        for spec in list(_enumerate_specs("p1", 20))[::97]:
            for t in (-3, -1, 2, 5):
                twisted = BundleSpec.from_split(1, [d + t for d in spec.split_degrees])
                assert twisted.c1 == spec.c1 + 4 * t
                assert invariants_p1(twisted).c3_X == self.euler_number(twisted.c1)


class TestOracleMismatch:
    """A wrong c2(T_Z) must be caught: the closed forms are really compared."""

    @pytest.fixture(autouse=True)
    def perturbed_c2(self, monkeypatch):
        real = cybundle.invariants.tangent_total_chern

        def tangent_total_chern(spec):
            # xi*H survives H^2 = 0 on P^1, so xi.c2(X) moves in both geometries
            parts = real(spec)
            parts[2][1] += 1
            return parts

        monkeypatch.setattr(cybundle.invariants, "tangent_total_chern", tangent_total_chern)

    def test_p1_raises(self):
        with pytest.raises(OracleMismatchError):
            invariants_p1(BundleSpec.from_split(1, (0, 0, 1, 1)))

    def test_p3_raises(self):
        with pytest.raises(OracleMismatchError):
            invariants_p3(BundleSpec.from_split(3, (0, 2)))

    def test_chern_data_only_raises(self):
        with pytest.raises(OracleMismatchError):
            invariants_p3(BundleSpec.from_chern(2, 1))
        with pytest.raises(OracleMismatchError):
            invariants_p1(BundleSpec(1, 4, 2))

    def test_cli_exit_3(self, capsys):
        self.assert_exit_3(capsys, ["invariants", "--base", "p3", "--degrees", "0,2"])

    @pytest.mark.parametrize("base", ["p1", "p3"])
    def test_enumerate_exit_3(self, capsys, base):
        self.assert_exit_3(capsys, ["enumerate", "--base", base, "--max-degree", "3"])

    @staticmethod
    def assert_exit_3(capsys, argv):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        payload = json.loads(err)
        assert payload["exit_code"] == 3
        assert "oracle" in payload["error"]

    def test_memo_does_not_skip_the_comparison(self):
        memo = {}
        spec = BundleSpec.from_split(1, (0, 0, 1, 1))
        for _ in range(2):
            with pytest.raises(OracleMismatchError):
                invariants_for(spec, memo)
        assert len(memo) == 1


class TestComparedIntegrals:
    """The closed forms are compared as one tuple; a mismatch names the
    first differing key."""

    @pytest.mark.parametrize("spec", [BundleSpec.from_split(1, (0, 0, 1, 1)),
                                      BundleSpec.from_split(3, (0, 2))], ids=["p1", "p3"])
    def test_each_integral_compared(self, spec, monkeypatch):
        # each closed form alone, perturbed in the oracle, is named
        real = cybundle.invariants._oracle_numbers
        keys = INTEGRAL_KEYS if spec.base_dim == 1 else INTEGRAL_KEYS[:8]
        for key in keys:
            def oracle(spec, key=key):
                numbers = real(spec)
                numbers[key] += 1
                return numbers

            monkeypatch.setattr(cybundle.invariants, "_oracle_numbers", oracle)
            with pytest.raises(OracleMismatchError, match=f"^{key}: closed form"):
                invariants_for(spec)


class TestOracleMemo:
    """The oracle reads only the Chern data, which is what lets a caller's
    memo share one oracle run among specs of equal (base_dim, rank, c1, c2)."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        base=st.sampled_from([1, 3]),
        degrees=st.lists(st.integers(-6, 9), min_size=4, max_size=4),
    )
    def test_oracle_reads_only_chern_data(self, base, degrees):
        spec = BundleSpec.from_split(base, degrees[: 2 if base == 3 else 4])
        chern_only = BundleSpec(spec.base_dim, spec.rank, spec.c1, spec.c2)
        assert _oracle_numbers(spec) == _oracle_numbers(chern_only)

    def test_records_unchanged_by_memo(self):
        specs = P1_FAMILY + ADMISSIBLE_P3 + [
            BundleSpec.from_split(3, (t, t + 2)) for t in range(-2, 3)
        ]
        memo = {}
        for spec in specs:
            assert invariants_for(spec, memo) == invariants_for(spec)
        p1_c1 = {spec.c1 for spec in P1_FAMILY}
        p3_data = {(spec.c1, spec.c2) for spec in specs if spec.base_dim == 3}
        # and the symmetric powers of each p1 prefix, for picard_number
        p1_prefixes = {spec.split_degrees[:3] for spec in P1_FAMILY}
        assert set(memo) == {(1, 4, c1, 0) for c1 in p1_c1} | {
            (3, 2, c1, c2) for c1, c2 in p3_data
        } | p1_prefixes


class TestOraclePairing:
    """_oracle_numbers pairs -K_Z once with each degree-3 monomial, on ints."""

    CHERN_DATA = [BundleSpec.from_chern(c1, c2) for c1 in range(-4, 9)
                  for c2 in range(-5, 12)] + [BundleSpec(1, 4, c1) for c1 in range(-8, 70)]

    def test_equals_one_product_per_integral(self):
        assert len(self.CHERN_DATA) == 299
        for spec in self.CHERN_DATA:
            # raises AssertionError on any difference in value or type
            chow_kernel_check.check_spec(spec)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        base=st.sampled_from([1, 3]),
        c1=st.integers(-10 ** 9, 10 ** 9) | st.integers(-12, 12),
        c2=st.integers(-10 ** 9, 10 ** 9) | st.integers(-12, 12),
    )
    def test_random_chern_data(self, base, c1, c2):
        spec = BundleSpec.from_chern(c1, c2) if base == 3 else BundleSpec(1, 4, c1)
        # raises AssertionError on any difference in value or type
        chow_kernel_check.check_spec(spec)

    @pytest.mark.parametrize("spec", [BundleSpec.from_chern(1, -2), BundleSpec(1, 4, 3)],
                             ids=["p3", "p1"])
    def test_no_products_one_chern_class(self, spec, monkeypatch):
        calls = {"mul": 0, "tangent": 0}
        mul = ChowClass.__mul__
        tangent = cybundle.invariants.tangent_total_chern

        def counted_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        def counted_tangent(spec):
            calls["tangent"] += 1
            return tangent(spec)

        monkeypatch.setattr(ChowClass, "__mul__", counted_mul)
        monkeypatch.setattr(cybundle.invariants, "tangent_total_chern", counted_tangent)
        got = _oracle_numbers(spec)
        assert calls == {"mul": 0, "tangent": 1}
        assert got == oracle_by_products(spec)

    def test_stdlib_script(self):
        # 1221 fixed Chern data and 300 seeded ones, also run as a script
        # under other Pythons
        assert chow_kernel_check.check(seed=1, count=300) == 1221 + 300


TWISTS = given(
    base=st.sampled_from([1, 3]),
    degrees=st.lists(st.integers(-6, 9), min_size=4, max_size=4),
    t=st.integers(-5, 5),
)


class TestTwistInvariance:
    """Twisting E by O(t) changes xi but not X: the fields that do not
    involve xi are the same for E and E(t), and the xi-fields of E(t) are
    those of E in the basis xi' = xi + tH."""

    FIELDS = (
        "c3_X",
        "h_dot_c2",
        "mk_dot_c2",
        "h3",
        "mk_cubed",
        "mk_sq_h",
        "gamma",
        "fiber_count",
        "picard_number",
    )

    @settings(max_examples=80, derandomize=True, deadline=None)
    @TWISTS
    def test_twist_keeps_the_xi_free_fields(self, base, degrees, t):
        degrees = degrees[: 2 if base == 3 else 4]
        spec = BundleSpec.from_split(base, degrees)
        twisted = BundleSpec.from_split(base, [d + t for d in degrees])
        before, after = ({k: getattr(inv, k) for k in inv._fields}
                         for inv in (invariants_for(spec), invariants_for(twisted)))
        assert {k: before[k] for k in self.FIELDS} == {k: after[k] for k in self.FIELDS}

    @settings(max_examples=80, derandomize=True, deadline=None)
    @TWISTS
    def test_twist_shears_the_xi_fields(self, base, degrees, t):
        degrees = degrees[: 2 if base == 3 else 4]
        e, f = (invariants_for(BundleSpec.from_split(base, [d + s for d in degrees]))
                for s in (0, t))
        assert (f.xi3, f.xi2_h, f.xi_h2, f.xi_dot_c2) == (
            e.xi3 + 3 * t * e.xi2_h + 3 * t * t * e.xi_h2 + t ** 3 * e.h3,
            e.xi2_h + 2 * t * e.xi_h2 + t * t * e.h3,
            e.xi_h2 + t * e.h3,
            e.xi_dot_c2 + t * e.h_dot_c2,
        )


class TestFastPaths:
    """The per-row shortcuts give what the general code gave."""

    # p1, p3 and Chern-data-only records, with every optional field None
    # somewhere among them
    RECORD_SPECS = [
        BundleSpec.from_split(1, (0, 0, 1, 1)),
        BundleSpec.from_split(1, (0, 2, 5, 9)),  # rho > 2
        BundleSpec.from_split(1, (-3, 1, 1, 4)),
        BundleSpec.from_split(3, (0, 2)),
        BundleSpec.from_split(3, (-1, 5)),  # gamma > 16: no fiber count
        BundleSpec.from_chern(2, 1),
        BundleSpec(1, 4, 3),
    ]

    def test_oracle_integrals_stored_as_ints(self):
        specs = list(self.RECORD_SPECS)
        for c1 in range(-3, 6):
            specs.append(BundleSpec(1, 4, c1))
            specs += [BundleSpec.from_chern(c1, c2) for c2 in range(-2, 4)]
        for spec in specs:
            for key, value in _oracle_numbers(spec).items():
                assert type(value) is int, (spec, key)


class TestFiberCount:
    @pytest.mark.parametrize(
        "degrees,count", [((0, 0), 64), ((0, 4), 0), ((0, 2), 48)]
    )
    def test_examples(self, degrees, count):
        assert fiber_count(BundleSpec.from_split(3, degrees)) == count

    def test_gamma_over_16_refused(self):
        with pytest.raises(ValueError):
            fiber_count(BundleSpec.from_split(3, (0, 5)))

    def test_gamma_over_16_refused_from_chern_data(self):
        # gamma = 20 without split degrees: only the gamma guard stands
        # between the spec and a count of 64 - 80 = -16
        with pytest.raises(ValueError, match="gamma = 20 > 16"):
            fiber_count(BundleSpec.from_chern(0, -5))

    def test_p1_spec_refused(self):
        # without this guard the spec reaches gamma(), which refuses it in other words
        with pytest.raises(ValueError, match="fiber counting needs a rank-2 bundle over P\\^3"):
            fiber_count(BundleSpec.from_split(1, (0, 0, 0, 1)))

    @pytest.mark.parametrize("spec", ADMISSIBLE_P3, ids=str)
    def test_triple_agreement(self, spec):
        # closed form, pushforward c3 formula and Bezout product all agree
        # inside fiber_count; a mismatch raises
        assert fiber_count(spec) == 64 - 4 * spec.gamma()


class TestEulerCharacteristic:
    @pytest.mark.parametrize(
        "degrees,chi", [((0, 4), 36), ((0, 0), 2), ((1, 3), 24)]
    )
    def test_examples(self, degrees, chi):
        spec = BundleSpec.from_split(3, degrees)
        assert euler_characteristic_rank2_p3(spec) == chi
        assert h0_split(*degrees) == chi

    def test_p1_spec_refused(self):
        # without this guard the spec reaches gamma(), which refuses it in other words
        with pytest.raises(ValueError, match="Riemann-Roch form is for rank-2 bundles on P\\^3"):
            euler_characteristic_rank2_p3(BundleSpec.from_split(1, (0, 0, 0, 1)))

    def test_h0_split_refuses_negative_degrees(self):
        # refused, not summed: (-1, 0) would give C(2, 3) + C(3, 3) = 1, and
        # (-4, -4) would reach math.comb with n < 0
        for degrees in ((-1, 0), (0, -1), (-4, -4)):
            with pytest.raises(ValueError, match="h0_split expects non-negative"):
                h0_split(*degrees)

    def test_riemann_roch_equals_h0_sweep(self):
        for a in range(0, 9):
            for b in range(a, 9):
                spec = BundleSpec.from_split(3, (a, b))
                assert euler_characteristic_rank2_p3(spec) == h0_split(a, b)


class TestRiemannRochOnX:
    def test_stdlib_script(self):
        # chi(X, a*xi + b*H) from the record against chi(Z, D) - chi(Z, D + K_Z)
        # on the untwisted specs; the script's default adds the twists -2..2
        assert rr_check.check(twists=(0,)) == 330

    def test_twisted_specs(self):
        # the script's default: each spec also twisted by t in -2..2, the
        # same X in the basis xi + tH
        assert rr_check.check() == 1650

    @pytest.mark.parametrize("field", ["xi3", "xi2_h", "xi_h2", "h3", "xi_dot_c2", "h_dot_c2"])
    def test_each_field_read(self, field, monkeypatch):
        # one of the six record fields the left side reads, off by one on
        # every record, makes the check fail
        def off_by_one(spec):
            inv = copy.copy(invariants_for(spec))
            setattr(inv, field, getattr(inv, field) + 1)
            return inv

        monkeypatch.setattr(rr_check, "invariants_for", off_by_one)
        with pytest.raises(AssertionError, match="!= chi"):
            rr_check.check(specs=rr_check.SPECS[:1], twists=(0,))


class TestPicardNumber:
    def test_p1_examples(self):
        assert picard_number(BundleSpec.from_split(1, (0, 1, 1, 1)))[0] == 2
        # Sym^4(0,0,2,2) twisted by -2 has five h^1 = 1 summands
        assert picard_number(BundleSpec.from_split(1, (0, 0, 2, 2)))[0] == 7

    def test_p3_special_case(self):
        rho, note = picard_number(BundleSpec.from_split(3, (0, 4)))
        assert rho == 1

    def test_p3_generic_flagged(self):
        rho, note = picard_number(BundleSpec.from_split(3, (0, 2)))
        assert rho == 2
        assert "not" in note

    def test_p1_criterion_equivalence(self):
        for spec in P1_FAMILY:
            rho, _ = picard_number(spec)
            assert (rho == 2) == (spec.c1 <= 3)

    def test_non_split_refused(self):
        with pytest.raises(ValueError):
            picard_number(BundleSpec.from_chern(2, 1))

    def test_shared_memo_equals_no_memo(self):
        # one memo across the N = 20 specs and their twists, which normalize
        # back onto them: each spec gets the rho it gets alone
        memo = {}
        for spec in _enumerate_specs("p1", 20):
            for t in range(-3, 4):
                twisted = BundleSpec.from_split(1, [d + t for d in spec.split_degrees])
                assert picard_number(twisted, memo) == picard_number(twisted), twisted

    def test_skipped_powers_add_nothing(self):
        # picard_number builds only Sym^4..Sym^2 of F and passes cohomology
        # only those at a twist below -1; the unskipped sum over all five
        # powers of F must agree on the N = 30 specs and their twists by -3..3
        specs = _enumerate_specs("p1", 30)
        assert len(specs) == comb(33, 3) == 5456
        memo, powers = {}, {}
        for spec in specs:
            prefix, a3 = spec.split_degrees[:3], spec.split_degrees[3]
            if prefix not in powers:
                f = SplitBundle(1, prefix)
                powers[prefix] = [sym_power(f, 4 - j) for j in range(5)]
            want = 2 + sum(cohomology(s, 1, 2 - spec.c1 + j * a3)
                           for j, s in enumerate(powers[prefix]))
            for t in range(-3, 4):
                twisted = BundleSpec.from_split(1, [d + t for d in spec.split_degrees])
                assert picard_number(twisted, memo)[0] == want, twisted

    def test_powers_built_only_where_read(self, monkeypatch):
        # Sym^(4-j) F of a prefix is built at most once, and exactly when some
        # spec of that prefix twists it below -1: 609 of the 693 powers at
        # N = 20; the builds are counted, whatever the memo keeps of them
        specs = _enumerate_specs("p1", 20)
        built, read = [], set()

        def counted(b, k):
            built.append((b.degrees, k))
            return sym_power(b, k)

        monkeypatch.setattr(cybundle.invariants, "sym_power", counted)
        memo = {}
        for spec in specs:
            prefix, a3 = spec.split_degrees[:3], spec.split_degrees[3]
            read |= {(prefix, 4 - j) for j in range(3) if 2 - spec.c1 + j * a3 < -1}
            picard_number(spec, memo)
        assert len(built) == len(set(built))
        assert set(built) == read
        prefixes = {spec.split_degrees[:3] for spec in specs}
        assert (len(built), 3 * len(prefixes)) == (609, 693)

    @pytest.mark.parametrize("degrees,rho", [
        ((0, 0, 0, 4), 17),  # j = 0 at t = -2: Sym^4 (0,0,0) adds 15
        ((0, 0, 0, 3), 2),   # j = 0 at t = -1: nothing
        ((0, 2, 2, 2), 8),   # j = 1 at t = -2 adds 1 to j = 0's 5
        ((0, 4, 4, 4), 32),  # j = 2 at t = -2: Sym^2 (0,4,4) adds 1 to 29
    ])
    def test_vanishing_boundary(self, degrees, rho):
        assert picard_number(BundleSpec.from_split(1, degrees))[0] == rho

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(degrees=st.lists(st.integers(-6, 25), min_size=4, max_size=4))
    def test_p1_closed_form(self, degrees):
        # h^1(P^1, O(d)) = max(0, -d - 1), and Sym^4 E (x) O(2 - c1) has one
        # summand O(s + 2 - c1) per sum s of a 4-multiset of the normalized
        # degrees: rho = 2 + sum over s of max(0, c1 - 3 - s)
        spec = BundleSpec.from_split(1, degrees)
        norm = [d - min(degrees) for d in sorted(degrees)]
        c1 = sum(norm)
        sums = [sum(c) for c in combinations_with_replacement(norm, 4)]
        assert len(sums) == 35
        rho = 2 + sum(max(0, c1 - 3 - s) for s in sums)
        assert picard_number(spec)[0] == rho
        assert picard_number(BundleSpec.from_split(1, norm))[0] == rho


class TestAdmissibility:
    def test_examples(self):
        assert admissibility_p3(BundleSpec.from_split(3, (0, 4))) is True
        assert admissibility_p3(BundleSpec.from_split(3, (0, 5))) is False
        assert admissibility_p3(BundleSpec.from_split(3, (0, 0))) is True

    def test_non_split_spec_refused(self):
        # Chern data alone have no splitting degrees to read a gap from
        with pytest.raises(ValueError, match="split rank-2"):
            admissibility_p3(BundleSpec.from_chern(1, 0))
