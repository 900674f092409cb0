"""Numerical invariants of the Calabi-Yau anticanonical hypersurface X in Z.

Every invariant is computed twice: once from the closed forms in terms of
(c1, c2, gamma), and once through the Chern-class oracle built from the
Euler sequences (adjunction: c(T_X) = c(T_Z)|X / (1 - K_Z|X)), which runs
on plain ints (see _oracle_numbers).  The oracle needs only the Chern
data, so bundles known by (c1, c2) alone are checked like split ones, and
a caller reporting on many specs may pass an OracleMemo to compute it once
per Chern datum; the closed forms of every spec are still compared
against it.  The same dict keeps, for each p1 prefix, the j = 1 term of
the Picard number and the symmetric powers the other terms read (see
picard_number), so specs that share their three smallest normalized
degrees compute them once, and it may keep the caller's own result per
Chern datum (the CLI keeps a report row and a record there).  Every field
of a record but the Picard ones depends on the Chern datum alone, so
check_invariants runs a spec's checks without building its record; a twist
shears the xi-fields (kahler.boundary_rays), so no request builds a record
for a spec's normalization.  A disagreement raises OracleMismatchError --
self-validation is the point of the library, not an afterthought.
"""

from __future__ import annotations

from math import comb
from operator import mul

from ._value import Record, fractions
from .chow import (
    BundleSpec,
    closed_form_intersections,
    tangent_total_chern,
)
from .cohomology import SplitBundle, cohomology, end_bundle, sym_power


class OracleMismatchError(ArithmeticError):
    """A closed form disagreed with its independent Chow-ring oracle."""


# three key kinds: Chern datum (base_dim, rank, c1, c2) -> its oracle integrals
# in INTEGRAL_KEYS order; p1 prefix (0, a1, a2) -> [F, the j = 1 term
# h^1(Sym^3 F (x) O(2 - a1 - a2)), Sym^4 F, Sym^2 F], each power None until
# first read (see picard_number); and ("row", base_dim, rank, c1, c2) -> the
# pair (checked report row, record) of that Chern datum, kept by
# cli._report_row; each row's cone is that record sheared to the row's
# normalized basis.  The keys differ in length, so no two kinds meet
OracleMemo = dict[tuple, tuple[int, ...] | list[SplitBundle | int | None] | tuple]

# CyInvariants' integral fields in order; p3 closed forms give only the first 8
INTEGRAL_KEYS = ("c3_X", "h_dot_c2", "xi_dot_c2", "mk_dot_c2", "h3", "xi_h2", "xi2_h",
                 "xi3", "mk_cubed", "mk_sq_h")


class CyInvariants(Record):
    """The full invariant record of X = {-K_Z section = 0} in Z = P(E).

    Triple products are in the basis (xi|X, pi^*h); mk_* fields refer to
    -K_Z|X.  Every record was checked against the Chern oracle; the Picard
    fields need split degrees and are None without them.  The record is
    mutable, so it has no hash; ``_fields`` names its fields in order.
    """

    __slots__ = (
        "base_dim", "c1", "c2",
        "gamma",                      # m = 3 only
        "c3_X", "h_dot_c2", "xi_dot_c2", "mk_dot_c2",
        "h3",                         # (pi^*h)^3 on X
        "xi_h2",                      # xi . (pi^*h)^2 on X
        "xi2_h",                      # xi^2 . pi^*h on X
        "xi3",                        # xi^3 on X
        "fiber_count",                # m = 3 only
        "picard_number", "picard_hypothesis_note",
        "mk_cubed", "mk_sq_h",        # m = 1 only
    )

    def __init__(self, base_dim: int, c1: int, c2: int, gamma: int | None, c3_X: int,
                 h_dot_c2: int, xi_dot_c2: int, mk_dot_c2: int, h3: int, xi_h2: int,
                 xi2_h: int, xi3: int, fiber_count: int | None,
                 picard_number: int | None, picard_hypothesis_note: str | None,
                 mk_cubed: int | None, mk_sq_h: int | None) -> None:
        # one assignment per field, as fast as a dataclass's own __init__
        self.base_dim, self.c1, self.c2, self.gamma = base_dim, c1, c2, gamma
        self.c3_X, self.h_dot_c2, self.xi_dot_c2 = c3_X, h_dot_c2, xi_dot_c2
        self.mk_dot_c2, self.h3, self.xi_h2, self.xi2_h = mk_dot_c2, h3, xi_h2, xi2_h
        self.xi3, self.fiber_count, self.picard_number = xi3, fiber_count, picard_number
        self.picard_hypothesis_note = picard_hypothesis_note
        self.mk_cubed, self.mk_sq_h = mk_cubed, mk_sq_h


def _oracle_numbers(spec: BundleSpec) -> dict:
    """All oracle integrals on Z needed by the invariant records, as ints.

    X in |-K_Z| turns a degree-3 class a on X into the degree-4 integral
    of a.(-K_Z) on Z; c2(X) = c2(Z)|X and c3(X) = (c3(Z) - c2(Z).(-K_Z))|X
    by adjunction with N_{X|Z} = -K_Z|X.  With -K_Z = r*xi + s*H,
    s = m + 1 - c1, and T_j the integral of xi^(4-j).H^j (from
    closed_form_intersections, T_4 = 0), the pairing of -K_Z with
    xi^(3-j).H^j is P_j = r*T_j + s*T_(j+1).  Each integrand is a formal
    integer product of c2(Z), c3(Z), xi, H and -K_Z, kept as its
    coefficients a_j of xi^(3-j).H^j; T, and so P, holds for every
    monomial, in normal form or not, so the integral is the dot product of
    a with P.  Nothing is reduced and no ChowClass product runs.
    """
    m, r = spec.base_dim, spec.rank
    s = m + 1 - spec.c1
    c2Z, c3Z = tangent_total_chern(spec)[2:4]
    n = closed_form_intersections(spec)
    T = [n.xi4, n.xi3_h1, n.xi2_h2, n.xi1_h3, 0]
    P = [r * T[j] + s * T[j + 1] for j in range(4)]

    def times_L(a: list) -> list:  # a.(r*xi + s*H), one degree up
        return [r * x + s * y for x, y in zip(a + [0], [0] + a)]

    c2Z_L, LL = times_L(c2Z), times_L([r, s])
    integrands = {
        "c3_X": [x - y for x, y in zip(c3Z, c2Z_L)],
        "h_dot_c2": [0] + c2Z,
        "xi_dot_c2": c2Z + [0],
        "mk_dot_c2": c2Z_L,
        "h3": [0, 0, 0, 1],
        "xi_h2": [0, 0, 1, 0],
        "xi2_h": [0, 1, 0, 0],
        "xi3": [1, 0, 0, 0],
        "mk_cubed": times_L(LL),
        "mk_sq_h": [0] + LL,
    }
    return {key: sum(map(mul, a, P)) for key, a in integrands.items()}


def _compare(closed: tuple, oracle: tuple) -> None:
    if closed != oracle[:len(closed)]:
        for key, want, got in zip(INTEGRAL_KEYS, closed, oracle):
            if got != want:
                raise OracleMismatchError(f"{key}: closed form {want} != oracle {got}")


def closed_forms(spec: BundleSpec) -> tuple[int, ...]:
    """``spec``'s closed forms in INTEGRAL_KEYS order (the first 8 on P^3)."""
    c1, c2 = spec.c1, spec.c2
    if spec.base_dim == 3:
        g = spec.gamma()
        return (
            -8 * g - 168,                                # c3_X
            44,                                          # h_dot_c2
            4 * g + 22 * c1 + 24,                        # xi_dot_c2
            8 * g + 224,                                 # mk_dot_c2
            2,                                           # h3
            c1 + 4,                                      # xi_h2
            c1 ** 2 - 2 * c2 + 4 * c1,                   # xi2_h
            c1 ** 3 + 4 * c1 ** 2 - 3 * c1 * c2 - 4 * c2,  # xi3
        )
    return (
        -168,         # c3_X
        24,           # h_dot_c2
        6 * c1 + 44,  # xi_dot_c2
        224,          # mk_dot_c2
        0,            # h3
        0,            # xi_h2
        4,            # xi2_h
        3 * c1 + 2,   # xi3
        512,          # mk_cubed
        64,           # mk_sq_h
    )


def check_invariants(
    spec: BundleSpec, oracle_memo: OracleMemo
) -> tuple[tuple[int, ...], int | None, int | None]:
    """Every check invariants_for runs on ``spec`` but picard_number's,
    without building the record: on P^3 with gamma <= 16, fiber_count's
    pushforward and Bezout checks; then the closed forms against the
    oracle integrals kept in ``oracle_memo`` under the Chern datum (the
    oracle runs there on a miss).  A disagreement raises
    OracleMismatchError.

    Returns the oracle integrals in INTEGRAL_KEYS order, gamma and the
    fiber count (both None on P^1; the count None past gamma 16).  All of
    them, and so every field of the record but the Picard ones, depend on
    the Chern datum alone.
    """
    g = spec.gamma() if spec.base_dim == 3 else None
    fibers = fiber_count(spec) if g is not None and g <= 16 else None
    key = (spec.base_dim, spec.rank, spec.c1, spec.c2)
    o = oracle_memo.get(key)
    if o is None:
        o = oracle_memo[key] = tuple(map(_oracle_numbers(spec).__getitem__, INTEGRAL_KEYS))
    _compare(closed_forms(spec), o)
    return o, g, fibers


def _record(spec: BundleSpec, oracle_memo: OracleMemo | None) -> CyInvariants:
    """Check the spec (see check_invariants) and build its record.

    The oracle reads only the Chern data, so with a memo it runs once per
    Chern datum; the comparison runs for every spec regardless.  The
    record's integrals are the oracle's, equal to the closed forms.
    """
    memo = {} if oracle_memo is None else oracle_memo
    o, g, fibers = check_invariants(spec, memo)
    rho, note = picard_number(spec, memo) if spec.is_split else (None, None)
    return CyInvariants(spec.base_dim, spec.c1, spec.c2, g, *o[:8], fibers, rho, note,
                        *(o[8:] if spec.base_dim == 1 else (None, None)))  # in field order


def invariants_p3(spec: BundleSpec, oracle_memo: OracleMemo | None = None) -> CyInvariants:
    """Invariant record for rank-2 bundles over P^3 (see invariants_for)."""
    if (spec.base_dim, spec.rank) != (3, 2):
        raise ValueError("invariants_p3 needs a rank-2 bundle over P^3")
    return _record(spec, oracle_memo)


def invariants_p1(spec: BundleSpec, oracle_memo: OracleMemo | None = None) -> CyInvariants:
    """Invariant record for rank-4 bundles over P^1 (see invariants_for)."""
    if (spec.base_dim, spec.rank) != (1, 4):
        raise ValueError("invariants_p1 needs a rank-4 bundle over P^1")
    return _record(spec, oracle_memo)


def invariants_for(spec: BundleSpec, oracle_memo: OracleMemo | None = None) -> CyInvariants:
    """Invariant record of either geometry, chosen by the base dimension.

    Every record's closed forms are compared against the Chern-class
    oracle; a disagreement raises OracleMismatchError.  ``oracle_memo`` is
    an optional dict owned by the caller (start it empty): the oracle
    integrals are stored in it under the spec's Chern datum and reused for
    later specs with the same datum, so a survey computes them once per
    datum instead of once per spec.  A split p1 spec also stores the
    symmetric powers of its prefix there (see picard_number).
    """
    if spec.base_dim == 3:
        return invariants_p3(spec, oracle_memo)
    return invariants_p1(spec, oracle_memo)


def fiber_count(spec: BundleSpec) -> int:
    """Number of full bundle fibers contained in X: 64 - 4*gamma.

    Cross-checked against c3 of the pushforward bundle S^2 E (x) O(r) at
    r = 4 - c1, and (for split E) against the Bezout product of the three
    section degrees.  gamma > 16 admits no smooth X at all.
    """
    if (spec.base_dim, spec.rank) != (3, 2):
        raise ValueError("fiber counting needs a rank-2 bundle over P^3")
    g = spec.gamma()
    if g > 16:
        raise ValueError(f"gamma = {g} > 16: no smooth Calabi-Yau exists")
    count = 64 - 4 * g
    c1, c2 = spec.c1, spec.c2
    r = 4 - c1
    c3_pushforward = (
        4 * c2 * c1 + 2 * r * (c1 ** 2 + 2 * c2) + 3 * r ** 2 * c1 + r ** 3
    )
    if c3_pushforward != count:
        raise OracleMismatchError(
            f"fiber count {count} != c3 of pushforward {c3_pushforward}"
        )
    if spec.is_split:
        d00, d01, d11 = section_degrees(spec)
        bezout = d00 * d01 * d11
        if bezout != count:
            raise OracleMismatchError(
                f"fiber count {count} != Bezout product {bezout}"
            )
    return count


def euler_characteristic_rank2_p3(spec: BundleSpec) -> fractions.Fraction:
    """chi(E) for rank-2 E over P^3 by Riemann-Roch:

    gamma*(c1+4)/8 + c1^3/24 + c1^2/2 + 11*c1/6 + 2.
    """
    if (spec.base_dim, spec.rank) != (3, 2):
        raise ValueError("this Riemann-Roch form is for rank-2 bundles on P^3")
    F, g, c1 = fractions.Fraction, spec.gamma(), spec.c1
    return (
        F(g * (c1 + 4), 8)
        + F(c1 ** 3, 24)
        + F(c1 ** 2, 2)
        + F(11 * c1, 6)
        + 2
    )


def h0_split(a: int, b: int) -> int:
    """h^0 of O(a) + O(b) on P^3 for a, b >= 0: C(a+3,3) + C(b+3,3)."""
    if a < 0 or b < 0:
        raise ValueError("h0_split expects non-negative degrees")
    return comb(a + 3, 3) + comb(b + 3, 3)


# the normalized splitting of E = O + O(4) up to twist: the one admissible
# split bundle on P^3 whose X has rho = 1.  picard_number reports it and
# kahler.require_rho_two refuses it from this constant alone, without
# computing any cohomology.
RHO_ONE_SPLITTING_P3 = (0, 4)


def picard_number(
    spec: BundleSpec, oracle_memo: OracleMemo | None = None
) -> tuple[int, str]:
    """Picard number of X with the relevant hypothesis note.

    m = 3: rho = 2 + h^2(End E) on P^3, which is 2 for every split bundle;
    the formula's stability hypothesis cannot hold for split bundles, so the
    value carries a "hypotheses-not-verified" note.  The one case worked out
    from scratch, E = O + O(4) up to twist, has rho = 1.

    m = 1: rho = 2 + h^1(S^4 E (x) O(2 - c1)) for normalized E, which is 2
    exactly when c1 <= 3.  With E = F + O(a3), F = (0, a1, a2), that bundle
    is the sum over j = 0..4 of S^(4-j) F (x) O(t), t = 2 - c1 + j*a3 =
    2 - a1 - a2 + (j - 1)*a3.  It is Bott's rule over every summand that
    can be nonzero: each S^k F has least degree 0, so it adds h^1 only at
    t < -1, and a3 >= a1, a2 gives t >= 2 for j >= 3.  Only S^4 F, S^3 F and
    S^2 F can reach cohomology, each only at a twist below -1.  The j = 1
    twist 2 - a1 - a2 reads no a3, so that term is one number per prefix:
    it is computed when the prefix's entry in ``oracle_memo`` (a fresh dict
    when None) is made, and S^3 F is not kept.  S^4 F and S^2 F are built
    the first time a spec of the prefix twists them below -1, and kept in
    the entry for the prefix's other specs.
    """
    if not spec.is_split:
        raise ValueError("picard number needs split degrees")
    norm = spec.normalized()
    if spec.base_dim == 3:
        if norm.split_degrees == RHO_ONE_SPLITTING_P3:
            return 1, "computed directly for O + O(4); -K_Z big and nef"
        h2 = cohomology(end_bundle(SplitBundle(3, norm.split_degrees)), 2)
        return 2 + h2, "hypotheses-not-verified: split bundles are not stable"
    memo = {} if oracle_memo is None else oracle_memo
    prefix, a3 = norm.split_degrees[:3], norm.split_degrees[3]
    entry = memo.get(prefix)
    if entry is None:  # _trusted: BundleSpec sorts the degrees
        f = SplitBundle._trusted(1, prefix)
        t1 = 2 - prefix[1] - prefix[2]  # the j = 1 twist reads no a3
        h1 = cohomology(sym_power(f, 3), 1, t1) if t1 < -1 else 0
        entry = memo[prefix] = [f, h1, None, None]
    h1 = entry[1]
    t0 = 2 - norm.c1  # j = 0: Sym^4 F
    if t0 < -1:  # else h^1(O(d + t)) = 0 for every summand, as d >= 0
        if entry[2] is None:
            entry[2] = sym_power(entry[0], 4)
        h1 += cohomology(entry[2], 1, t0)
    t2 = t0 + 2 * a3  # j = 2: Sym^2 F
    if t2 < -1:
        if entry[3] is None:
            entry[3] = sym_power(entry[0], 2)
        h1 += cohomology(entry[3], 1, t2)
    return 2 + h1, "normalized convention"


def admissibility_p3(spec: BundleSpec) -> bool:
    """Whether a split rank-2 bundle on P^3 can carry a smooth X: b - a <= 4."""
    if (spec.base_dim, spec.rank) != (3, 2) or not spec.is_split:
        raise ValueError("admissibility is for split rank-2 bundles over P^3")
    a, b = spec.split_degrees
    return b - a <= 4


def section_degrees(spec: BundleSpec) -> tuple[int, int, int]:
    """(d00, d01, d11) = (a-b+4, 4, b-a+4): the degrees on P^3 of the
    coefficients of a fiberwise quadric in |-K_Z| over the splitting type
    (a, b).

    The one gap refusal of the discriminant: a ValueError when
    admissibility_p3 is False (b - a > 4, so d00 < 0).
    """
    if not admissibility_p3(spec):
        raise ValueError("inadmissible spec: b - a > 4")
    a, b = spec.split_degrees
    return (a - b + 4, 4, b - a + 4)
