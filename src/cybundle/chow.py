"""Chow-ring arithmetic for projectivized bundles over projective space.

Z = P(E) for E a bundle over P^m with integer Chern data.  The ring is
Z[xi, H] modulo

  * H^(m+1) = 0, and
  * the defining relation of the projectivization,
      xi^r = c1*H*xi^(r-1) - c2*H^2*xi^(r-2) + ...  (signs alternating),

so every class has a unique normal form with xi-power < r and H-power <= m,
and every coefficient is an ``int``.  The two supported geometries are
(m, r) = (3, 2) and (1, 4).  ``reduce`` gives the normal form of any formal
polynomial, and ``ChowClass.__mul__`` is ``reduce`` of the formal product;
the oracle and the Gram determinant need neither: ``tangent_total_chern``
writes c(T_Z) in normal form and the top intersections are closed forms.

Top-degree integration reads off the coefficient of xi^(r-1) * H^m, which is
the class of a point.
"""

from __future__ import annotations

from math import comb
from operator import index
from collections.abc import Sequence

from ._value import Frozen

SUPPORTED_CASES = {(3, 2), (1, 4)}


class BundleSpec(Frozen):
    """The input datum: a rank-r bundle over P^m described by Chern data.

    ``split_degrees`` is present iff the bundle is a direct sum of line
    bundles; cone and contraction work additionally requires it normalized
    (minimal degree 0).  For m = 1 all Chern classes above c1 vanish on the
    base, so only c1 is stored.  ``__init__`` reads every int with
    ``operator.index``, refusing a float, str or Fraction; ``_trusted`` sets
    the five fields past its checks, for callers whose fields are valid.
    """

    __slots__ = ("base_dim", "rank", "c1", "c2", "split_degrees")

    def __init__(self, base_dim: int, rank: int, c1: int, c2: int = 0,
                 split_degrees: tuple[int, ...] | None = None) -> None:
        degs = None if split_degrees is None else tuple(map(index, split_degrees))
        self._fill(index(base_dim), index(rank), index(c1), index(c2), degs)
        if (self.base_dim, self.rank) not in SUPPORTED_CASES:
            raise ValueError(
                f"unsupported (base_dim, rank) = ({self.base_dim}, {self.rank})"
            )
        if self.base_dim == 1 and self.c2 != 0:
            raise ValueError("c2 vanishes identically over P^1")
        if self.split_degrees is not None:
            degs = self.split_degrees
            if len(degs) != self.rank:
                raise ValueError("split degree count must equal the rank")
            if list(degs) != sorted(degs):
                raise ValueError("split degrees must be sorted ascending")
            if sum(degs) != self.c1:
                raise ValueError("c1 must equal the sum of the split degrees")
            if self.base_dim == 3:
                a, b = degs
                if self.c2 != a * b:
                    raise ValueError("c2 must equal the product of the split degrees")

    def _fill(self, base_dim: int, rank: int, c1: int, c2: int,
              split_degrees: tuple[int, ...] | None) -> None:
        # field by field, not through Record._fill's loop: one spec per survey row
        object.__setattr__(self, "base_dim", base_dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "split_degrees", split_degrees)

    @classmethod
    def from_split(cls, base_dim: int, degrees: Sequence[int]) -> "BundleSpec":
        degs = tuple(sorted(map(index, degrees)))
        c1 = sum(degs)
        c2 = degs[0] * degs[1] if base_dim == 3 else 0
        return cls(base_dim, len(degs), c1, c2, degs)

    @classmethod
    def from_chern(cls, c1: int, c2: int) -> "BundleSpec":
        """Rank-2 bundle over P^3 known only through (c1, c2)."""
        return cls(3, 2, c1, c2)

    @property
    def is_split(self) -> bool:
        return self.split_degrees is not None

    def normalized(self) -> "BundleSpec":
        """Twist so the minimal split degree is 0.

        A spec that is already normalized is returned itself (the spec is
        frozen), so callers may normalize freely; any other spec gives a
        new ``from_split`` spec.
        """
        if not self.is_split:
            raise ValueError("normalization needs split degrees")
        lo = self.split_degrees[0]  # the degrees are sorted ascending
        if lo == 0:
            return self
        return BundleSpec.from_split(
            self.base_dim, [d - lo for d in self.split_degrees]
        )

    def chern_coefficient(self, k: int) -> int:
        """c_k(E) as an integer multiple of H^k; zero outside the stored range."""
        if k == 0:
            return 1
        if k == 1:
            return self.c1
        if k == 2 and self.base_dim >= 2:
            return self.c2
        return 0

    def gamma(self) -> int:
        """The twist-invariant c1^2 - 4*c2 of a rank-2 bundle over P^3."""
        if (self.base_dim, self.rank) != (3, 2):
            raise ValueError("gamma is defined for rank-2 bundles over P^3")
        return self.c1 ** 2 - 4 * self.c2


FormalPoly = dict[tuple[int, int], int]  # (xi_pow, h_pow) -> coefficient


def _stored(coeffs: FormalPoly) -> FormalPoly:
    """The grid without its zero entries."""
    return {k: c for k, c in coeffs.items() if c}


class ChowClass:
    """A class on Z in normal form: an ``int`` grid over xi^i * H^j.

    Grid indices satisfy 0 <= i < rank and 0 <= j <= base_dim, and only
    nonzero coefficients are stored.  Mixed-degree (inhomogeneous) classes
    are allowed.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: BundleSpec, coeffs: FormalPoly | None = None) -> None:
        self.spec = spec
        self.coeffs: FormalPoly = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if type(c) is not int:
                    raise TypeError(f"coefficient {c!r} of ({i},{j}) is not an int")
                if c == 0:
                    continue
                if not (0 <= i < spec.rank and 0 <= j <= spec.base_dim):
                    raise ValueError(f"({i},{j}) is not in normal form")
                self.coeffs[(i, j)] = c

    @classmethod
    def _trusted(cls, spec: BundleSpec, coeffs: FormalPoly) -> "ChowClass":
        """Wrap a grid already in normal form, with nonzero int entries."""
        obj = object.__new__(cls)
        obj.spec = spec
        obj.coeffs = coeffs
        return obj

    @classmethod
    def xi(cls, spec: BundleSpec) -> "ChowClass":
        return cls(spec, {(1, 0): 1})

    @classmethod
    def hyperplane(cls, spec: BundleSpec) -> "ChowClass":
        return cls(spec, {(0, 1): 1})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.coeffs.items())))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check(other)
        cs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            cs[k] = cs.get(k, 0) + c
        return ChowClass._trusted(self.spec, _stored(cs))

    def __neg__(self) -> "ChowClass":
        return ChowClass._trusted(self.spec, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check(other)
        m = self.spec.base_dim
        # the formal product, H-powers above m already dropped
        formal: FormalPoly = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                j = j1 + j2
                if j <= m:
                    k = (i1 + i2, j)
                    formal[k] = formal.get(k, 0) + a * b
        return reduce(self.spec, formal)

    def _check(self, other: "ChowClass") -> None:
        if self.spec != other.spec:
            raise ValueError("classes live on different bundles")


def reduce(spec: BundleSpec, formal: FormalPoly) -> ChowClass:
    """Normal form of a formal polynomial in xi and H with int coefficients.

    Powers H^j with j > m are dropped; powers xi^t with t >= r are rewritten
    through the defining relation
        xi^r = sum_k (-1)^(k+1) * c_k * H^k * xi^(r-k),
    each substitution strictly lowering the xi-degree, so this terminates.
    """
    m, r = spec.base_dim, spec.rank
    work = _stored(formal)
    out: FormalPoly = {}
    while work:
        (i, j), c = work.popitem()
        if c == 0 or j > m:
            continue
        if i < r:
            out[(i, j)] = out.get((i, j), 0) + c
            continue
        for k in range(1, r + 1):
            ck = spec.chern_coefficient(k)
            if ck == 0:
                continue
            sign = 1 if k % 2 == 1 else -1
            nk = (i - k, j + k)
            work[nk] = work.get(nk, 0) + c * sign * ck
    return ChowClass(spec, out)


def integrate(c: ChowClass) -> int:
    """Degree of the top piece: the coefficient of xi^(r-1) * H^m."""
    return c.coeffs.get((c.spec.rank - 1, c.spec.base_dim), 0)


def anticanonical_class(spec: BundleSpec) -> ChowClass:
    """-K_Z = r*xi + (m + 1 - c1)*H."""
    return ChowClass(
        spec,
        {(1, 0): spec.rank, (0, 1): spec.base_dim + 1 - spec.c1},
    )


class IntersectionNumbers(Frozen):
    """Top intersection numbers of xi and H powers on Z (dim Z = 4)."""

    __slots__ = ("xi1_h3", "xi2_h2", "xi3_h1", "xi4")

    def __init__(self, xi1_h3: int, xi2_h2: int, xi3_h1: int, xi4: int) -> None:
        self._fill(xi1_h3, xi2_h2, xi3_h1, xi4)


def closed_form_intersections(spec: BundleSpec) -> IntersectionNumbers:
    """Closed forms for the four top intersections.

    (m, r) = (3, 2):  (1, c1, c1^2 - c2, c1^3 - 2*c1*c2)
    (m, r) = (1, 4):  the analog record (xi^3*H = 1, xi^4 = c1); the two
    mixed entries xi*H^3 and xi^2*H^2 vanish because H^2 = 0 on P^1.
    """
    c1, c2 = spec.c1, spec.c2
    if (spec.base_dim, spec.rank) == (3, 2):
        return IntersectionNumbers(1, c1, c1 ** 2 - c2, c1 ** 3 - 2 * c1 * c2)
    return IntersectionNumbers(0, 0, 1, c1)


def intersection_numbers_by_reduction(spec: BundleSpec) -> IntersectionNumbers:
    """Same record computed by reduce + integrate; oracle for the closed forms."""
    return IntersectionNumbers(*(
        integrate(reduce(spec, {(i, j): 1})) for i, j in ((1, 3), (2, 2), (3, 1), (4, 0))
    ))


def tangent_total_chern(spec: BundleSpec) -> list[list[int]]:
    """Total Chern class of the tangent bundle of Z = P(E), as the list of
    its graded parts c0..c4: index k holds c_k(T_Z) as k + 1 ints, entry j
    the coefficient of xi^(k-j) * H^j.

    The relative Euler sequence and the pullback of the Euler sequence on
    the base give (Fulton, Intersection Theory, ch. 3)

      c(T_Z) = [sum_k (-1)^k c_k H^k (1 + xi)^(r-k)] * (1 + H)^(m+1),

    the bracket being c(p^*E^dual (x) O(1)).  Only the Chern data enter, so
    split and non-split bundles take the same path; for split E with
    degrees a_i the bracket is prod_i (1 + xi - a_i*H).

    The degree-r part of the bracket, sum_k (-1)^k c_k H^k xi^(r-k), is the
    defining relation of the ring, so it is zero and is dropped.  Every
    other term c_k H^k xi^i has i + k < r, and (1 + H)^(m+1) only raises
    H-powers (those above m vanish), so every term is in normal form as
    written: the class is summed on integer lists, with no reduction.
    """
    m, r = spec.base_dim, spec.rank
    parts = [[0] * (d + 1) for d in range(5)]
    for k in range(min(r, m) + 1):
        ck = (-1) ** k * spec.chern_coefficient(k)
        if not ck:
            continue
        for i in range(r - k):
            b = ck * comb(r - k, i)
            for j in range(m + 1 - k):
                parts[i + k + j][k + j] += b * comb(m + 1, j)
    return parts
