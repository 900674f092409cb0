"""Sheaf cohomology of direct sums of line bundles on P^1 and P^3.

Only the split case is needed: every concrete cohomology group entering the
Picard-number formulas and the admissibility bound lives on a direct sum of
line bundles, where the dimensions follow the classical Bott/Serre rules and
add over summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, repeat
from math import comb
from typing import Tuple


@dataclass(frozen=True)
class SplitBundle:
    """A direct sum of line bundles O(d) on P^m, as a multiset of degrees."""

    base_dim: int
    degrees: Tuple[int, ...]

    def __post_init__(self):
        if self.base_dim not in (1, 3):
            raise ValueError("base must be P^1 or P^3")
        if not self.degrees:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))

    @classmethod
    def _trusted(cls, base_dim: int, degrees: Tuple[int, ...]) -> "SplitBundle":
        """Wrap degrees already sorted over a valid base, skipping the
        checks and the sort of __post_init__."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "base_dim", base_dim)
        object.__setattr__(obj, "degrees", degrees)
        return obj

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def twist(self, t: int) -> "SplitBundle":
        # adding t keeps the degrees sorted
        return SplitBundle._trusted(self.base_dim, tuple(d + t for d in self.degrees))

    def dual(self) -> "SplitBundle":
        # negating the reversed degrees keeps them sorted
        return SplitBundle._trusted(
            self.base_dim, tuple(-d for d in reversed(self.degrees))
        )


def line_cohomology(m: int, d: int, i: int) -> int:
    """h^i(P^m, O(d)):  h^0 = C(d+m, m) for d >= 0, h^m = C(-d-1, m) for
    d <= -m-1, everything else zero."""
    if not 0 <= i <= m:
        raise ValueError(f"cohomology index {i} out of range for P^{m}")
    if i == 0:
        return comb(d + m, m) if d >= 0 else 0
    if i == m:
        return comb(-d - 1, m) if d <= -m - 1 else 0
    return 0


def cohomology(b: SplitBundle, i: int) -> int:
    """h^i of a split bundle: the sum of line_cohomology over the line
    summands, so the Bott rule is stated once; an index outside 0..m
    raises ValueError."""
    return sum(map(line_cohomology, repeat(b.base_dim), b.degrees, repeat(i)))


def euler_characteristic(b: SplitBundle) -> int:
    """chi(b) via the binomial polynomial C(d+m, m) extended to all integers.

    For m = 3 this is (d+1)(d+2)(d+3)/6, valid for negative d as well, so it
    matches the alternating sum of the Bott dimensions without case splits.
    """
    m = b.base_dim
    total = 0
    for d in b.degrees:
        num = 1
        for k in range(1, m + 1):
            num *= d + k
        total += num // _factorial(m)
    return total


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def sym_power(b: SplitBundle, k: int) -> SplitBundle:
    """Sym^k of a split bundle: all k-fold degree sums with repetition."""
    if k < 0:
        raise ValueError("symmetric power index must be >= 0")
    if k == 0:
        return SplitBundle(b.base_dim, (0,))
    degs = tuple(map(sum, combinations_with_replacement(b.degrees, k)))
    return SplitBundle(b.base_dim, degs)


def end_bundle(b: SplitBundle) -> SplitBundle:
    """End(E) = E^v (x) E: degrees a_i - a_j over all ordered pairs."""
    degs = tuple(ai - aj for ai in b.degrees for aj in b.degrees)
    return SplitBundle(b.base_dim, degs)
