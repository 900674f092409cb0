"""Sheaf cohomology of direct sums of line bundles on P^1 and P^3.

Only the split case is needed: every concrete cohomology group entering the
Picard-number formulas and the admissibility bound lives on a direct sum of
line bundles, where the dimensions follow the classical Bott/Serre rules and
add over summands.

SplitBundle.degrees is sorted ascending: the constructor sorts them, every
caller of SplitBundle._trusted must pass them sorted, and cohomology() bisects.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations_with_replacement, repeat
from math import comb, factorial, prod
from operator import index

from ._value import Frozen


class SplitBundle(Frozen):
    """A direct sum of line bundles O(d) on P^m, as a multiset of degrees."""

    __slots__ = ("base_dim", "degrees")

    def __init__(self, base_dim: int, degrees: tuple[int, ...]) -> None:
        self._fill(index(base_dim), degrees)
        if self.base_dim not in (1, 3):
            raise ValueError("base must be P^1 or P^3")
        if not self.degrees:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "degrees", tuple(sorted(map(index, self.degrees))))

    def twist(self, t: int) -> "SplitBundle":
        # adding t keeps the degrees sorted
        return SplitBundle._trusted(self.base_dim, tuple(map(index(t).__add__, self.degrees)))

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


def cohomology(b: SplitBundle, i: int, twist: int = 0) -> int:
    """h^i of b (x) O(twist), the sum of line_cohomology over the summands
    O(d + twist), without building the twisted bundle; an index outside 0..m
    raises ValueError.  Only d >= -twist (i = 0) and d <= -m-1-twist (i = m)
    contribute; b.degrees is sorted ascending, so bisection finds them and
    their binomials are summed in one map (on P^1, C(k, 1) = k in closed form)."""
    m, degs, twist = b.base_dim, b.degrees, index(twist)
    if not 0 <= i <= m:
        raise ValueError(f"cohomology index {i} out of range for P^{m}")
    if i == 0:  # C(d + twist + m, m)
        tail = degs[bisect_left(degs, -twist):]
        return sum(map(comb, map((twist + m).__add__, tail), repeat(m)))
    if i == m:  # C(-d - twist - 1, m)
        head = degs[:bisect_right(degs, -m - 1 - twist)]
        if m == 1:
            return (-1 - twist) * len(head) - sum(head)
        return sum(map(comb, map((-1 - twist).__sub__, head), repeat(m)))
    return 0


def euler_characteristic(b: SplitBundle) -> int:
    """chi(b) via the binomial polynomial C(d+m, m) extended to all integers.

    For m = 3 this is (d+1)(d+2)(d+3)/6, valid for negative d as well, so it
    matches the alternating sum of the Bott dimensions without case splits.
    Each product of m consecutive integers is divisible by m!, so the sum is.
    """
    m = b.base_dim
    return sum(prod(range(d + 1, d + m + 1)) for d in b.degrees) // factorial(m)


def sym_power(b: SplitBundle, k: int) -> SplitBundle:
    """Sym^k of a split bundle: all k-fold degree sums with repetition
    (Sym^0 is O, the one empty sum)."""
    if k < 0:
        raise ValueError("symmetric power index must be >= 0")
    sums = map(sum, combinations_with_replacement(b.degrees, k))
    return SplitBundle._trusted(b.base_dim, tuple(sorted(sums)))


def end_bundle(b: SplitBundle) -> SplitBundle:
    """End(E) = E^v (x) E: degrees a_i - a_j over all ordered pairs."""
    degs = tuple(ai - aj for ai in b.degrees for aj in b.degrees)
    return SplitBundle(b.base_dim, degs)
