"""Stdlib-only check of the integer Chern-class oracle against ChowClass
arithmetic, and the reference ring the Chow tests build classes with.

    PYTHONPATH=src python tests/chow_kernel_check.py

compares ``chow.tangent_total_chern``, which sums c(T_Z) on integer lists
with the degree-r part of the bracket dropped, with two references built
from ``ChowClass`` products: the bracket with xi^r reduced through the
ring relation, times (1 + H)^(m+1), and, for split bundles, the product
of (1 + xi - a_i*H) over the split degrees a_i times (1 + H)^(m+1).  It
compares ``invariants._oracle_numbers``, which pairs -K_Z once with each
degree-3 monomial through the top intersections, with ``integrate(a * L)``
for each integrand a, built from ``ChowClass`` products, in value and in
type.  The Chern data are p3 (c1, c2) in -8..20 x -10..20, split p3 and
p1 bundles, p1 c1 in -8..70 and seeded data with entries up to 10^6.  It
exits 1 on the first difference and needs nothing outside the standard
library, so it runs under any Python the package supports;
``tests/test_invariants.py`` runs it too.

``ChowClass`` keeps only the product; the reference ring here adds the rest
on grids: ``combine`` (an integer combination of classes), the generators
``xi`` and ``hyperplane``, and ``anticanonical_class``.
"""

import sys
from itertools import combinations_with_replacement
from math import comb
from random import Random

from cybundle.chow import BundleSpec, ChowClass, integrate, tangent_total_chern
from cybundle.invariants import _oracle_numbers


def combine(spec, *terms):
    """sum_k w_k * a_k over the (w_k, a_k) pairs, each a_k a class on spec."""
    grid = {}
    for w, a in terms:
        if a.spec != spec:
            raise ValueError("classes live on different bundles")
        for k, c in a.coeffs.items():
            grid[k] = grid.get(k, 0) + w * c
    return ChowClass(spec, grid)


def xi(spec):
    return ChowClass(spec, {(1, 0): 1})


def hyperplane(spec):
    return ChowClass(spec, {(0, 1): 1})


def anticanonical_class(spec):
    """-K_Z = r*xi + (m + 1 - c1)*H."""
    return combine(spec, (spec.rank, xi(spec)),
                   (spec.base_dim + 1 - spec.c1, hyperplane(spec)))


def graded_parts(c):
    """The five pure-degree pieces of a class as ``tangent_total_chern``
    lists them: entry j of piece d is the coefficient of xi^(d-j) * H^j."""
    return [[c.coeffs.get((d - j, j), 0) for j in range(d + 1)] for d in range(5)]


def as_class(spec, part):
    """One graded part of ``tangent_total_chern`` as a ChowClass."""
    d = len(part) - 1
    return ChowClass(spec, {(d - j, j): v for j, v in enumerate(part)})


def ref_reduced_bracket(spec):
    """c(T_Z) with the whole bracket kept: xi^r is reduced as the product
    xi * xi^(r-1), and the bracket is multiplied by (1 + H)^(m+1)."""
    m, r = spec.base_dim, spec.rank
    below = {
        (i, k): (-1) ** k * spec.chern_coefficient(k) * comb(r - k, i)
        for k in range(min(r, m) + 1)
        for i in range(r - k + 1)
        if i < r
    }
    xi_r = xi(spec) * ChowClass(spec, {(r - 1, 0): 1})
    bracket = combine(spec, (1, ChowClass(spec, below)), (1, xi_r))
    base = ChowClass(spec, {(0, j): comb(m + 1, j) for j in range(m + 1)})
    return graded_parts(bracket * base)


def ref_chern_roots(spec):
    """c(T_Z) for split E: the split degrees are the Chern roots of E."""
    acc = ChowClass(spec, {(0, 0): 1})
    for a in spec.split_degrees:
        acc = acc * ChowClass(spec, {(0, 0): 1, (1, 0): 1, (0, 1): -a})
    for _ in range(spec.base_dim + 1):
        acc = acc * ChowClass(spec, {(0, 0): 1, (0, 1): 1})
    return graded_parts(acc)


def oracle_by_products(spec):
    """Every oracle integral as its own integrate(a * L), with c(T_Z) from
    the reduced-bracket reference."""
    L = anticanonical_class(spec)
    ct = ref_reduced_bracket(spec)
    c2Z, c3Z = as_class(spec, ct[2]), as_class(spec, ct[3])
    x, H = xi(spec), hyperplane(spec)
    integrands = {
        "c3_X": combine(spec, (1, c3Z), (-1, c2Z * L)),
        "h_dot_c2": H * c2Z,
        "xi_dot_c2": x * c2Z,
        "mk_dot_c2": L * c2Z,
        "h3": H * H * H,
        "xi_h2": x * H * H,
        "xi2_h": x * x * H,
        "xi3": x * x * x,
        "mk_cubed": L * L * L,
        "mk_sq_h": L * L * H,
    }
    return {key: integrate(a * L) for key, a in integrands.items()}


def check_spec(spec):
    """Compare the oracle of one spec with its references."""
    got = tangent_total_chern(spec)
    refs = [("reduced bracket", ref_reduced_bracket(spec))]
    if spec.is_split:
        refs.append(("Chern roots", ref_chern_roots(spec)))
    for name, want in refs:
        if got != want or any(type(v) is not int for part in got for v in part):
            raise AssertionError(f"c(T_Z) of {spec}: {got} != {name} {want}")
    got, want = _oracle_numbers(spec), oracle_by_products(spec)
    if got != want or [type(v) for v in got.values()] != [type(v) for v in want.values()]:
        raise AssertionError(f"oracle of {spec}: {got} != by products {want}")


def chern_data(seed=0, count=200):
    """The specs above, then ``count`` seeded ones with large entries."""
    for c1 in range(-8, 21):
        for c2 in range(-10, 21):
            yield BundleSpec.from_chern(c1, c2)
    for a in range(-4, 5):
        for b in range(a, a + 13):
            yield BundleSpec.from_split(3, (a, b))
    for c1 in range(-8, 71):
        yield BundleSpec(1, 4, c1)
    for degrees in combinations_with_replacement(range(-2, 4), 4):
        yield BundleSpec.from_split(1, degrees)
    rng = Random(seed)
    big = 10 ** 6
    for n in range(count):
        kind = n % 4
        if kind == 0:
            yield BundleSpec.from_chern(rng.randint(-big, big), rng.randint(-big, big))
        elif kind == 1:
            yield BundleSpec(1, 4, rng.randint(-big, big))
        else:
            m = 3 if kind == 2 else 1
            yield BundleSpec.from_split(m, [rng.randint(-999, 999) for _ in range(5 - m)])


def check(seed=0, count=200):
    """Run every comparison; returns the number of Chern data checked."""
    checked = 0
    for spec in chern_data(seed, count):
        check_spec(spec)
        checked += 1
    return checked


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    version = sys.version.split()[0]
    print(f"ok: the oracle of {n} Chern data matches ChowClass products "
          f"under Python {version}")
