"""The paper's split rho = 2 domain as a finite lemma, with a test-side
reference for which p1 specs carry a smooth member X of |-K_Z|.

Z = P(E) over P^1 is toric.  For normalized degrees (0, a1, a2, a3) the
coefficient of x^e in a section of -K_Z has degree 2 - c1 + <e, a> on P^1,
so the base locus is a union of coordinate strata; by Bertini the general
X is smooth off it.  Three strata can occur, tested in this order:

  * C0 = P(O), when c1 >= 3.  The normal derivatives g_j have degree
    2 - c1 + a_j; X is smooth along C0 iff one g_j has degree 0 or at
    least two have degree > 0, and singular there otherwise.
  * P(O + O(a1)) lies in every X when 2 - c1 + 4*a1 < 0 (its top monomial
    x1^4 has negative degree), and every such X is singular.
  * Every section is divisible by x3, so X is reducible, when
    2 - c1 + 4*a2 < 0.

Over P^3 a split (a, b) with b - a <= 4 gives a base-point-free system
(``admissibility_p3``), so its general X is smooth.
"""

from collections import Counter
from itertools import combinations_with_replacement, product
from random import Random

from cybundle.chow import BundleSpec
from cybundle.invariants import admissibility_p3, picard_number

SINGULAR_ALONG_C0 = "singular along C0"
CONTAINS_P_O_A1 = "contains P(O + O(a1))"
REDUCIBLE = "reducible"
SMOOTH = "smooth"

# the normalized p1 specs with every degree at most N = 20
P1_N20 = [(0,) + rest for rest in combinations_with_replacement(range(21), 3)]


def smooth_member_p1(degrees):
    """The first stratum (in the order above) on which every member of
    |-K_Z| is singular, or ``SMOOTH``; degrees are normalized and sorted."""
    _, a1, a2, a3 = degrees
    c1 = a1 + a2 + a3
    if c1 >= 3:
        g = [2 - c1 + a for a in (a1, a2, a3)]
        if 0 not in g and sum(d > 0 for d in g) < 2:
            return SINGULAR_ALONG_C0
    if 2 - c1 + 4 * a1 < 0:
        return REDUCIBLE if 2 - c1 + 4 * a2 < 0 else CONTAINS_P_O_A1
    return SMOOTH


def section_degrees(degrees):
    """Exponent e of x^e (|e| = 4) -> the degree of its coefficient on P^1."""
    _, a1, a2, a3 = degrees
    c1 = a1 + a2 + a3
    return {
        e: 2 - c1 + e[1] * a1 + e[2] * a2 + e[3] * a3
        for e in product(range(5), repeat=4)
        if sum(e) == 4
    }


# random sections on P^1 are compared modulo this prime
P = 10007


def _gcd_mod_p(f, g):
    """gcd of two polynomials over GF(P); coefficient lists, constant first."""
    def trim(h):
        while h and h[-1] % P == 0:
            h = h[:-1]
        return h

    f, g = trim(f), trim(g)
    while g:
        q = pow(g[-1], -1, P)
        while len(f) >= len(g):
            c, shift = f[-1] * q, len(f) - len(g)
            f = trim([x - c * g[i - shift] if i >= shift else x for i, x in enumerate(f)])
        f, g = g, f
    return f


def common_zero_on_p1(degrees_, rng):
    """Whether general sections of O(d) on P^1, one for each d (a negative
    d gives the zero section), share a zero: each is a random binary form
    whose extreme coefficients are nonzero, so none vanishes at infinity,
    and they share a zero iff the gcd of their affine parts is not constant."""
    forms = [
        [rng.randrange(1, P)] + [rng.randrange(P) for _ in range(d - 1)]
        + [rng.randrange(1, P)] * (d > 0)
        for d in degrees_ if d >= 0
    ]
    if not forms:
        return True
    g = forms[0]
    for f in forms[1:]:
        g = _gcd_mod_p(g, f)
    return len(g) > 1


def test_strata_counts_at_n20():
    verdicts = {degrees: smooth_member_p1(degrees) for degrees in P1_N20}
    assert len(verdicts) == 1771
    count = Counter(verdicts.values())
    assert count[SINGULAR_ALONG_C0] == 1727
    assert count[CONTAINS_P_O_A1] + count[REDUCIBLE] == 36
    assert count[REDUCIBLE] == 28
    assert [d for d, v in verdicts.items() if v == SMOOTH] == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 1, 1),
        (0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 1, 3), (0, 1, 1, 4),
    ]


def test_domain_lemma():
    # rho = 2 on p1 needs c1 <= 3, so N = 20 holds every p1 spec of the
    # domain; on p3, b > 4 is inadmissible, so b <= 20 holds every one
    p1 = [d for d in P1_N20 if picard_number(BundleSpec.from_split(1, d))[0] == 2]
    assert all(sum(d) <= 3 for d in p1)
    domain = [("p1", d) for d in p1 if smooth_member_p1(d) == SMOOTH]
    for b in range(21):
        spec = BundleSpec.from_split(3, (0, b))
        if picard_number(spec)[0] == 2 and admissibility_p3(spec):
            domain.append(("p3", (0, b)))
    assert domain == [
        ("p1", (0, 0, 0, 0)), ("p1", (0, 0, 0, 1)), ("p1", (0, 0, 0, 2)),
        ("p1", (0, 0, 1, 1)), ("p1", (0, 1, 1, 1)),
        ("p3", (0, 0)), ("p3", (0, 1)), ("p3", (0, 2)), ("p3", (0, 3)),
    ]
    # the two rho = 2 p1 specs that the strata rule drops
    assert smooth_member_p1((0, 0, 0, 3)) == SINGULAR_ALONG_C0
    assert smooth_member_p1((0, 0, 1, 2)) == CONTAINS_P_O_A1


def test_c0_clause_by_random_sections():
    # C0 = {x1 = x2 = x3 = 0} lies in every X iff x0^4 has no section; near
    # C0 (x0 = 1) the linear part of X is sum_j g_j * x_j with g_j the
    # coefficient of x0^3 * x_j, so X is singular along C0 iff the g_j share
    # a zero on P^1
    rng = Random(0)
    for degrees in P1_N20:
        deg = section_degrees(degrees)
        g = [deg[tuple(3 if i == 0 else int(i == j) for i in range(4))] for j in (1, 2, 3)]
        singular = deg[(4, 0, 0, 0)] < 0 and common_zero_on_p1(g, rng)
        assert (smooth_member_p1(degrees) == SINGULAR_ALONG_C0) == singular, degrees


def test_p_o_a1_clause_by_monomials():
    # P(O + O(a1)) = {x2 = x3 = 0} lies in every X iff no monomial in x0, x1
    # alone has a section
    for degrees in P1_N20:
        verdict = smooth_member_p1(degrees)
        if verdict == SINGULAR_ALONG_C0:
            continue
        contained = all(d < 0 for e, d in section_degrees(degrees).items() if e[2] == e[3] == 0)
        assert (verdict in (CONTAINS_P_O_A1, REDUCIBLE)) == contained, degrees


def test_reducible_clause_by_monomials():
    # every section is divisible by x3 iff each monomial with a section holds x3
    for degrees in P1_N20:
        verdict = smooth_member_p1(degrees)
        if verdict == SINGULAR_ALONG_C0:
            continue
        with_section = [e for e, d in section_degrees(degrees).items() if d >= 0]
        assert with_section
        assert (verdict == REDUCIBLE) == all(e[3] for e in with_section), degrees
