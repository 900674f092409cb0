"""Mutation checks: each mutation breaks one line of a copy of ``src/`` and
names the tests that must then fail.

Run from anywhere, with pytest and hypothesis installed (the script itself
is stdlib only):

    python tests/mutation_check.py

For each mutation the script copies ``src/`` to a temporary directory and
replaces one exact ``old`` text with ``new`` in one file there; it refuses
a mutation whose ``old`` does not occur exactly once, so a mutation cannot
go stale silently.  It then runs the mutation's pytest subset with
``PYTHONPATH`` set to the copy and requires pytest's exit code 1 (tests
failed).  Before any mutation it runs every subset once on an unmutated
copy and requires them to pass, so a mutation is never "caught" by a test
that fails anyway.  The exit code is 0 when every mutation applied and was
caught, 1 otherwise.

The name does not match ``test_*.py``, so tier-1 collection skips it.  A
change that moves a mutated line updates the substitution here; it does not
delete the mutation.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = Path("cybundle")

# pytest's exit code when the run completed and some test failed; 2 to 5
# (interrupted, internal error, usage error, nothing collected) would also
# be nonzero, but they say nothing about the mutation
PYTEST_TESTS_FAILED = 1


class Mutation(NamedTuple):
    name: str
    path: Path  # relative to src/
    old: str
    new: str
    tests: Sequence[str]  # pytest node ids, relative to the repo root


MUTATIONS = (
    Mutation(
        "h^m bound by bisect_left",
        PKG / "cohomology.py",
        "head = degs[:bisect_right(degs, -m - 1 - twist)]",
        "head = degs[:bisect_left(degs, -m - 1 - twist)]",
        ["tests/test_cohomology.py"],
    ),
    Mutation(
        "h^m bound without the twist",
        PKG / "cohomology.py",
        "bisect_right(degs, -m - 1 - twist)",
        "bisect_right(degs, -m - 1)",
        ["tests/test_cohomology.py"],
    ),
    Mutation(
        "P^1 top sum with the twist's sign flipped",
        PKG / "cohomology.py",
        "return (-1 - twist) * len(head)",
        "return (-1 + twist) * len(head)",
        ["tests/test_cohomology.py"],
    ),
    Mutation(
        "unsorted sym_power",
        PKG / "cohomology.py",
        "return SplitBundle._trusted(b.base_dim, tuple(sorted(sums)))",
        "return SplitBundle._trusted(b.base_dim, tuple(sums))",
        ["tests/test_cohomology.py"],
    ),
    Mutation(
        "unreversed dual",
        PKG / "cohomology.py",
        "tuple(-d for d in reversed(self.degrees))",
        "tuple(-d for d in self.degrees)",
        ["tests/test_cohomology.py"],
    ),
    Mutation(
        "top.bit_length() as the packing width",
        PKG / "ratpoly.py",
        "width = (2 * top).bit_length()",
        "width = top.bit_length()",
        # fixed examples: a failing property can spend minutes shrinking
        ["tests/test_ratpoly.py::TestSumOfProducts::test_packed_fields_hold_doubled_exponents"],
    ),
    Mutation(
        "squaring cross terms added once",
        PKG / "ratpoly.py",
        "ca *= 2 * f",
        "ca *= f",
        # a fixed example: a failing property of the file can spend minutes
        # shrinking its counterexample, and the CI step has 8 minutes
        ["tests/test_ratpoly.py::TestSumOfProducts::test_wide_homogeneous_operands_stay_packed"],
    ),
    # the dense accumulator shares the pair loop above; this subset reaches
    # the square only through the dense accumulator
    Mutation(
        "cross terms added once in the dense square loop",
        PKG / "ratpoly.py",
        "ca *= 2 * f",
        "ca *= f",
        ["tests/test_ratpoly.py::TestSumOfProducts::"
         "test_discriminant_squares_take_the_dense_accumulator"],
    ),
    Mutation(
        "dense index base B = D",
        PKG / "ratpoly.py",
        "b1 = degree + 1",
        "b1 = degree",
        ["tests/test_ratpoly.py::TestSumOfProducts::"
         "test_discriminant_squares_take_the_dense_accumulator",
         "tests/test_ratpoly.py::TestSumOfProducts::test_dense_past_the_monomial_table"],
    ),
    Mutation(
        "dense slot read back without e3",
        PKG / "ratpoly.py",
        "acc[e[1] + b1 * e[2] + b2 * e[3]]",
        "acc[e[1] + b1 * e[2]]",
        # a fixed example, as for the sparse square above
        ["tests/test_ratpoly.py::TestSumOfProducts::"
         "test_discriminant_squares_take_the_dense_accumulator"],
    ),
    Mutation(
        "dense read-back past degree 8 walking the degree-8 row",
        PKG / "ratpoly.py",
        "else monomials_of_degree(degree)",
        "else _MONOMIALS[-1]",
        ["tests/test_ratpoly.py::TestSumOfProducts::test_dense_past_the_monomial_table"],
    ),
    Mutation(
        "one-pass witness without its q-power factor",
        PKG / "ratpoly.py",
        "        c *= pq[top - e0 - e1 - e2 - e3]\n",
        "",
        ["tests/test_ratpoly.py::TestValueAndGradient"],
    ),
    Mutation(
        "one-pass witness gradient without its extra q",
        PKG / "ratpoly.py",
        "        c *= pq[1]\n",
        "",
        ["tests/test_discriminant.py::TestSingularityWitness"],
    ),
    Mutation(
        "wrong exponent in multipoly_gradient",
        PKG / "ratpoly.py",
        "d1[(e0, e1 - 1, e2, e3)] = c * e1",
        "d1[(e0, e1, e2, e3)] = c * e1",
        ["tests/test_ratpoly.py::TestMultiPoly::test_gradient_examples"],
    ),
    # with the guard gone, a float or str operand reaches sum_of_products and
    # raises AttributeError, not TypeError
    Mutation(
        "MultiPoly.__mul__ without its NotImplemented guard",
        PKG / "ratpoly.py",
        """        if not isinstance(other, MultiPoly):
            return NotImplemented
""",
        "",
        ["tests/test_ratpoly.py::TestMultiPoly::test_unsupported_operand_raises_type_error"],
    ),
    # the terms of order 1 at the point's zero coordinates vanish in the
    # value but not in the partial along that coordinate; widening the test
    # from < order to <= order keeps only terms that add exactly 0, so it
    # cannot be caught
    Mutation(
        "gradient terms kept by the value's order-1 rule",
        PKG / "ratpoly.py",
        "_low_order_terms(p, [not b for b in bases], 2)",
        "_low_order_terms(p, [not b for b in bases], 1)",
        ["tests/test_ratpoly.py::TestValueAndGradient",
         "tests/test_discriminant.py::TestSingularityWitness"],
    ),
    # evaluate keeps no loop of its own: it reads the value of the one pass
    Mutation(
        "evaluate returning the first partial instead of the value",
        PKG / "ratpoly.py",
        "return value_and_gradient(self, point)[0]",
        "return value_and_gradient(self, point)[1][0]",
        ["tests/test_ratpoly.py::TestValueAndGradient"],
    ),
    Mutation(
        "zero flag of z3 read from z2 in the live-term filter",
        PKG / "ratpoly.py",
        "z2 * e[2] + z3 * e[3] < order",
        "z2 * e[2] + z2 * e[3] < order",
        ["tests/test_ratpoly.py::TestValueAndGradient"],
    ),
    Mutation(
        "rendered coefficient without its gcd reduction",
        PKG / "ratpoly.py",
        "g := gcd(c, den)",
        "g := 1",
        ["tests/test_ratpoly.py::TestMultiPoly::test_canonical_text_matches_sorting_reference"],
    ),
    Mutation(
        "json key fields e2 and e3 swapped",
        PKG / "ratpoly.py",
        'return e, suffix, "%d,%d,%d,%d" % e',
        'return e, suffix, "%d,%d,%d,%d" % (e[0], e[1], e[3], e[2])',
        ["tests/test_golden.py"],
    ),
    Mutation(
        "monomial table in reversed order",
        PKG / "ratpoly.py",
        "tuple(map(_monomial_text, mons)) for mons in _MONOMIALS",
        "tuple(map(_monomial_text, mons[::-1])) for mons in _MONOMIALS",
        ["tests/test_golden.py"],
    ),
    Mutation(
        "power-text table starting at k = 1",
        PKG / "ratpoly.py",
        'for k in range(2, 9))) for i in range(NVARS))',
        'for k in range(1, 9))) for i in range(NVARS))',
        ["tests/test_golden.py"],
    ),
    # both sides' four fields added into one, the Euler sum sum_i z_i*d/dz_i,
    # which is 8*Delta on both sides; only partials that keep that sum while
    # trading terms between fields tell the fields apart
    Mutation(
        "gradient identity fields compared through their sum (the Euler identity)",
        PKG / "discriminant.py",
        """        rhs[k], rhs[k + 729], rhs[k + 1458], rhs[k + 2187] = e0 * v, e1 * v, e2 * v, e3 * v
    for field, offset, g in zip((0, 729, 1458, 2187), (0, 1, 9, 81),""",
        """        rhs[k] = (e0 + e1 + e2 + e3) * v
    for field, offset, g in zip((0, 0, 0, 0), (0, 1, 9, 81),""",
        ["tests/test_discriminant.py::TestGradientIdentity::"
         "test_fields_traded_with_euler_sum_kept_fail"],
    ),
    Mutation(
        "field 2 of the gradient identity weighted by e1",
        PKG / "discriminant.py",
        "e0 * v, e1 * v, e2 * v, e3 * v",
        "e0 * v, e1 * v, e1 * v, e3 * v",
        ["tests/test_discriminant.py::TestGradientIdentity"],
    ),
    Mutation(
        "partials of the octic placed without their z_i shift",
        PKG / "discriminant.py",
        "zip((0, 729, 1458, 2187), (0, 1, 9, 81),",
        "zip((0, 729, 1458, 2187), (0, 0, 0, 0),",
        ["tests/test_discriminant.py::TestGradientIdentity"],
    ),
    Mutation(
        "gradient identity's Delta(q) with +4*s00*s11",
        PKG / "discriminant.py",
        "delta = MultiPoly.sum_of_products(((1, q.s01, q.s01), (-4, q.s00, q.s11)))",
        "delta = MultiPoly.sum_of_products(((1, q.s01, q.s01), (4, q.s00, q.s11)))",
        ["tests/test_discriminant.py::TestGradientIdentity"],
    ),
    # the witness's Delta keeps only the section terms of order 0 at the
    # point: at (1, 0, 0, 0) the terms z0^7*z_i, which carry the gradient,
    # are then lost
    Mutation(
        "witness section filter at order < 1",
        PKG / "discriminant.py",
        "_low_order_terms(p, zeros, 2)",
        "_low_order_terms(p, zeros, 1)",
        ["tests/test_discriminant.py::TestSingularityWitness::"
         "test_values_match_evaluated_partials"],
    ),
    Mutation(
        "inline LCG drawing d before n",
        PKG / "discriminant.py",
        """            n = (state >> 32) % span - bound
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            if n:
                num[e] = n * (12, 6, 4, 3)[(state >> 32) % 4]""",
        """            k = (state >> 32) % 4
            state = (state * _LCG_MULT + _LCG_INC) & _LCG_MASK
            n = (state >> 32) % span - bound
            if n:
                num[e] = n * (12, 6, 4, 3)[k]""",
        ["tests/test_golden.py"],
    ),
    # the two one-pass degree checks sit in the record constructors
    Mutation(
        "one-pass section degree check with > for !=",
        PKG / "discriminant.py",
        "if poly.num and _homogeneous_degree(poly) != want:",
        "if poly.num and _homogeneous_degree(poly) > want:",
        ["tests/test_discriminant.py::TestBuildDiscriminant"],
    ),
    Mutation(
        "one-pass octic degree check accepting degree 7",
        PKG / "discriminant.py",
        "return not self.poly.num or _homogeneous_degree(self.poly) == 8",
        "return not self.poly.num or _homogeneous_degree(self.poly) in (7, 8)",
        ["tests/test_discriminant.py::TestBuildDiscriminant"],
    ),
    Mutation(
        "record equality without the type check",
        PKG / "_value.py",
        """        if type(other) is not type(self):
            return NotImplemented
""",
        "",
        ["tests/test_records.py::test_another_type_is_unequal"],
    ),
    Mutation(
        "record hash skipping the last field",
        PKG / "_value.py",
        "return hash(self._key())",
        "return hash(self._key()[:-1])",
        ["tests/test_records.py::test_each_changed_field_unequal"],
    ),
    Mutation(
        "negative candidates skipped in rational_roots",
        PKG / "ratpoly.py",
        "for s in (s0, -s0):",
        "for s in (s0,):",
        ["tests/test_ratpoly.py::TestUniPoly",
         "tests/test_ratpoly.py::TestUniPolyAgainstReference"],
    ),
    # the top coefficient still cancels, so the loop ends, but the
    # remainder is no longer lead^k * f modulo g
    Mutation(
        "lead scaling dropped from poly_gcd's pseudo-remainder",
        PKG / "ratpoly.py",
        "r = [x * lead for x in r[:k]] + ",
        "r = r[:k] + ",
        ["tests/test_ratpoly.py::TestUniPoly",
         "tests/test_ratpoly.py::TestUniPolyAgainstReference::test_stdlib_script"],
    ),
    Mutation(
        "roots at 0 appended after the others",
        PKG / "ratpoly.py",
        "return roots + sorted(found)",
        "return sorted(found) + roots",
        ["tests/test_ratpoly.py::TestUniPoly",
         "tests/test_ratpoly.py::TestUniPolyAgainstReference"],
    ),
    Mutation(
        "picard_hypothesis_note dropped from the row keys",
        PKG / "cli.py",
        'if name != "base_dim"),',
        'if name not in ("base_dim", "picard_hypothesis_note")),',
        ["tests/test_cli.py::TestEnumerateCommand"],
    ),
    Mutation(
        "oracle_ok dropped from the row keys",
        PKG / "cli.py",
        '    "oracle_ok",\n',
        "",
        ["tests/test_golden.py"],
    ),
    Mutation(
        "wrong bool rendering in _json_text",
        PKG / "cli.py",
        'bool: {True: "true", False: "false"}.__getitem__,',
        'bool: {True: "false", False: "true"}.__getitem__,',
        ["tests/test_cli.py::TestJsonWriter"],
    ),
    Mutation(
        "unsorted json row-template keys",
        PKG / "cli.py",
        "for i, k in enumerate(_ROW_ORDER))",
        "for i, k in enumerate(ROW_KEYS))",
        ["tests/test_cli.py::TestJsonWriter"],
    ),
    Mutation(
        "json row-template key-set guard dropped",
        PKG / "cli.py",
        "row = isinstance(item, dict) and item.keys() == _NULL_ROW.keys()",
        "row = isinstance(item, dict)",
        ["tests/test_cli.py::TestJsonWriter"],
    ),
    Mutation(
        "text cells over the unsorted ROW_KEYS",
        PKG / "cli.py",
        "for k in _ROW_ORDER for v in (row[k],)",
        "for k in ROW_KEYS for v in (row[k],)",
        ["tests/test_cli.py::TestTextWriter"],
    ),
    Mutation(
        "_parse_spec lets a malformed field reach int()",
        PKG / "cli.py",
        "    if not all(map(_DEGREE_FIELD.fullmatch, fields)):",
        "    if not fields:",
        ["tests/test_cli.py::TestInvariantsCommand"],
    ),
    Mutation(
        "no bound on the digits of a --degrees field",
        PKG / "cli.py",
        '_DEGREE_FIELD = re.compile(rf"-?[0-9]{{1,{MAX_DEGREE_DIGITS}}}")',
        '_DEGREE_FIELD = re.compile(r"-?[0-9]+")',
        ["tests/test_cli.py::TestDegreeDigits"],
    ),
    Mutation(
        "RhoNotTwoError mapped to exit 3",
        PKG / "cli.py",
        "    RhoNotTwoError: EXIT_INADMISSIBLE,",
        "    RhoNotTwoError: EXIT_ORACLE_MISMATCH,",
        [f"tests/test_golden.py::test_golden_output[{name}]"
         for name in ("refuse-kaehler-p3-04-exit4", "refuse-kaehler-p1-0222-exit4",
                      "refuse-classify-0222-exit4", "refuse-kaehler-p3-05-exit4")],
    ),
    Mutation(
        "exit after a failed self-check dropped",
        PKG / "cli.py",
        """        if not all(checks):
            raise CliError(EXIT_ORACLE_MISMATCH, f"a {args.command} self-check failed")
""",
        "",
        ["tests/test_cli.py::TestDiscriminantCommand::test_failed_self_check_exit_3"],
    ),
    # every value under checks is true in this test: only the witness fails
    Mutation(
        "failed base-locus witness not counted as a failed check",
        PKG / "cli.py",
        """        if witness and witness["on_base_locus"]:
            checks.append(witness["singular_point_verified"])
""",
        "",
        ["tests/test_cli.py::TestDiscriminantCommand::test_failed_witness_alone_exit_3"],
    ),
    # build_discriminant skips the octic's degree pass; this check makes it
    Mutation(
        "homogeneous_degree_8 check read as true",
        PKG / "cli.py",
        '"homogeneous_degree_8": octic.is_homogeneous_octic(),',
        '"homogeneous_degree_8": True,',
        ["tests/test_cli.py::TestDiscriminantCommand::test_defective_octic_kernel_exit_3"],
    ),
    Mutation(
        "subcommand option filter inverted",
        PKG / "cli.py",
        "if command is not None and name != command:",
        "if command is not None and name == command:",
        ["tests/test_cli.py::TestNamedSubcommandParser::"
         "test_only_the_named_subparser_has_options"],
    ),
    Mutation(
        "placeholder keeps its help action",
        PKG / "cli.py",
        "sub.add_parser(name, help=help_text, add_help=False)",
        "sub.add_parser(name, help=help_text, add_help=True)",
        ["tests/test_cli.py::TestNamedSubcommandParser::"
         "test_only_the_named_subparser_has_options"],
    ),
    Mutation(
        "non-regular --out target not refused",
        PKG / "cli.py",
        """        if args.out is not None:
            _check_out_target(args.out)
""",
        "",
        ["tests/test_cli.py::TestOutPath::test_non_regular_target_exit_2_before_any_work"],
    ),
    Mutation(
        "subcommand taken from the last argv token that names one",
        PKG / "cli.py",
        "named = argv[0] if argv and argv[0] in _COMMAND_NAMES else None",
        "named = next((a for a in reversed(argv) if a in _COMMAND_NAMES), None)",
        ["tests/test_cli.py::TestNamedSubcommandParser::"
         "test_later_token_naming_a_command"],
    ),
    Mutation(
        "--bound default 2 in the parser table",
        PKG / "cli.py",
        '("--bound", {"type": int, "default": 3})',
        '("--bound", {"type": int, "default": 2})',
        ["tests/test_golden.py::test_golden_output[discriminant-02-seed0]"],
    ),
    Mutation(
        "schema dropped from the payload header",
        PKG / "cli.py",
        'payload = {"schema": SCHEMA_VERSION, "command": args.command, **args.func(args)}',
        'payload = {"command": args.command, **args.func(args)}',
        ["tests/test_golden.py"],
    ),
    # the reach guard: a function that no request calls and no reason allows
    Mutation(
        "unreached function added to kahler",
        PKG / "kahler.py",
        "def w_cubic(inv: CyInvariants) -> CubicForm:",
        "def _unreached() -> None:\n    pass\n\n\ndef w_cubic(inv: CyInvariants) -> CubicForm:",
        ["tests/test_reach.py"],
    ),
    Mutation(
        "x-chart skipped by the rationality analysis",
        PKG / "kahler.py",
        'for chart, p in (("y", y), ("x", x)):',
        'for chart, p in (("y", y),):',
        ["tests/test_kahler.py::TestRationality::test_double_line_at_infinity"],
    ),
    Mutation(
        "w21 without its factor 3",
        PKG / "kahler.py",
        "w21=3 * inv.xi2_h",
        "w21=inv.xi2_h",
        ["tests/test_golden.py"],
    ),
    Mutation(
        "p1 rho = 2 gate at c1 <= 4",
        PKG / "kahler.py",
        "if norm.c1 > 3:",
        "if norm.c1 > 4:",
        ["tests/test_kahler.py::TestRhoTwoGate"],
    ),
    Mutation(
        "c2-positivity guard lets xi.c2 = 0 pass",
        PKG / "kahler.py",
        "if c2_xi <= 0 or c2_h <= 0:",
        "if c2_xi < 0 or c2_h <= 0:",
        ["tests/test_kahler.py::TestBoundaryRays"],
    ),
    Mutation(
        "y-factor multiplicity off by one",
        PKG / "kahler.py",
        "y_mult = 4 - len(y)",
        "y_mult = 3 - len(y)",
        ["tests/test_kahler.py::TestRationality::test_factor_verdicts"],
    ),
    Mutation(
        "RuledOverQuartic reported with quartic_degree 5",
        PKG / "kahler.py",
        "quartic_degree=4",
        "quartic_degree=5",
        ["tests/test_kahler.py::TestContractionClassification::test_table"],
    ),
    # one Gram entry per geometry, read from the wrong top intersection
    Mutation(
        "p3 Gram entry xi H^3 read as xi^2 H^2",
        PKG / "kahler.py",
        "g11, g12, g22 = 0, n.xi1_h3, n.xi2_h2",
        "g11, g12, g22 = 0, n.xi2_h2, n.xi2_h2",
        ["tests/test_kahler.py::TestDeterminants::test_h4_unimodular"],
    ),
    Mutation(
        "p1 Gram entry xi^3 H read as xi^4",
        PKG / "kahler.py",
        "g11, g12, g22 = n.xi2_h2, n.xi3_h1, n.xi4",
        "g11, g12, g22 = n.xi2_h2, n.xi4, n.xi4",
        ["tests/test_kahler.py::TestDeterminants::test_h4_unimodular"],
    ),
    Mutation(
        "rho twisted by the un-normalized c1",
        PKG / "invariants.py",
        "cohomology(s, 1, 2 - norm.c1 + j * a3)",
        "cohomology(s, 1, 2 - spec.c1 + j * a3)",
        ["tests/test_invariants.py::TestPicardNumber"],
    ),
    Mutation(
        "twist step j*a3 dropped from rho",
        PKG / "invariants.py",
        "cohomology(s, 1, 2 - norm.c1 + j * a3)",
        "cohomology(s, 1, 2 - norm.c1)",
        ["tests/test_invariants.py::TestPicardNumber::test_p1_examples"],
    ),
    # the sum merges prefixes such as (0, 0, 2) and (0, 1, 1); a spec alone
    # never meets a second prefix, so only a shared memo shows it
    Mutation(
        "memo key that merges two prefixes",
        PKG / "invariants.py",
        "powers = memo.get(prefix)",
        "prefix = sum(prefix)\n    powers = memo.get(prefix)",
        ["tests/test_invariants.py::TestPicardNumber::test_shared_memo_equals_no_memo"],
    ),
    Mutation(
        "xi_h2 and xi2_h swapped in the positional record",
        PKG / "invariants.py",
        'o["h3"], o["xi_h2"], o["xi2_h"], o["xi3"]',
        'o["h3"], o["xi2_h"], o["xi_h2"], o["xi3"]',
        ["tests/test_invariants.py::TestInvariantsP3::test_both_paths_agree_on_0_2"],
    ),
    Mutation(
        "oracle pairing built with H in place of -K_Z",
        PKG / "invariants.py",
        "P = [r * T[j] + s * T[j + 1] for j in range(4)]",
        "P = [T[j + 1] for j in range(4)]",
        ["tests/test_invariants.py::TestInvariantsP1",
         "tests/test_invariants.py::TestInvariantsP3"],
    ),
    # the same line: this one leaves the xi part of -K_Z alone
    Mutation(
        "s*T_(j+1) dropped from the oracle pairing",
        PKG / "invariants.py",
        "P = [r * T[j] + s * T[j + 1] for j in range(4)]",
        "P = [r * T[j] for j in range(4)]",
        ["tests/test_invariants.py::TestOraclePairing"],
    ),
    Mutation(
        "p3 top intersections with the relation's c2 sign flipped",
        PKG / "chow.py",
        "IntersectionNumbers(1, c1, c1 ** 2 - c2, c1 ** 3 - 2 * c1 * c2)",
        "IntersectionNumbers(1, c1, c1 ** 2 + c2, c1 ** 3 + 2 * c1 * c2)",
        ["tests/test_chow.py::TestClosedForms"],
    ),
    Mutation(
        "relation sign flipped in reduce",
        PKG / "chow.py",
        "sign = 1 if k % 2 == 1 else -1",
        "sign = -1 if k % 2 == 1 else 1",
        ["tests/test_chow.py::TestReduce"],
    ),
    Mutation(
        "H-power m + 1 kept by reduce",
        PKG / "chow.py",
        "if c == 0 or j > m:",
        "if c == 0 or j > m + 1:",
        ["tests/test_chow.py::TestReduce"],
    ),
    Mutation(
        "degree-r bracket terms of c(T_Z) kept",
        PKG / "chow.py",
        "for i in range(r - k):",
        "for i in range(r - k + 1):",
        ["tests/test_chow.py::TestTangentChern"],
    ),
    # one closed form per geometry, each caught by its oracle comparison
    Mutation(
        "p1 closed form xi.c2 flipped",
        PKG / "invariants.py",
        '"xi_dot_c2": 6 * c1 + 44,',
        '"xi_dot_c2": 6 * c1 + 45,',
        ["tests/test_invariants.py::TestInvariantsP1"],
    ),
    Mutation(
        "p3 closed form xi^3 with the sign of 3*c1*c2 flipped",
        PKG / "invariants.py",
        '"xi3": c1 ** 3 + 4 * c1 ** 2 - 3 * c1 * c2 - 4 * c2,',
        '"xi3": c1 ** 3 + 4 * c1 ** 2 + 3 * c1 * c2 - 4 * c2,',
        ["tests/test_invariants.py::TestClosedFormCertificate::test_p3_grid"],
    ),
    Mutation(
        "p3 closed form c3(X) flipped",
        PKG / "invariants.py",
        '"c3_X": -8 * g - 168,',
        '"c3_X": -8 * g - 166,',
        ["tests/test_invariants.py::TestInvariantsP3"],
    ),
)


def _copy_src(dest: Path) -> Path:
    root = dest / "src"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _apply(root: Path, m: Mutation) -> None:
    target = root / m.path
    text = target.read_text(encoding="utf-8")
    count = text.count(m.old)
    if count != 1:
        raise LookupError(f"{m.path}: the old text occurs {count} times, not once")
    target.write_text(text.replace(m.old, m.new), encoding="utf-8")


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _pytest(root: Path, tests: Sequence[str], *extra: str) -> int:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *extra]
    return subprocess.run(
        argv + list(tests),
        cwd=ROOT,
        env=_env(root),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def _imported_from(root: Path) -> Path:
    out = subprocess.run(
        [sys.executable, "-c", "import cybundle; print(cybundle.__file__)"],
        env=_env(root),
        capture_output=True,
        text=True,
        check=True,
    )
    return Path(out.stdout.strip()).resolve()


def main() -> int:
    failures: List[str] = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cybundle-mutation-") as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        where = _imported_from(clean)
        if clean.resolve() not in where.parents:
            print(f"error: cybundle imports from {where}, not the copy", file=sys.stderr)
            return 1
        subsets = sorted({t for m in MUTATIONS for t in m.tests})
        code = _pytest(clean, subsets)
        if code != 0:
            print(f"error: the subsets fail on unmutated src (pytest exit {code})",
                  file=sys.stderr)
            return 1
        for i, m in enumerate(MUTATIONS):
            began = time.perf_counter()
            root = _copy_src(Path(tmp) / f"m{i}")
            try:
                _apply(root, m)
            except LookupError as exc:
                verdict = f"STALE ({exc})"
            else:
                code = _pytest(root, m.tests, "-x")
                verdict = (
                    "caught" if code == PYTEST_TESTS_FAILED else f"MISSED (pytest exit {code})"
                )
            if verdict != "caught":
                failures.append(m.name)
            print(f"{verdict:>8}  {time.perf_counter() - began:5.1f} s  {m.name}  "
                  f"[{' '.join(m.tests)}]", flush=True)
            shutil.rmtree(root)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTATIONS) - len(failures)}/{len(MUTATIONS)} mutations caught "
          f"in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
