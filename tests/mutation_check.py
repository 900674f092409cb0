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
        "SplitBundle keeping a float base_dim",
        PKG / "cohomology.py",
        "self._fill(index(base_dim), degrees)",
        "self._fill(base_dim, degrees)",
        ["tests/test_cohomology.py::TestConstructions::test_non_integral_base_refused"],
    ),
    Mutation(
        "cohomology reading twist without index",
        PKG / "cohomology.py",
        "m, degs, twist = b.base_dim, b.degrees, index(twist)",
        "m, degs = b.base_dim, b.degrees",
        ["tests/test_cohomology.py::TestConstructions::test_non_integral_twist_refused"],
    ),
    # annotations are builtin generics; one typing import in any module of
    # src loads it into every request
    Mutation(
        "typing import put back into cohomology",
        PKG / "cohomology.py",
        "from operator import index\n",
        "from operator import index\nfrom typing import Tuple\n",
        ["tests/test_cli.py::TestStartup::test_requests_load_only_what_they_use"],
    ),
    # fractions loads decimal and numbers; only discriminant may load them,
    # and only when it runs
    Mutation(
        "fractions import put back into kahler",
        PKG / "kahler.py",
        "from enum import Enum\n",
        "from enum import Enum\nfrom fractions import Fraction\n",
        ["tests/test_cli.py::TestStartup::test_cli_import_loads_only_what_every_command_uses"],
    ),
    Mutation(
        "csv imported at cli module level",
        PKG / "cli.py",
        "import argparse\n",
        "import argparse\nimport csv\n",
        ["tests/test_cli.py::TestStartup::test_cli_import_loads_only_what_every_command_uses"],
    ),
    Mutation(
        "SplitBundle's base guard dropped",
        PKG / "cohomology.py",
        "if self.base_dim not in (1, 3):",
        "if False:",
        ["tests/test_cohomology.py::TestConstructions::test_base_other_than_p1_or_p3_refused"],
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
    # with the guard gone, a float or str operand reaches the scalar product
    # and raises AttributeError (no .numerator), not TypeError
    Mutation(
        "MultiPoly.__mul__ without its NotImplemented guard",
        PKG / "ratpoly.py",
        """        if not isinstance(other, (int, _fraction())):
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
        "tuple(map(_monomial_text, _MONOMIALS[d]))",
        "tuple(map(_monomial_text, _MONOMIALS[d][::-1]))",
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
        "trailing-zero check dropped from poly_gcd",
        PKG / "ratpoly.py",
        "if a[-1:] == [0] or b[-1:] == [0]:",
        "if False:",
        ["tests/test_ratpoly.py::TestUniPoly::test_gcd_trailing_zero_raises"],
    ),
    Mutation(
        "trailing-zero check dropped from rational_roots",
        PKG / "ratpoly.py",
        "if a[-1] == 0:",
        "if False:",
        ["tests/test_ratpoly.py::TestUniPoly::test_rational_roots_trailing_zero_raises"],
    ),
    # [] then reaches a[-1]: IndexError, not the guard's ValueError
    Mutation(
        "empty-list check dropped from rational_roots",
        PKG / "ratpoly.py",
        "if not a:",
        "if False:",
        ["tests/test_ratpoly.py::TestUniPoly::test_rational_roots_of_empty_list_raises"],
    ),
    Mutation(
        "roots at 0 appended after the others",
        PKG / "ratpoly.py",
        "return roots + sorted(found, key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1]))",
        "return sorted(found, key=cmp_to_key(lambda p, q: p[0] * q[1] - q[0] * p[1])) + roots",
        ["tests/test_ratpoly.py::TestUniPoly",
         "tests/test_ratpoly.py::TestUniPolyAgainstReference"],
    ),
    Mutation(
        "roots sorted descending",
        PKG / "ratpoly.py",
        "p[0] * q[1] - q[0] * p[1]",
        "q[0] * p[1] - p[0] * q[1]",
        ["tests/test_ratpoly.py::TestUniPoly::test_rational_roots_order"],
    ),
    # the division by t*x - s is right; only the recorded root is not
    Mutation(
        "root emitted as (t, s)",
        PKG / "ratpoly.py",
        "found.append((s, t))",
        "found.append((t, s))",
        ["tests/test_ratpoly.py::TestUniPoly::test_rational_roots"],
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
        "cells = map(row.__getitem__, _ROW_ORDER)",
        "cells = map(row.__getitem__, ROW_KEYS)",
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
        "if y_mult >= 2:",
        "if False:",
        ["tests/test_kahler.py::TestRationality::test_double_line_at_infinity"],
    ),
    # x y^2: y^2 divides w, so its double line is read at y_mult = 2
    Mutation(
        "[1:0] double line read only at y^3",
        PKG / "kahler.py",
        "if y_mult >= 2:",
        "if y_mult >= 3:",
        ["tests/test_kahler.py::TestRationality::test_double_line_at_infinity"],
    ),
    Mutation(
        "[1:0] double roots one too many",
        PKG / "kahler.py",
        "(y_mult - 1)",
        "y_mult",
        ["tests/test_kahler.py::TestRationality::test_cube_of_a_line"],
    ),
    # a double line is the point [x, y] in the basis of the rays: y = 0 is
    # [1:0], and a root s/t of the chart y = 1 is [s:t]
    Mutation(
        "chart-x double root emitted as (0, 1)",
        PKG / "kahler.py",
        "((1, 0),) * (y_mult - 1)",
        "((0, 1),) * (y_mult - 1)",
        ["tests/test_kahler.py::TestRationality::test_double_line_at_infinity",
         "tests/test_cli.py::TestKaehlerCommand::test_double_roots_are_rays"],
    ),
    Mutation(
        "root s/t emitted as (t, s)",
        PKG / "kahler.py",
        "RATIONAL_DOUBLE_LINE, tuple(roots))",
        "RATIONAL_DOUBLE_LINE, tuple(r[::-1] for r in roots))",
        ["tests/test_kahler.py::TestRationality::test_planted_double_roots",
         "tests/test_cli.py::TestKaehlerCommand::test_double_roots_are_rays"],
    ),
    Mutation(
        "degeneracy_determinant's shape guard dropped",
        PKG / "kahler.py",
        "if (spec.base_dim, spec.rank) != (3, 2):",
        "if False:",
        ["tests/test_kahler.py::TestDeterminants::test_degeneracy_refuses_p1_spec"],
    ),
    Mutation(
        "classify_contraction_p1's shape guard dropped",
        PKG / "kahler.py",
        "if (spec.base_dim, spec.rank) != (1, 4) or not spec.is_split:",
        "if False:",
        ["tests/test_kahler.py::TestContractionClassification::test_p3_spec_refused"],
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
    # a report row reads rho = 2 from its record; a row the cone layer
    # refuses then raises RhoNotTwoError from boundary_rays
    Mutation(
        "row gate reads rho > 2",
        PKG / "cli.py",
        "if inv.picard_number != 2 or",
        "if inv.picard_number > 2 or",
        ["tests/test_cli.py::TestReportRowGate"],
    ),
    Mutation(
        "row gate without the P^3 fiber-count clause",
        PKG / "cli.py",
        "if inv.picard_number != 2 or (spec.base_dim == 3 and inv.fiber_count is None):",
        "if inv.picard_number != 2:",
        ["tests/test_cli.py::TestReportRowGate"],
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
        "h1, t0 = 0, 2 - norm.c1",
        "h1, t0 = 0, 2 - spec.c1",
        ["tests/test_invariants.py::TestPicardNumber"],
    ),
    Mutation(
        "twist step j*a3 dropped from rho",
        PKG / "invariants.py",
        "t = t0 + j * a3",
        "t = t0",
        ["tests/test_invariants.py::TestPicardNumber::test_p1_examples"],
    ),
    # every power of F has least degree 0, so one at t = -2 has h^1 > 0
    # and must be summed
    Mutation(
        "rho's vanishing bound one too low",
        PKG / "invariants.py",
        "if t < -1:",
        "if t < -2:",
        ["tests/test_invariants.py::TestPicardNumber::test_vanishing_boundary"],
    ),
    Mutation(
        "rho's least degree read from the top of the power",
        PKG / "invariants.py",
        "h1 += cohomology(s, 1, t)",
        "h1 += cohomology(s, 1, t) if s.degrees[-1] + t < -1 else 0",
        ["tests/test_invariants.py::TestPicardNumber::test_vanishing_boundary"],
    ),
    # (0, 4, 4, 4) is the boundary case whose Sym^2 F adds 1
    Mutation(
        "Sym^2 F dropped from rho's powers",
        PKG / "invariants.py",
        "powers = memo[prefix] = [None] * 3",
        "powers = memo[prefix] = [None] * 2",
        ["tests/test_invariants.py::TestPicardNumber::test_vanishing_boundary"],
    ),
    # all three powers of each prefix built whether or not a twist reads them
    Mutation(
        "rho's powers built eagerly",
        PKG / "invariants.py",
        "powers = memo[prefix] = [None] * 3",
        "powers = memo[prefix] = [sym_power(SplitBundle._trusted(1, prefix), 4 - j)"
        " for j in range(3)]",
        ["tests/test_invariants.py::TestPicardNumber::test_powers_built_only_where_read"],
    ),
    # the sum merges prefixes such as (0, 0, 2) and (0, 1, 1); a spec alone
    # never meets a second prefix, so only a shared memo shows it
    Mutation(
        "memo key that merges two prefixes",
        PKG / "invariants.py",
        "powers = memo.get(prefix)\n    if powers is None:\n        powers = memo[prefix] =",
        "powers = memo.get(sum(prefix))\n    if powers is None:\n        powers = memo[sum(prefix)] =",
        ["tests/test_invariants.py::TestPicardNumber::test_shared_memo_equals_no_memo"],
    ),
    Mutation(
        "fiber_count's gamma > 16 guard dropped",
        PKG / "invariants.py",
        "if g > 16:",
        "if False:",
        ["tests/test_invariants.py::TestFiberCount::"
         "test_gamma_over_16_refused_from_chern_data"],
    ),
    Mutation(
        "invariants_p1's shape guard dropped",
        PKG / "invariants.py",
        "if (spec.base_dim, spec.rank) != (1, 4):",
        "if False:",
        ["tests/test_invariants.py::TestInvariantsP1::test_p3_spec_refused"],
    ),
    # a spec from Chern data alone then fails to unpack its degrees: TypeError
    Mutation(
        "admissibility_p3's shape guard dropped",
        PKG / "invariants.py",
        "if (spec.base_dim, spec.rank) != (3, 2) or not spec.is_split:",
        "if False:",
        ["tests/test_invariants.py::TestAdmissibility::test_non_split_spec_refused"],
    ),
    # (0, 5) then has a smooth X: invariants prints a row where it exits 4,
    # and the rho = 2 gate passes it
    Mutation(
        "admissible at gap 5",
        PKG / "invariants.py",
        "return b - a <= 4",
        "return b - a <= 5",
        ["tests/test_golden.py::test_golden_output[refuse-gap-exit4]",
         "tests/test_kahler.py::TestRhoTwoGate"],
    ),
    # without each of the next four guards a P^1 spec reaches gamma() or
    # admissibility_p3, which refuse it with their own messages
    Mutation(
        "invariants_p3's shape guard dropped",
        PKG / "invariants.py",
        'if (spec.base_dim, spec.rank) != (3, 2):\n        raise ValueError("invariants_p3',
        'if False:\n        raise ValueError("invariants_p3',
        ["tests/test_invariants.py::TestInvariantsP3::test_p1_spec_refused"],
    ),
    Mutation(
        "fiber_count's shape guard dropped",
        PKG / "invariants.py",
        'if (spec.base_dim, spec.rank) != (3, 2):\n        raise ValueError("fiber counting',
        'if False:\n        raise ValueError("fiber counting',
        ["tests/test_invariants.py::TestFiberCount::test_p1_spec_refused"],
    ),
    Mutation(
        "euler_characteristic_rank2_p3's shape guard dropped",
        PKG / "invariants.py",
        'if (spec.base_dim, spec.rank) != (3, 2):\n        raise ValueError("this Riemann-Roch',
        'if False:\n        raise ValueError("this Riemann-Roch',
        ["tests/test_invariants.py::TestEulerCharacteristic::test_p1_spec_refused"],
    ),
    Mutation(
        "QuadraticSection's split-P^3 guard dropped",
        PKG / "discriminant.py",
        "if (self.spec.base_dim, self.spec.rank) != (3, 2) or not self.spec.is_split:",
        "if False:",
        ["tests/test_discriminant.py::TestBuildDiscriminant::"
         "test_spec_other_than_split_p3_refused"],
    ),
    Mutation(
        "gamma's shape guard dropped",
        PKG / "chow.py",
        "if (self.base_dim, self.rank) != (3, 2):",
        "if False:",
        ["tests/test_invariants.py::TestGamma::test_p1_spec_refused"],
    ),
    Mutation(
        "h0_split's negative-degree guard dropped",
        PKG / "invariants.py",
        "if a < 0 or b < 0:",
        "if False:",
        ["tests/test_invariants.py::TestEulerCharacteristic::"
         "test_h0_split_refuses_negative_degrees"],
    ),
    Mutation(
        "xi_h2 and xi2_h swapped in the positional record",
        PKG / "invariants.py",
        '"h3", "xi_h2", "xi2_h",',
        '"h3", "xi2_h", "xi_h2",',
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
        "BundleSpec's split degree count guard dropped",
        PKG / "chow.py",
        "if len(degs) != self.rank:",
        "if False:",
        ["tests/test_chow.py::TestBundleSpec::test_split_degree_count_must_equal_rank"],
    ),
    Mutation(
        "BundleSpec's sorted-degrees guard dropped",
        PKG / "chow.py",
        "if list(degs) != sorted(degs):",
        "if False:",
        ["tests/test_chow.py::TestBundleSpec::test_unsorted_split_degrees_refused"],
    ),
    Mutation(
        "BundleSpec's c2 = a*b guard dropped",
        PKG / "chow.py",
        "if self.c2 != a * b:",
        "if False:",
        ["tests/test_chow.py::TestBundleSpec::"
         "test_c2_must_equal_the_product_of_split_degrees"],
    ),
    # a spec from Chern data alone then fails to index its degrees: TypeError
    Mutation(
        "normalized's split guard dropped",
        PKG / "chow.py",
        "if not self.is_split:",
        "if False:",
        ["tests/test_chow.py::TestBundleSpec::test_normalization_needs_split_degrees"],
    ),
    Mutation(
        "ChowClass's same-bundle guard dropped",
        PKG / "chow.py",
        "if self.spec != other.spec:",
        "if False:",
        ["tests/test_chow.py::TestChowClass::test_classes_on_different_bundles_refused"],
    ),
    Mutation(
        "from_split truncating degrees with int",
        PKG / "chow.py",
        "tuple(sorted(map(index, degrees)))",
        "tuple(sorted(map(int, degrees)))",
        ["tests/test_chow.py::TestBundleSpec::test_from_split_refuses_non_integral_degrees"],
    ),
    # one mutation per int that a constructor reads with operator.index
    Mutation(
        "BundleSpec keeping a float base_dim",
        PKG / "chow.py",
        "index(base_dim)",
        "base_dim",
        ["tests/test_chow.py::TestBundleSpec::test_init_refuses_non_integral_fields"],
    ),
    Mutation(
        "BundleSpec keeping a float rank",
        PKG / "chow.py",
        "index(rank)",
        "rank",
        ["tests/test_chow.py::TestBundleSpec::test_init_refuses_non_integral_fields"],
    ),
    Mutation(
        "BundleSpec keeping a float c1",
        PKG / "chow.py",
        "index(c1)",
        "c1",
        ["tests/test_chow.py::TestBundleSpec::test_init_refuses_non_integral_fields"],
    ),
    Mutation(
        "BundleSpec keeping a float c2",
        PKG / "chow.py",
        "index(c2)",
        "c2",
        ["tests/test_chow.py::TestBundleSpec::test_init_refuses_non_integral_fields"],
    ),
    Mutation(
        "BundleSpec keeping float split degrees",
        PKG / "chow.py",
        "tuple(map(index, split_degrees))",
        "tuple(split_degrees)",
        ["tests/test_chow.py::TestBundleSpec::test_init_refuses_non_integral_fields"],
    ),
    Mutation(
        "SplitBundle keeping float degrees",
        PKG / "cohomology.py",
        "tuple(sorted(map(index, self.degrees)))",
        "tuple(sorted(self.degrees))",
        ["tests/test_cohomology.py::TestConstructions::test_non_integral_degree_refused"],
    ),
    Mutation(
        "MultiPoly keeping float exponents",
        PKG / "ratpoly.py",
        "any(index(x) < 0 for x in e)",
        "any(x < 0 for x in e)",
        ["tests/test_ratpoly.py::TestMultiPoly::test_non_integral_exponent_refused"],
    ),
    Mutation(
        "ChowClass's normal-form guard dropped",
        PKG / "chow.py",
        "if not (0 <= i < spec.rank and 0 <= j <= spec.base_dim):",
        "if False:",
        ["tests/test_chow.py::TestReduce::test_index_outside_normal_form_refused"],
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
        "6 * c1 + 44,  # xi_dot_c2",
        "6 * c1 + 45,  # xi_dot_c2",
        ["tests/test_invariants.py::TestInvariantsP1"],
    ),
    Mutation(
        "p3 closed form xi^3 with the sign of 3*c1*c2 flipped",
        PKG / "invariants.py",
        "c1 ** 3 + 4 * c1 ** 2 - 3 * c1 * c2 - 4 * c2,  # xi3",
        "c1 ** 3 + 4 * c1 ** 2 + 3 * c1 * c2 - 4 * c2,  # xi3",
        ["tests/test_invariants.py::TestClosedFormCertificate::test_p3_grid"],
    ),
    Mutation(
        "p3 closed form c3(X) flipped",
        PKG / "invariants.py",
        "-8 * g - 168,",
        "-8 * g - 166,",
        ["tests/test_invariants.py::TestInvariantsP3"],
    ),
    # the last closed form of each geometry (p1 mk_sq_h, p3 xi3) goes unchecked
    Mutation(
        "one closed form dropped from the tuple comparison",
        PKG / "invariants.py",
        "if closed != oracle[:len(closed)]:",
        "if closed[:-1] != oracle[:len(closed) - 1]:",
        ["tests/test_invariants.py::TestComparedIntegrals"],
    ),
    Mutation(
        "enumerator's c1 without a1",
        PKG / "cli.py",
        "BundleSpec._trusted(1, 4, a1 + a2 + a3, 0, (0, a1, a2, a3))",
        "BundleSpec._trusted(1, 4, a2 + a3, 0, (0, a1, a2, a3))",
        ["tests/test_cli.py::TestEnumerateCommand::test_p1_specs_equal_from_split"],
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
