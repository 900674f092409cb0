import argparse
import contextlib
import enum
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cybundle.cli
import json_writer_check
import cybundle.discriminant
import cybundle.invariants
import cybundle.kahler
from cybundle.chow import BundleSpec
from cybundle.cli import (
    CSV_COLUMNS,
    ROW_KEYS,
    _enumerate_specs,
    _json_text,
    _report_row,
    _write,
    _write_json,
    build_parser,
    main,
)
from cybundle.discriminant import (
    WITNESS_FAILED,
    Octic,
    QuadraticSection,
    sample_section,
    witness_section,
)
from cybundle.invariants import invariants_for
from cybundle.kahler import RhoNotTwoError, boundary_rays, require_rho_two
from cybundle.ratpoly import MultiPoly
from multipoly_kernel_check import ONE, as_fractions


def run_cli(args, tmp_path=None):
    result = subprocess.run(
        [sys.executable, "-m", "cybundle.cli", *args],
        capture_output=True,
        text=True,
    )
    return result


class TestInvariantsCommand:
    def test_p3_example(self, tmp_path):
        out = tmp_path / "inv.json"
        code = main(["invariants", "--base", "p3", "--degrees", "0,2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        row = payload["row"]
        assert row["gamma"] == 4
        assert row["c3_X"] == -200
        assert row["fiber_count"] == 48
        assert row["oracle_ok"] is True

    def test_invalid_degrees_exit_2(self):
        assert main(["invariants", "--base", "p3", "--degrees", "0,1,2"]) == 2
        assert main(["invariants", "--base", "p1", "--degrees", "0,x"]) == 2

    def test_inadmissible_exit_4(self):
        assert main(["invariants", "--base", "p3", "--degrees", "0,5"]) == 4

    @pytest.mark.parametrize(
        "degrees",
        # underscore, padding, explicit plus, Arabic-Indic zero, empty field,
        # trailing space, hex prefix, superscript digit
        ["0,1_000", " 0 , 2", "+0,2", "\u0660,2", "0,,2", "0,2 ", "0x0,2", "0,\u00b2"],
    )
    def test_loose_degrees_exit_2(self, capsys, degrees):
        assert main(["invariants", "--base", "p3", f"--degrees={degrees}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": f"unparsable degrees: {degrees!r}", "exit_code": 2}

    def test_negative_leading_degree_needs_equals_form(self, capsys):
        assert main(["invariants", "--base", "p1", "--degrees=-5,0,0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["row"]["degrees"] == [-5, 0, 0, 0]
        with pytest.raises(SystemExit) as exc:  # argparse: --degrees has no value
            main(["invariants", "--base", "p1", "--degrees", "-5,0,0,0"])
        assert exc.value.code == 2


def _long_degrees_argv(case, digits):
    """An argv of ``case`` whose --degrees fields have ``digits`` digits."""
    a, n = 10 ** (digits - 1), "9" * digits
    return {
        "invariants-p3": ["invariants", "--base", "p3", f"--degrees={a},{a + 4}"],
        "invariants-p1": ["invariants", "--base", "p1", f"--degrees=-{n},0,0,0"],
        "kaehler-p3": ["kaehler", "--base", "p3", f"--degrees={a},{a + 2}"],
        "kaehler-p1": ["kaehler", "--base", "p1", f"--degrees=-{n},0,0,0"],
        "classify": ["classify", f"--degrees=-{n},0,0,0"],
        "discriminant": ["discriminant", f"--degrees={a},{a + 2}"],
    }[case]


class TestDegreeDigits:
    """A --degrees field has at most MAX_DEGREE_DIGITS digits, so no derived
    int (at most cubic in c1) reaches Python's limit on str(int)."""

    CASES = ["invariants-p3", "invariants-p1", "kaehler-p3", "kaehler-p1", "classify",
             "discriminant"]

    @pytest.mark.parametrize("case", CASES)
    def test_at_the_bound_runs_or_refuses(self, capsys, case):
        code = main(_long_degrees_argv(case, cybundle.cli.MAX_DEGREE_DIGITS))
        out, err = capsys.readouterr()
        assert code in (0, 4)
        if code == 0:
            assert json.loads(out)["schema"] == 1
        else:
            assert out == "" and json.loads(err)["exit_code"] == 4

    @pytest.mark.parametrize("case", CASES)
    def test_one_digit_more_exit_2(self, capsys, case):
        argv = _long_degrees_argv(case, cybundle.cli.MAX_DEGREE_DIGITS + 1)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        degrees = argv[-1].split("=", 1)[1]
        assert json.loads(err) == {
            "error": f"unparsable degrees: {degrees!r}", "exit_code": 2}


class TestClassifyCommand:
    def test_sixteen_curves(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["classify", "--degrees", "0,0,0,1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["kind"] == "SixteenCurves_QuinticImage"
        assert payload["report"]["count"] == 16
        assert payload["report"]["k_y_squared"] == -7

    def test_rho_refusal(self):
        assert main(["classify", "--degrees", "0,2,2,2"]) == 4


GOLDEN_DIR = Path(__file__).parent / "golden"

# the keys of every enumerate row: each invariant field but base_dim, plus
# the base, the degrees, the oracle flag and the cone/contraction fields
SURVEY_ROW_KEYS = {
    "base", "degrees", "oracle_ok", "c1", "c2", "gamma", "c3_X", "h_dot_c2",
    "xi_dot_c2", "mk_dot_c2", "h3", "xi_h2", "xi2_h", "xi3", "fiber_count",
    "picard_number", "picard_hypothesis_note", "mk_cubed", "mk_sq_h",
    "rationality", "ray_c2_xi", "ray_c2_h", "contraction_kind", "contraction_count",
}


class TestEnumerateCommand:
    def test_csv_rows_and_header(self, tmp_path):
        out = tmp_path / "fam.csv"
        code = main(
            ["enumerate", "--base", "p1", "--max-degree", "3", "--format", "csv",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        # the header the golden survey locks, not one rebuilt from the code
        golden = GOLDEN_DIR / "enumerate-p1-csv.stdout"
        assert lines[0] == golden.read_text().splitlines()[0]
        # one row per tuple 0 <= a1 <= a2 <= a3 <= 3
        assert len(lines) - 1 == 20
        assert all("true" in line for line in lines[1:])

    def test_p1_picard_numbers_and_row_keys(self, capsys):
        # rho = 2 + h^1(P^1, Sym^4 E (x) O(2 - c1)): a summand of degree
        # s + 2 - c1 contributes max(0, c1 - 3 - s), s a 4-fold degree sum
        argv = ["enumerate", "--base", "p1", "--max-degree", "10", "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 286
        for row in rows:
            sums = map(sum, combinations_with_replacement(row["degrees"], 4))
            want = 2 + sum(max(0, row["c1"] - 3 - s) for s in sums)
            assert row["picard_number"] == want, row["degrees"]
            assert row.keys() == SURVEY_ROW_KEYS
        assert {row["picard_number"] for row in rows} > {2}

    @pytest.mark.parametrize("n", [0, 1, 20])
    def test_p1_specs_equal_from_split(self, n):
        # the survey builds its specs past BundleSpec.__init__'s checks: they
        # must be the validated from_split specs, field by field and in order
        specs = _enumerate_specs("p1", n)
        want = [BundleSpec.from_split(1, (0, a1, a2, a3)) for a1 in range(n + 1)
                for a2 in range(a1, n + 1) for a3 in range(a2, n + 1)]
        assert len(specs) == len(want) == comb(n + 3, 3)
        assert [s._key() for s in specs] == [s._key() for s in want]
        assert all(type(s) is BundleSpec and type(s.split_degrees) is tuple for s in specs)

    def test_p3_skips_inadmissible(self, tmp_path):
        out = tmp_path / "fam.json"
        assert main(["enumerate", "--base", "p3", "--max-degree", "8", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["degrees"] for r in rows] == [[0, b] for b in range(5)]

    @pytest.mark.parametrize(
        "base,max_degree", [("p1", n) for n in range(11)] + [("p3", n) for n in (0, 3, 8, 64)]
    )
    def test_rows_in_base_degrees_order(self, capsys, base, max_degree):
        # the rows are emitted as _enumerate_specs yields them, unsorted
        assert main(["enumerate", "--base", base, "--max-degree", str(max_degree)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        keys = [(r["base"], r["degrees"]) for r in rows]
        assert keys == sorted(keys)
        assert len({tuple(d) for _, d in keys}) == len(keys)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["enumerate", "--base", "p1", "--max-degree", "2", "--out", str(a)])
        main(["enumerate", "--base", "p1", "--max-degree", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_max_degree_exit_2(self, capsys):
        assert main(["enumerate", "--base", "p1", "--max-degree", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "--max-degree must be >= 0", "exit_code": 2}

    def test_max_degree_above_cap_exit_2(self, capsys):
        cap = cybundle.cli.MAX_ENUMERATE_DEGREE
        assert main(["enumerate", "--base", "p3", "--max-degree", str(cap)]) == 0
        capsys.readouterr()
        assert main(["enumerate", "--base", "p1", "--max-degree", "100000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": f"--max-degree must be <= {cap}", "exit_code": 2
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["kaehler", "--base", "p1", "--degrees", "0,0,1,1"],
        ["classify", "--degrees", "0,0,0,1"],
        ["discriminant", "--degrees", "0,2"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_refused_without_rows(argv, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main([*argv, "--format", "csv", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert json.loads(err)["exit_code"] == 2


class TestKaehlerCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "k.json"
        assert main(["kaehler", "--base", "p1", "--degrees", "0,0,1,1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["rationality"] == "RationalDoubleLine"
        assert payload["report"]["c2_values"] == [56, 24]
        assert payload["report"]["basis_det"] == -1

    def test_rho1_refused(self):
        assert main(["kaehler", "--base", "p3", "--degrees", "0,4"]) == 4

    # the 8 cubics a request reaches, p3 (0,0)..(0,3) and one p1 spec per
    # c1 = 0..3: each double line is printed as a point in the basis of the
    # rays, and it is one of them
    @pytest.mark.parametrize("base, degs, want", [
        ("p3", "0,0", [[1, 0]]), ("p3", "0,1", []), ("p3", "0,2", []), ("p3", "0,3", []),
        ("p1", "0,0,0,0", [[0, 1]]), ("p1", "0,0,0,1", [[0, 1]]),
        ("p1", "0,0,1,1", [[0, 1]]), ("p1", "0,0,1,2", [[0, 1]]),
    ])
    def test_double_roots_are_rays(self, base, degs, want):
        code, out, err = run_main(["kaehler", "--base", base, "--degrees", degs])
        payload = json.loads(out)
        assert (code, err, payload["double_roots"]) == (0, "", want)
        assert all(p in payload["report"]["rays"] for p in payload["double_roots"])


class TestDiscriminantCommand:
    def test_checks_and_witness(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(
            ["discriminant", "--degrees", "0,2", "--seed", "0", "--bound", "2",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert all(payload["checks"].values())
        assert payload["witness"]["singular_point_verified"] is True

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["discriminant", "--degrees", "0,1", "--seed", "3", "--out", str(a)])
        main(["discriminant", "--degrees", "0,1", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_bound_exit_2(self, capsys):
        assert main(["discriminant", "--degrees", "0,2", "--bound", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "bound must be >= 0", "exit_code": 2}

    def test_bound_above_cap_exit_2(self, capsys):
        argv = ["discriminant", "--degrees", "0,1", "--seed", "7", "--bound"]
        assert main(argv + [str(10 ** 12)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "bound must be <= 1000000", "exit_code": 2}
        assert main(argv + ["1000000"]) == 0

    @pytest.mark.parametrize("bound,witness_bound", [(0, 1), (1, 1), (3, 3)])
    def test_witness_of_the_sampled_section(
        self, monkeypatch, capsys, bound, witness_bound
    ):
        # the witness drops the pure z0 terms of the section the command
        # sampled; at bound 0 (the zero section) it samples at bound 1
        spec = BundleSpec.from_split(3, (0, 2))
        draws, seen = [], []

        def sample(*args):
            draws.append(args)
            return sample_section(*args)

        def witness(q):
            seen.append(q)
            return witness_section(q)

        monkeypatch.setattr(cybundle.cli, "sample_section", sample)
        monkeypatch.setattr(cybundle.cli, "witness_section", witness)
        argv = ["discriminant", "--degrees", "0,2", "--seed", "5", "--bound", str(bound)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["singular_point_verified"]
        assert seen == [sample_section(spec, 5, witness_bound)]
        assert len(draws) == (2 if bound == 0 else 1)

    def test_failed_self_check_exit_3(self, monkeypatch, capsys):
        # Delta(q) + z0^8 is still an octic, but neither the scaling law nor
        # the gradient identity holds for it; the payload is written first
        real = cybundle.discriminant.build_discriminant

        def perturbed(q):
            z0_8 = MultiPoly({(8, 0, 0, 0): 1})
            return Octic(MultiPoly.sum_of_products([(1, real(q).poly, ONE), (1, z0_8, ONE)]))

        monkeypatch.setattr(cybundle.cli, "build_discriminant", perturbed)
        assert main(["discriminant", "--degrees", "0,2", "--seed", "5"]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out)["checks"] == {
            "gradient_identity": False,
            "homogeneous_degree_8": True,
            "scaling_law": False,
        }
        assert err == '{"error": "a discriminant self-check failed", "exit_code": 3}\n'

    @pytest.mark.parametrize("extra", [(0, 7, 0, 0), (7, 0, 0, 0)], ids=["z1^7", "z0^7"])
    def test_defective_octic_kernel_exit_3(self, monkeypatch, capsys, extra):
        # build_discriminant skips Octic's degree pass, so a kernel whose
        # Delta mixes degrees reaches the homogeneous_degree_8 check, which
        # reads false; the payload is written, and no ValueError escapes.
        # z1^7 and its gradient vanish at the witness point (1,0,0,0), z0^7
        # does not, and the witness reports the failure instead of raising
        real = MultiPoly.sum_of_products

        def defective(cls, terms):
            return real([*terms, (1, MultiPoly({extra: 1}), ONE)])

        monkeypatch.setattr(MultiPoly, "sum_of_products", classmethod(defective))
        assert main(["discriminant", "--degrees", "0,2", "--seed", "5"]) == 3
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["checks"]["homogeneous_degree_8"] is False
        assert payload["witness"]["singular_point_verified"] is (extra == (0, 7, 0, 0))
        assert (payload["witness"]["note"] == WITNESS_FAILED) is (extra == (7, 0, 0, 0))
        assert err == '{"error": "a discriminant self-check failed", "exit_code": 3}\n'

    def test_failed_witness_alone_exit_3(self, monkeypatch, capsys):
        # every check under checks holds, and Delta reads 1 at the witness
        # point: the failed witness alone exits 3, after the payload
        real = cybundle.discriminant.value_and_gradient

        def shifted(p, point):
            value, gradient = real(p, point)
            return value + 1, gradient

        monkeypatch.setattr(cybundle.discriminant, "value_and_gradient", shifted)
        assert main(["discriminant", "--degrees", "0,2", "--seed", "5"]) == 3
        out, err = capsys.readouterr()
        assert all(json.loads(out)["checks"].values())
        assert json.loads(out)["witness"]["note"] == WITNESS_FAILED
        assert err == '{"error": "a discriminant self-check failed", "exit_code": 3}\n'

    @pytest.mark.parametrize("bound", [0, 1, 1000])
    def test_two_builds_per_command(self, monkeypatch, capsys, bound):
        # Delta(q) once for the printed octic, which both checks verify
        # against their own Delta(r0*q), and Delta of the witness section's
        # terms of order < 2 at (1, 0, 0, 0), the only ones its value and
        # gradient there read
        real = cybundle.discriminant.build_discriminant
        built = []

        def counted(q):
            built.append(q)
            return real(q)

        monkeypatch.setattr(cybundle.cli, "build_discriminant", counted)
        monkeypatch.setattr(cybundle.discriminant, "build_discriminant", counted)
        argv = ["discriminant", "--degrees", "0,2", "--seed", "5", "--bound", str(bound)]
        assert main(argv) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert sorted(checks) == ["gradient_identity", "homogeneous_degree_8", "scaling_law"]
        assert all(checks.values())
        spec = BundleSpec.from_split(3, (0, 2))
        q = sample_section(spec, 5, bound)
        wq = witness_section(q if bound else sample_section(spec, 5, 1))
        low = QuadraticSection(spec, *(
            MultiPoly({e: c for e, c in as_fractions(p).items() if sum(e[1:]) < 2})
            for p in (wq.s00, wq.s01, wq.s11)))
        assert built == [q, low]

    @pytest.mark.parametrize("bound", [0, 1, 1000])
    def test_three_products_per_command(self, monkeypatch, capsys, bound):
        # the octic, the checks' Delta(r0*q) that both checks read, and the
        # witness's Delta; the scaling law builds no r0^2 * octic
        real = MultiPoly.sum_of_products
        calls = []

        def counted(cls, terms):
            calls.append(terms)
            return real(terms)

        monkeypatch.setattr(MultiPoly, "sum_of_products", classmethod(counted))
        argv = ["discriminant", "--degrees", "0,2", "--seed", "5", "--bound", str(bound)]
        assert main(argv) == 0
        assert all(json.loads(capsys.readouterr().out)["checks"].values())
        assert len(calls) == 3

    def test_wrong_build_line_fails_the_scaling_law(self, monkeypatch, capsys):
        # the checks build their own Delta(r0*q), so a wrong line in
        # build_discriminant fails the scaling law too, not only the
        # gradient identity: a scaling law that scaled the octic's own
        # product would agree with itself
        def wrong(q):
            return Octic._trusted(MultiPoly.sum_of_products(
                ((1, q.s01, q.s01), (-3, q.s00, q.s11))))

        monkeypatch.setattr(cybundle.cli, "build_discriminant", wrong)
        monkeypatch.setattr(cybundle.discriminant, "build_discriminant", wrong)
        assert main(["discriminant", "--degrees", "0,2", "--seed", "5"]) == 3
        out, err = capsys.readouterr()
        checks = json.loads(out)["checks"]
        assert checks["scaling_law"] is False
        assert checks["gradient_identity"] is False
        assert err == '{"error": "a discriminant self-check failed", "exit_code": 3}\n'


class TestReportRowGate:
    """_report_row reads rho = 2 from the row it prints: the cone fields
    are null exactly when the row's picard_number is not 2 or, on p3, its
    fiber_count is null, which is exactly when require_rho_two refuses; on
    p1 so are the contraction fields, and p3 rows have no contraction."""

    def test_exhaustive_grid(self):
        # p1 degrees in -3..6 up to order; p3 (a, b) with a in -3..6, b - a in 0..9
        specs = [BundleSpec.from_split(1, d)
                 for d in combinations_with_replacement(range(-3, 7), 4)]
        specs += [BundleSpec.from_split(3, (a, a + gap))
                  for a in range(-3, 7) for gap in range(10)]
        memo = {}
        refused = 0
        for spec in specs:
            try:
                require_rho_two(spec)
                gate = False
            except RhoNotTwoError:
                gate = True
            refused += gate
            row = _report_row(spec, memo)
            cone = [row["rationality"], row["ray_c2_xi"], row["ray_c2_h"]]
            assert all(v is None for v in cone) == gate, spec
            assert any(v is None for v in cone) == gate, spec
            no_cone = row["picard_number"] != 2 or (
                row["base"] == "p3" and row["fiber_count"] is None)
            assert no_cone == gate, spec
            if spec.base_dim == 1:
                assert (row["contraction_kind"] is None) == gate, spec
            else:
                assert row["contraction_kind"] is row["contraction_count"] is None
        assert 0 < refused < len(specs)


# p1 specs with degrees in -3..8, and p3 specs (a, a + gap) with gap 0..9
P1_ROW_SPECS = st.lists(st.integers(-3, 8), min_size=4, max_size=4).map(
    lambda d: BundleSpec.from_split(1, d))
P3_ROW_SPECS = st.builds(lambda a, gap: BundleSpec.from_split(3, (a, a + gap)),
                         st.integers(-3, 8), st.integers(0, 9))


# every rho = 2 spec with degrees in -6..9: the p1 ones are the seven
# normalized (0, a1, a2, a3), a1 + a2 + a3 <= 3, twisted by -6..6; any p1
# degrees in -6..9 too, most of which the rho gate refuses
P1_RHO2_TWISTS = st.builds(
    lambda d, t: BundleSpec.from_split(1, [a + t for a in d]),
    st.sampled_from([d for d in combinations_with_replacement(range(4), 3) if sum(d) <= 3]
                    ).map(lambda d: (0, *d)),
    st.integers(-6, 6))
TWISTED_SPECS = (
    P1_RHO2_TWISTS
    | st.lists(st.integers(-6, 9), min_size=4, max_size=4).map(
        lambda d: BundleSpec.from_split(1, d))
    | st.builds(lambda a, gap: BundleSpec.from_split(3, (a, a + gap)),
                st.integers(-6, 6), st.integers(0, 3)))
CONE_CELLS = ("rationality", "ray_c2_xi", "ray_c2_h", "contraction_kind", "contraction_count")


class TestConeShear:
    """A twist leaves X alone: a spec's cone, read from its own record
    through the shear, is its normalization's, and a shear that disagrees
    with the normalized closed forms exits 3."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spec=TWISTED_SPECS)
    def test_cone_is_the_normalizations(self, spec):
        norm = spec.normalized()
        cells = [[_report_row(s)[k] for k in CONE_CELLS] for s in (spec, norm)]
        assert cells[0] == cells[1]
        try:
            want = boundary_rays(norm, invariants_for(norm))
        except RhoNotTwoError:
            assert cells[0] == [None] * len(CONE_CELLS)
            with pytest.raises(RhoNotTwoError):
                boundary_rays(spec, invariants_for(spec))
            return
        assert cells[0][1:3] == list(want.c2_values)
        assert boundary_rays(spec, invariants_for(spec)) == want

    @pytest.mark.parametrize("index,key", [(2, "xi_dot_c2"), (7, "xi3"), (6, "3*xi2_h"),
                                           (5, "3*xi_h2")])
    @pytest.mark.parametrize("command,base,degrees,normalized", [
        ("kaehler", "p3", "1,3", "0,2"),
        ("invariants", "p3", "-1,2", "0,3"),
        ("invariants", "p1", "1,1,2,2", "0,0,1,1"),
    ])
    def test_disagreement_exits_3(self, monkeypatch, capsys, index, key, command, base,
                                  degrees, normalized):
        real = cybundle.kahler.closed_forms

        def off_by_one(spec):
            c = list(real(spec))
            c[index] += 1
            return tuple(c)

        monkeypatch.setattr(cybundle.kahler, "closed_forms", off_by_one)
        assert main([command, "--base", base, f"--degrees={degrees}"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"].startswith(f"sheared {key}: closed form ")
        # a normalized spec has nothing to shear, so reads no closed form here
        assert main([command, "--base", base, "--degrees", normalized]) == 0


class TestDatumRows:
    """With a shared memo, every row is a copy of its Chern datum's row with
    its own degrees and Picard fields: it must equal the row the spec gets
    alone, and be a dict of its own."""

    def test_shared_memo_equals_no_memo(self):
        # the N = 20 p1 specs and their twists by -3..3, then p3 (a, a + gap)
        # gap-major, so (1, 3) comes before (0, 4): the two share c1, not c2
        specs = [BundleSpec.from_split(1, [d + t for d in spec.split_degrees])
                 for spec in _enumerate_specs("p1", 20) for t in range(-3, 4)]
        specs += [BundleSpec.from_split(3, (a, a + gap))
                  for gap in range(10) for a in range(-3, 7)]
        memo, rows = {}, []
        for spec in specs:
            row = _report_row(spec, memo)
            assert row == _report_row(spec), spec
            rows.append(row)
        # one datum row per Chern datum, and most rows copied from one
        data = {("row", s.base_dim, s.rank, s.c1, s.c2) for s in specs}
        assert {key for key in memo if key[0] == "row"} == data
        assert len(data) < len(specs) // 10
        ids = [id(row) for row in rows]
        assert len(set(ids)) == len(rows)
        datum_rows = [memo[key][0] for key in data]
        assert all(type(row) is dict for row in datum_rows)
        assert set(ids).isdisjoint(map(id, datum_rows))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(specs=st.lists(P1_ROW_SPECS | P3_ROW_SPECS, min_size=1, max_size=12))
    def test_any_order_over_one_memo(self, specs):
        # the datum's record serves every later spec of the datum, twisted
        # or not, so which spec of a datum comes first must not show in any row
        memo = {}
        for spec in specs:
            assert _report_row(spec, memo) == _report_row(spec), spec

    def test_one_record_per_datum(self, monkeypatch, capsys):
        # N = 20 p1: 1771 normalized specs, c1 = 0..60
        real, specs = cybundle.invariants._record, []

        def counted(spec, *args):
            specs.append(spec)
            return real(spec, *args)

        monkeypatch.setattr(cybundle.invariants, "_record", counted)
        assert main(["enumerate", "--base", "p1", "--max-degree", "20"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 1771
        assert len(specs) == len({s.c1 for s in specs}) == 61

    def test_one_picard_number_per_row(self, monkeypatch, capsys):
        # the first row of a datum reads rho from the datum's record, and a
        # later row computes its own
        real, specs = cybundle.invariants.picard_number, []

        def counted(spec, memo=None):
            specs.append(spec)
            return real(spec, memo)

        monkeypatch.setattr(cybundle.cli, "picard_number", counted)
        monkeypatch.setattr(cybundle.invariants, "picard_number", counted)
        assert main(["enumerate", "--base", "p1", "--max-degree", "20"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert specs == _enumerate_specs("p1", 20)
        assert len(rows) == len(specs) == 1771
        # rho = 2 rows whose Chern datum an earlier row had, whose cones read
        # that datum's record
        first = {}
        for spec in specs:
            first.setdefault((spec.c1, spec.c2), spec)
        assert sum(row["picard_number"] == 2 and first[(s.c1, s.c2)] is not s
                   for row, s in zip(rows, specs)) == 3


class TestReportRowSchema:
    """A report row holds the keys of ROW_KEYS in that order, and its record
    keys hold the record's values; the csv columns are those keys without
    the free-text picard_hypothesis_note."""

    # p1 and p3 rows, rho = 2 and rho > 2, with every optional record field
    # None somewhere among them
    SPECS = [
        BundleSpec.from_split(1, (0, 0, 0, 0)),
        BundleSpec.from_split(1, (0, 0, 1, 1)),
        BundleSpec.from_split(1, (0, 2, 5, 9)),  # rho > 2
        BundleSpec.from_split(1, (-3, 1, 1, 4)),
        BundleSpec.from_split(3, (0, 0)),
        BundleSpec.from_split(3, (0, 2)),
        BundleSpec.from_split(3, (-1, 5)),  # gamma > 16: no fiber count
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_row_carries_the_record(self, spec):
        inv = invariants_for(spec)
        record = {name: getattr(inv, name) for name in inv._fields}
        del record["base_dim"]
        row = _report_row(spec)
        assert tuple(row) == ROW_KEYS
        assert row["base"] == ("p3" if spec.base_dim == 3 else "p1")
        assert row["degrees"] == list(spec.split_degrees)
        assert row["oracle_ok"] is True
        assert {key: row[key] for key in record} == record

    def test_csv_columns(self):
        assert len(set(ROW_KEYS)) == len(ROW_KEYS) == 24
        assert set(ROW_KEYS) == SURVEY_ROW_KEYS
        golden = GOLDEN_DIR / "enumerate-p1-csv.stdout"
        assert ",".join(CSV_COLUMNS) == golden.read_text().splitlines()[0]
        assert [k for k in ROW_KEYS if k != "picard_hypothesis_note"] == list(CSV_COLUMNS)


class TestOutPath:
    ARGV = ["invariants", "--base", "p3", "--degrees", "0,2", "--out"]

    def test_missing_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(self.ARGV + [str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert str(out) in payload["error"]
        assert not out.parent.exists()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.json"

        def write(fh, payload, fmt):
            fh.write("{\n  partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cybundle.cli, "_write", write)
        assert main(self.ARGV + [str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"cannot write {out}: No space left on device", "exit_code": 2}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir])
    @pytest.mark.parametrize("linked", [False, True])
    def test_non_regular_target_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       make, linked):
        # a FIFO or a directory, named directly or through a symlink
        node = tmp_path / "node"
        make(node)
        out = node
        if linked:
            out = tmp_path / "link"
            os.symlink(node, out)
        monkeypatch.setattr(cybundle.cli, "invariants_for", self.refuse)
        assert main(self.ARGV + [str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert json.loads(err) == {
            "error": f"cannot write {out}: not a regular file", "exit_code": 2}
        assert sorted(tmp_path.iterdir()) == sorted({node, out})
        mode = os.lstat(node).st_mode
        assert stat.S_ISFIFO(mode) if make is os.mkfifo else stat.S_ISDIR(mode)
        assert not stat.S_ISDIR(mode) or list(node.iterdir()) == []
        assert not linked or os.readlink(out) == str(node)

    def test_nul_byte_exit_2(self, tmp_path, capsys, monkeypatch):
        # os.stat raises ValueError, not OSError, on a path with a NUL byte
        monkeypatch.chdir(tmp_path)
        assert main(self.ARGV + ["a\x00b"]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert json.loads(err) == {
            "error": "cannot write a\x00b: embedded null byte", "exit_code": 2}
        assert list(tmp_path.iterdir()) == []

    def test_symlink_loop_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "loop"
        os.symlink(out, out)
        monkeypatch.setattr(cybundle.cli, "invariants_for", self.refuse)
        assert main(self.ARGV + [str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2
        assert list(tmp_path.iterdir()) == [out] and os.readlink(out) == str(out)

    @pytest.mark.parametrize("dangling", [False, True])
    def test_symlink_keeps_pointing_at_the_payload(self, tmp_path, dangling):
        target = tmp_path / "data" / "x.json"
        target.parent.mkdir()
        if not dangling:
            target.write_text("old")
        out = tmp_path / "link.json"
        os.symlink(target, out)
        assert main(self.ARGV + [str(out)]) == 0
        assert os.readlink(out) == str(target)
        assert json.loads(target.read_text())["row"]["c3_X"] == -200
        assert sorted(tmp_path.rglob("*")) == [target.parent, target, out]

    @staticmethod
    def refuse(*args):
        raise AssertionError("a command ran despite a refused --out")

    def test_failed_replace_keeps_old_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.json"
        out.write_text("old")

        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cybundle.cli.os, "replace", replace)
        assert main(self.ARGV + [str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"cannot write {out}: No space left on device", "exit_code": 2}
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "old"

    @pytest.mark.parametrize(
        "argv",
        [
            ARGV,
            ["enumerate", "--base", "p1", "--max-degree", "2", "--out"],
            ["kaehler", "--base", "p1", "--degrees", "0,0,1,1", "--out"],
            ["classify", "--degrees", "0,0,0,1", "--out"],
            ["discriminant", "--degrees", "0,1", "--out"],
        ],
    )
    def test_empty_path_exit_2_before_any_work(self, capsys, monkeypatch, argv):
        for name in ("invariants_for", "classify_contraction_p1", "sample_section"):
            monkeypatch.setattr(cybundle.cli, name, self.refuse)
        assert main(argv + [""]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert json.loads(err) == {"error": "--out needs a file path", "exit_code": 2}

    def test_replaces_existing_file(self, tmp_path):
        out = tmp_path / "x.json"
        out.write_text("old")
        assert main(self.ARGV + [str(out)]) == 0
        assert json.loads(out.read_text())["row"]["c3_X"] == -200
        assert list(tmp_path.iterdir()) == [out]

    def test_planted_temporary_name_is_not_written_through(self, tmp_path, capsys, monkeypatch):
        # a symlink already at the temporary file's name, aimed at another file
        monkeypatch.setattr(cybundle.cli.os, "getpid", lambda: 4242)
        out, victim = tmp_path / "out.json", tmp_path / "victim.txt"
        planted = tmp_path / "out.json.4242.tmp"
        victim.write_text("victim")
        os.symlink(victim, planted)
        code = main(self.ARGV + [str(out)])
        assert victim.read_text() == "victim"
        assert os.readlink(planted) == str(victim)
        if code == 0:
            assert stat.S_ISREG(os.lstat(out).st_mode)
            assert json.loads(out.read_text())["row"]["c3_X"] == -200
        else:
            assert code == 2
            assert json.loads(capsys.readouterr().err)["exit_code"] == 2
            assert sorted(tmp_path.iterdir()) == [planted, victim]

    def test_stale_temporary_file_is_left_and_passed_by(self, tmp_path, capsys, monkeypatch):
        # a regular file at the temporary file's name, such as one left by a
        # killed process whose pid this one reuses
        monkeypatch.setattr(cybundle.cli.os, "getpid", lambda: 4242)
        out, stale = tmp_path / "out.json", tmp_path / "out.json.4242.tmp"
        stale.write_text("stale")
        assert main(self.ARGV + [str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["row"]["c3_X"] == -200
        assert stale.read_text() == "stale"
        assert sorted(tmp_path.iterdir()) == [out, stale]

    def test_written_file_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "x.json"
        umask = os.umask(0o027)
        try:
            assert main(self.ARGV + [str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640


class TestOracleRuns:
    """The oracle runs once per Chern datum a command reports on: the
    spec's own, also when its degrees are not normalized, as its cone is
    its own record sheared; a survey shares one run among the rows of equal
    Chern data."""

    @pytest.mark.parametrize(
        "argv,runs",
        [
            (["kaehler", "--base", "p3", "--degrees", "0,2"], 1),
            (["kaehler", "--base", "p1", "--degrees", "0,0,1,1"], 1),
            (["invariants", "--base", "p1", "--degrees", "0,0,1,1"], 1),
            (["invariants", "--base", "p3", "--degrees", "1,3"], 1),
            (["invariants", "--base", "p1", "--degrees", "1,1,2,2"], 1),
            (["kaehler", "--base", "p3", "--degrees", "1,3"], 1),
            # 20 rows, c1 = 0..9
            (["enumerate", "--base", "p1", "--max-degree", "3"], 10),
        ],
    )
    def test_runs(self, monkeypatch, capsys, argv, runs):
        real = cybundle.invariants.tangent_total_chern
        specs = []

        def counted(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(cybundle.invariants, "tangent_total_chern", counted)
        assert main(argv) == 0
        assert len(specs) == runs
        assert len(set(specs)) == runs

    def test_compare_once_per_row(self, monkeypatch, capsys):
        counts = {"oracle": 0, "compare": 0}

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for name, attr in (("oracle", "_oracle_numbers"), ("compare", "_compare")):
            real = getattr(cybundle.invariants, attr)
            monkeypatch.setattr(cybundle.invariants, attr, counting(name, real))
        assert main(["enumerate", "--base", "p1", "--max-degree", "3"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 20
        # every row is compared; the oracle runs once per c1 = 0..9
        assert counts == {"oracle": 10, "compare": 20}


class TestSubprocessEntry:
    def test_module_invocation(self):
        result = run_cli(["invariants", "--base", "p3", "--degrees", "0,0"])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["row"]["c3_X"] == -168

    def test_error_reason_on_stderr(self):
        result = run_cli(["invariants", "--base", "p3", "--degrees", "0,9"])
        assert result.returncode == 4
        err = json.loads(result.stderr)
        assert "reason" not in err or err["reason"]
        assert err["exit_code"] == 4


class _FailingStdout(io.StringIO):
    """A stdout whose every write raises ``exc``."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


class TestStdoutFailure:
    """A failed write to stdout exits 2 with one JSON error on stderr, as a
    failed --out write does: no traceback, and nothing more at exit."""

    ARGV = ["enumerate", "--base", "p1", "--max-degree", "20", "--format", "text"]

    @pytest.mark.parametrize("exc", [
        OSError(28, "No space left on device"),
        BrokenPipeError(32, "Broken pipe"),
    ], ids=["full-device", "broken-pipe"])
    def test_in_process(self, monkeypatch, capsys, exc):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc))
        assert main(["enumerate", "--base", "p1", "--max-degree", "2", "--format", "text"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"cannot write stdout: {exc.strerror}", "exit_code": 2}

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "cybundle.cli", *self.ARGV],
                                    stdout=full, stderr=subprocess.PIPE, text=True)
        assert result.returncode == 2
        # the whole of stderr is the one JSON object
        assert json.loads(result.stderr) == {
            "error": "cannot write stdout: No space left on device", "exit_code": 2}

    def test_closed_pipe(self):
        # the survey's text is far larger than a pipe buffer, so the writer
        # meets the closed read end
        proc = subprocess.Popen([sys.executable, "-m", "cybundle.cli", *self.ARGV],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.read(20).startswith('base: "p1"\n')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert json.loads(err) == {"error": "cannot write stdout: Broken pipe", "exit_code": 2}


class TestStartup:
    # modules that only some requests need: typing none of them, fractions
    # (which loads decimal and numbers) only discriminant, csv only --format csv
    LAZY = ("typing", "fractions", "decimal", "numbers", "csv")

    def test_cli_import_loads_only_what_every_command_uses(self):
        # -S as well as -I: a .pth file of site-packages may import anything,
        # and what it imports belongs to the environment, not to cybundle
        src = Path(cybundle.cli.__file__).resolve().parents[1]
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import cybundle.cli; "
                 "cybundle.cli.build_parser(); "
                 "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
        heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", *self.LAZY]
        result = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(src), *heavy],
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == []

    # each request with the LAZY modules first loaded by it, or for the first
    # request by it or the import of cli
    REQUESTS = ((["kaehler", "--base", "p1", "--degrees", "0,0,0,1"], ""),
                (["invariants", "--base", "p1", "--degrees", "0,0,1,1"], ""),
                (["classify", "--degrees", "0,0,1,1"], ""),
                (["enumerate", "--base", "p3", "--max-degree", "6"], ""),
                (["invariants", "--base", "p1", "--degrees", "0,0,1,1", "--format", "csv"],
                 "csv"),
                (["discriminant", "--degrees", "0,2", "--seed", "0"],
                 "decimal fractions numbers"))

    def test_requests_load_only_what_they_use(self):
        # this process has typing and fractions loaded already, so one fresh
        # child serves every command; -S keeps a .pth file of site-packages
        # from importing them
        src = Path(cybundle.cli.__file__).resolve().parents[1]
        probe = ("import io, sys\nfrom cybundle.cli import main\n"
                 f"lazy, seen = set({self.LAZY!r}), set()\n"
                 f"for argv, _ in {self.REQUESTS!r}:\n"
                 "    sys.stdout = io.StringIO()\n"
                 "    code = main(argv)\n"
                 "    sys.stdout = sys.__stdout__\n"
                 "    now = lazy & set(sys.modules)\n"
                 "    print(argv[0], code, *sorted(now - seen))\n"
                 "    seen = now\n")
        result = subprocess.run([sys.executable, "-S", "-c", probe],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines() == [f"{a[0]} 0 {loads}".rstrip()
                                              for a, loads in self.REQUESTS]


JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10 ** 60), 10 ** 60),
    st.text(max_size=6),
    st.sampled_from(json_writer_check.AWKWARD),
)
JSON_KEYS = st.text(max_size=4) | st.sampled_from(json_writer_check.AWKWARD)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)
JSON_ROWS = st.lists(JSON_VALUES, max_size=3)


class TestJsonWriter:
    """The json writer gives the bytes of json.dumps(payload, indent=2,
    sort_keys=True) plus a newline, and refuses what it cannot render."""

    def test_golden_and_seeded_payloads(self):
        # the stdlib-only check, which also runs as a script under other Pythons
        assert json_writer_check.check(seed=1, count=300) > 300

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        value=JSON_VALUES,
        rows=JSON_ROWS | JSON_ROWS.map(tuple),
    )
    def test_matches_json_dumps(self, value, rows):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
        payload = {"rows": rows, "value": value}
        want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert json_writer_check.written(payload) == want

    def test_subclasses_render_as_their_base(self):
        class Kind(enum.IntEnum):
            ONE = 1

        class Name(str):
            pass

        value = {Name("k"): [Kind.ONE, Name("v\n")], "e": {}, "l": []}
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
        assert json_writer_check.written({}) == "{}\n"

    @pytest.mark.parametrize(
        "bad",
        [1.5, Fraction(1, 2), b"x", {1, 2}, object(), {1: "a"}, {None: 0},
         [0, [1.0]], {"a": {"b": 2.5}}, (None, {"c": Fraction(3)})],
        ids=repr,
    )
    def test_unsupported_types_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            _json_text(bad)
        # the last payload's row goes through the report row template
        row = {**dict.fromkeys(ROW_KEYS), "xi3": bad}
        for payload in ({"rows": [0, bad]}, {"k": bad}, {"rows": [row]}):
            with pytest.raises(TypeError):
                _write_json(io.StringIO(), payload)
        with pytest.raises(TypeError):
            _write_json(io.StringIO(), {1: 2})


# the text writer's reference, kept with the json and csv ones
text_reference = json_writer_check.text_reference


class TestTextWriter:
    def test_enumerate_payloads_match_the_reference(self):
        # p1 at --max-degree 0..4 and p3 at 0..6, rho = 2 rows among them
        for name, payload in json_writer_check.enumerate_payloads():
            fh = io.StringIO()
            _write(fh, payload, "text")
            assert fh.getvalue() == text_reference(payload), name


# (option strings, dest, type, default, required, choices) of each action
HELP_ACTION = (("-h", "--help"), "help", None, argparse.SUPPRESS, False, None)
FORMAT_ACTION = (("--format",), "format", None, "json", False, ("json", "csv", "text"))
OUT_ACTION = (("--out",), "out", None, None, False, None)


class TestParser:
    """The argparse actions of the parser and of every subcommand, pinned as
    a literal.  No golden file covers argparse, and its --help text differs
    between Python versions; these fields do not."""

    SUBCOMMANDS = {
        "invariants": ("invariant report for one spec", "_cmd_invariants", (
            HELP_ACTION,
            (("--degrees",), "degrees", None, None, True, None),
            (("--base",), "base", None, "p3", False, ("p3", "p1")),
            FORMAT_ACTION,
            OUT_ACTION,
        )),
        "enumerate": ("survey all normalized split specs", "_cmd_enumerate", (
            HELP_ACTION,
            (("--max-degree",), "max_degree", int, None, True, None),
            (("--base",), "base", None, "p3", False, ("p3", "p1")),
            FORMAT_ACTION,
            OUT_ACTION,
        )),
        "kaehler": ("cubic form, rationality, boundary rays", "_cmd_kaehler", (
            HELP_ACTION,
            (("--degrees",), "degrees", None, None, True, None),
            (("--base",), "base", None, "p3", False, ("p3", "p1")),
            FORMAT_ACTION,
            OUT_ACTION,
        )),
        "classify": ("second-contraction classification (p1)", "_cmd_classify", (
            HELP_ACTION,
            (("--degrees",), "degrees", None, None, True, None),
            FORMAT_ACTION,
            OUT_ACTION,
        )),
        "discriminant": ("discriminant octic for a seeded section", "_cmd_discriminant", (
            HELP_ACTION,
            (("--degrees",), "degrees", None, None, True, None),
            (("--seed",), "seed", int, 0, False, None),
            (("--bound",), "bound", int, 3, False, None),
            FORMAT_ACTION,
            OUT_ACTION,
        )),
    }

    @staticmethod
    def actions(parser):
        return tuple((tuple(a.option_strings), a.dest, a.type, a.default, a.required,
                      a.choices) for a in parser._actions)

    def test_top_level(self):
        parser = build_parser()
        assert (parser.prog, parser.description) == (
            "cybundle", "Exact invariants of Calabi-Yau threefolds in projective bundles")
        help_action, sub = parser._actions
        assert (tuple(help_action.option_strings), help_action.dest) == HELP_ACTION[:2]
        assert (sub.dest, sub.required, sub.metavar, list(sub.choices)) == (
            "command", True, None, list(self.SUBCOMMANDS))

    @pytest.mark.parametrize("argv,message", [
        ([], "required: command"),
        (["bogus"], "argument command: invalid choice"),
        (["-x"], "required: command"),
    ])
    def test_full_parser_errors_name_the_command(self, argv, message):
        # substrings only: argparse's quoting differs across patch releases
        code, out, err = run_main(argv)
        assert (code, out) == (2, "") and message in err, err

    def test_subcommands(self):
        sub = build_parser()._actions[1]
        helps = {a.dest: a.help for a in sub._choices_actions}
        got = {
            name: (helps[name], p.get_default("func").__name__, self.actions(p))
            for name, p in sub.choices.items()
        }
        assert got == self.SUBCOMMANDS


COMMAND_FLAGS = {
    "invariants": ("--degrees", "--base", "--format", "--out"),
    "enumerate": ("--max-degree", "--base", "--format", "--out"),
    "kaehler": ("--degrees", "--base", "--format", "--out"),
    "classify": ("--degrees", "--format", "--out"),
    "discriminant": ("--degrees", "--seed", "--bound", "--format", "--out"),
}
HUGE = 10 ** 30
DEGREE_INTS = st.sampled_from(list(range(-6, 10)) + [HUGE, -HUGE])
DEGREE_TEXTS = st.integers(0, 3).flatmap(
    lambda k: st.sampled_from(
        ["1_000,2", " 0 , 2", "+0,2", "\u0660,2", "0,\u00b2", "0,,2", "", "x",
         "0," + "9" * 5000, f"{HUGE},{HUGE + 2}", "-5,0,0,0", "0,0,1_0,1"]
    )
    if k == 0
    # every arity from 0 to 5, mostly the right ones
    else st.sampled_from([0, 1, 2, 2, 2, 3, 4, 4, 4, 5])
    .flatmap(lambda n: st.lists(DEGREE_INTS, min_size=n, max_size=n))
    .map(lambda ds: ",".join(map(str, ds)))
)
# --max-degree <= 8 or past the cap, --bound <= 10 or past the cap: every
# accepted value stays cheap
FLAG_VALUES = {
    "--degrees": DEGREE_TEXTS,
    "--base": st.sampled_from(["p1", "p3", "p1", "p3", "p2", ""]),
    "--format": st.sampled_from(["json", "csv", "text", "json", "text", "xml"]),
    "--out": st.sampled_from(["{tmp}/out.json", "{tmp}/missing/out.json", ""]),
    "--max-degree": st.integers(max_value=8).map(str)
    | st.integers(min_value=65).map(str)
    | st.sampled_from(["1_000", " 3", "+3", "\u0663", "x", ""]),
    "--bound": st.integers(max_value=10).map(str)
    | st.integers(min_value=10 ** 6 + 1).map(str)
    | st.sampled_from(["1_000_000_000", "+2", "x"]),
    "--seed": st.integers().map(str) | st.sampled_from(["+1", "x", ""]),
    "--bogus": st.just("1"),
}


@st.composite
def argv_fragments(draw):
    """Mostly a command with its own flags as ``--flag value`` pairs; else
    flags of any command as pairs, ``--flag=value``, bare flags and bare
    values.  The values are well formed, loose, huge or out of range."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS) + ["", "bogus"]))
    own = COMMAND_FLAGS.get(command, ("--degrees", "--format"))
    argv = [command] if command else []
    if draw(st.integers(0, 3)):
        for flag in [own[0]] + draw(st.lists(st.sampled_from(own[1:]), max_size=3)):
            argv += [flag, draw(FLAG_VALUES[flag])]
        return argv
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=5)):
        value = draw(FLAG_VALUES[flag])
        form = draw(st.sampled_from(["pair", "equals", "flag", "value"]))
        argv += {
            "pair": [flag, value],
            "equals": [f"{flag}={value}"],
            "flag": [flag],
            "value": [value],
        }[form]
    return argv


class TestArgvFragments:
    """Whatever argv it gets, main returns 0, 2, 3 or 4 with the error
    contract on stderr, or argparse exits 2; nothing else escapes."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(argv=argv_fragments())
    def test_main_exit_codes(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code == 2, argv
                    return
        assert code in (0, 2, 3, 4), argv
        if code:
            assert json.loads(err.getvalue())["exit_code"] == code, argv
        else:
            assert err.getvalue() == "", argv


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_main_full_parser(argv):
    """run_main with the full parser whatever argv names."""
    full = cybundle.cli.build_parser
    with mock.patch.object(cybundle.cli, "build_parser", lambda command=None: full()):
        return run_main(argv)


# command names, every option string, abbreviations, a negative leading
# degree, "--", help flags, values and junk; every accepted value is cheap
ARGV_TOKENS = (
    *COMMAND_FLAGS, "kaeh", "enum", "bogus",
    *sorted({f for flags in COMMAND_FLAGS.values() for f in flags}), "-h", "--help",
    "--deg", "--he", "--max", "--fo", "--bogus", "-x",
    "-5,0,0,0", "--degrees=-5,0,0,0", "--degrees=0,1", "--", "=",
    "0,1", "0,2", "0,5", "0,0,1,2", "0,2,2,2", "p1", "p3", "json", "text", "csv",
    "0", "2", "-1", "x", "", "{tmp}/out.json",
)


@st.composite
def argv_tokens(draw):
    """Tokens of ARGV_TOKENS, half the time after a command name."""
    argv = draw(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7))
    if draw(st.booleans()):
        argv.insert(0, draw(st.sampled_from(sorted(COMMAND_FLAGS))))
    return argv


class TestNamedSubcommandParser:
    """main builds only the subparser that argv[0] names, and the full
    parser for any other argv; each argv gets the exit code, stdout and
    stderr that the full parser gives it."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=argv_tokens() | argv_fragments())
    def test_same_result_as_the_full_parser(self, argv):
        # a relative --out lands in the temporary directory
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            os.chdir(tmp)
            try:
                assert run_main(argv) == run_main_full_parser(argv), argv
            finally:
                os.chdir(cwd)

    @pytest.mark.parametrize("argv,named", [
        ([], None),
        (["-h"], None),
        (["--", "kaehler", "--degrees", "0,1"], None),
        (["kaeh", "--degrees", "0,1"], None),
        (["bogus"], None),
        (["kaehler", "--degrees", "0,1"], "kaehler"),
        (["invariants", "--base", "p3", "--degrees=0,1", "--out", "kaehler"], "invariants"),
        (["classify", "--degrees", "0,0,0,1", "--format", "discriminant"], "classify"),
    ])
    def test_argv0_names_the_subparser(self, monkeypatch, tmp_path, argv, named):
        monkeypatch.chdir(tmp_path)
        full = run_main_full_parser(argv)
        built = []
        real = cybundle.cli.build_parser

        def spy(command=None):
            built.append(command)
            return real(command)

        monkeypatch.setattr(cybundle.cli, "build_parser", spy)
        assert run_main(argv) == full
        assert built == [named]

    def test_later_token_naming_a_command(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        argv = ["invariants", "--base", "p3", "--degrees=0,1", "--out", "kaehler"]
        assert run_main(argv) == (0, "", "")
        assert json.loads((tmp_path / "kaehler").read_text())["command"] == "invariants"

    def test_only_the_named_subparser_has_options(self):
        # no other subparser is built: the other names are only in the metavar
        sub = build_parser("kaehler")._actions[1]
        got = {name: TestParser.actions(p) for name, p in sub.choices.items()}
        assert got == {"kaehler": TestParser.SUBCOMMANDS["kaehler"][2]}
        assert sub.choices["kaehler"].get_default("func").__name__ == "_cmd_kaehler"
        assert {a.dest: a.help for a in sub._choices_actions} == {
            "kaehler": TestParser.SUBCOMMANDS["kaehler"][0]}
        assert sub.metavar == "{" + ",".join(build_parser()._actions[1].choices) + "}"

    # the required option of each subcommand, so that a later token reaches
    # the top-level parser as an unrecognized argument
    REQUIRED = {
        "invariants": ["--degrees", "0,1"],
        "enumerate": ["--max-degree", "0"],
        "kaehler": ["--degrees", "0,1"],
        "classify": ["--degrees", "0,0,0,1"],
        "discriminant": ["--degrees", "0,1"],
    }
    CHOICES = "{invariants,enumerate,kaehler,classify,discriminant}"

    @pytest.mark.parametrize("name", sorted(COMMAND_FLAGS))
    @pytest.mark.parametrize("required,last", [
        (False, "--bogus"), (False, "-h"), (False, "stray"), (True, "--bogus"), (True, "stray"),
    ])
    def test_placeholders_change_no_byte(self, monkeypatch, tmp_path, name, required, last):
        monkeypatch.chdir(tmp_path)
        argv = [name, *(self.REQUIRED[name] if required else []), last]
        full = run_main_full_parser(argv)
        assert run_main(argv) == full
        code, out, err = full
        if last == "-h":
            assert (code, err) == (0, "") and out.startswith(f"usage: cybundle {name} [-h]")
        elif required:
            # the subparser hands the token back; the top-level parser refuses it
            assert (code, out) == (2, "")
            assert err.startswith("usage: cybundle [-h] ") and self.CHOICES in err, err
            assert err.endswith(f"cybundle: error: unrecognized arguments: {last}\n"), err
        else:
            assert (code, out) == (2, "")
            assert err.startswith(f"usage: cybundle {name} [-h]"), err
