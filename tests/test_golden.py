"""Golden CLI outputs: stdout, stderr and exit code compared byte for byte.

The files under ``tests/golden/`` were written by this module's
``__main__`` block and lock the CLI's observable behaviour.  Running it

    PYTHONPATH=src python tests/test_golden.py

writes the files of new cases only.  It never overwrites an existing file:
it exits 1 naming every existing file whose fresh output differs, and every
case whose exit code is wrong.  To change a case deliberately, delete that
case's files first.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from cybundle.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

FORMATS = ("json", "csv", "text")

# (name, argv, expected exit code)
CASES = (
    [
        # csv has no columns for a kaehler report: refused with exit 2
        (f"{cmd}-{base}-{fmt}", [cmd, "--base", base, "--degrees", degs, "--format", fmt],
         2 if (cmd, fmt) == ("kaehler", "csv") else 0)
        for cmd in ("invariants", "kaehler")
        for base, degs in (("p3", "0,2"), ("p1", "0,0,1,1"))
        for fmt in FORMATS
    ]
    + [
        (f"enumerate-{base}-{fmt}",
         ["enumerate", "--base", base, "--max-degree", "6", "--format", fmt], 0)
        for base in ("p3", "p1")
        for fmt in FORMATS
    ]
    + [
        ("classify-0001", ["classify", "--degrees", "0,0,0,1"], 0),
        ("classify-0011", ["classify", "--degrees", "0,0,1,1"], 0),
        ("discriminant-02-seed0", ["discriminant", "--degrees", "0,2", "--seed", "0"], 0),
        ("discriminant-02-seed7", ["discriminant", "--degrees", "0,2", "--seed", "7"], 0),
        ("refuse-arity-exit2", ["invariants", "--base", "p3", "--degrees", "0,1,2"], 2),
        ("refuse-gap-exit4", ["invariants", "--base", "p3", "--degrees", "0,5"], 4),
        # un-normalized degrees: the row's spec and its normalization differ
        ("invariants-p3-13", ["invariants", "--base", "p3", "--degrees", "1,3"], 0),
        ("invariants-p1-1122", ["invariants", "--base", "p1", "--degrees", "1,1,2,2"], 0),
        # the cone of an un-normalized spec is its normalization's
        ("kaehler-p3-13", ["kaehler", "--base", "p3", "--degrees", "1,3"], 0),
        ("kaehler-p1-1122",
         ["kaehler", "--base", "p1", "--degrees", "1,1,2,2", "--format", "json"], 0),
        # rho = 1: the cone fields are null
        ("invariants-p3-04", ["invariants", "--base", "p3", "--degrees", "0,4"], 0),
        ("refuse-kaehler-p3-04-exit4", ["kaehler", "--base", "p3", "--degrees", "0,4"], 4),
        ("refuse-kaehler-p1-0222-exit4",
         ["kaehler", "--base", "p1", "--degrees", "0,2,2,2"], 4),
        ("refuse-classify-0222-exit4", ["classify", "--degrees", "0,2,2,2"], 4),
        ("refuse-discriminant-csv-exit2",
         ["discriminant", "--degrees", "0,1", "--format", "csv"], 2),
        # splitting gap 5 > 4: the gap refusal of the cone and of the octic
        ("refuse-kaehler-p3-05-exit4", ["kaehler", "--base", "p3", "--degrees", "0,5"], 4),
        ("refuse-discriminant-05-exit4", ["discriminant", "--degrees", "0,5"], 4),
    ]
    + [
        (f"discriminant-0{b}-seed{seed}-bound{bound}",
         ["discriminant", "--degrees", f"0,{b}", "--seed", str(seed), "--bound", str(bound)], 0)
        for b, seed in ((0, 3), (1, 11), (3, 5), (4, 9))
        for bound in (2, 1000)
    ]
    + [
        # every coefficient is 0: the zero octic, empty octic_coeffs
        ("discriminant-02-bound0",
         ["discriminant", "--degrees", "0,2", "--seed", "5", "--bound", "0"], 0),
        ("discriminant-25-seed4", ["discriminant", "--degrees", "2,5", "--seed", "4"], 0),
        ("discriminant-01-text",
         ["discriminant", "--degrees", "0,1", "--seed", "2", "--format", "text"], 0),
    ]
    + [
        # every distinct rho = 2 cubic besides the p3 0,2 and p1 0,0,1,1 cases
        # above; p3 0,0 has the double line [1, 0], and a p1 cubic depends
        # on c1 alone
        (f"kaehler-{base}-{degs.replace(',', '')}",
         ["kaehler", "--base", base, "--degrees", degs, "--format", "json"], 0)
        for base, degs in (("p3", "0,0"), ("p3", "0,1"), ("p3", "0,3"),
                           ("p1", "0,0,0,0"), ("p1", "0,0,0,1"), ("p1", "0,1,1,1"))
    ]
)


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv,exit_code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, exit_code):
    code, stdout, stderr = run_in_process(argv)
    assert code == exit_code
    assert stdout == (GOLDEN_DIR / f"{name}.stdout").read_bytes()
    assert stderr == (GOLDEN_DIR / f"{name}.stderr").read_bytes()


# Surveys too big to keep as files, locked by the sha256 and byte length of
# their output.
DIGEST_ARGV = ["enumerate", "--base", "p1", "--max-degree", "20", "--format"]
DIGESTS = {
    "json": ("64adbbe4725aebf799dd3f4a2c36ac5e3cab1fbde816c62d968882a8185c6b14", 1128014),
    "csv": ("1eb6ba93993baea441a3641f22aaccfaa7c0caf14f77869f440ba12ef02b0fe1", 116970),
    "text": ("95ca387f3e70ff5cec485af8dc396755821e31abeea5be015022d84cad5481fb", 545412),
}


def _digest(data):
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("fmt", sorted(DIGESTS))
def test_golden_digest(fmt):
    code, stdout, stderr = run_in_process(DIGEST_ARGV + [fmt])
    assert (code, stderr) == (0, b"")
    assert _digest(stdout) == DIGESTS[fmt]


def test_golden_digest_out_file(tmp_path):
    path = tmp_path / "survey.json"
    code, stdout, stderr = run_in_process(DIGEST_ARGV + ["json", "--out", str(path)])
    assert (code, stdout, stderr) == (0, b"", b"")
    assert _digest(path.read_bytes()) == DIGESTS["json"]
    assert [p.name for p in tmp_path.iterdir()] == ["survey.json"]


# discriminant requests beyond the golden files: p3 (0,0)..(0,4) at the
# sampler's edge bounds and two seeds each, the text format at negative
# seeds, un-normalized splittings and the refusals; one sha256 locks the
# exit code, stdout and stderr of all of them, in this order
DISCRIMINANT_ARGVS = (
    [["discriminant", "--degrees", f"0,{b}", "--seed", str(seed), "--bound", str(bound)]
     for b in range(5) for bound in (0, 1, 2, 1000, 10 ** 6) for seed in (1, 6)]
    + [["discriminant", "--degrees", f"0,{b}", "--seed", str(-1 - b), "--bound", "2",
        "--format", "text"] for b in range(5)]
    + [["discriminant", f"--degrees={degs}", "--seed", "12", "--bound", bound]
       for degs, bound in (("2,5", "3"), ("-1,1", "1000"), ("0,2", "-1"),
                           ("0,2", str(10 ** 6 + 1)), ("0,5", "2"))]
)
DISCRIMINANT_DIGEST = "e752893ce96405106a1bf3ca19ed92ca68852d4322747d08da1e493d03ac6291"


def test_discriminant_digest():
    h = hashlib.sha256()
    for argv in DISCRIMINANT_ARGVS:
        code, stdout, stderr = run_in_process(argv)
        h.update(b"%d %d %d\n" % (code, len(stdout), len(stderr)) + stdout + stderr)
    assert len(DISCRIMINANT_ARGVS) == 60
    assert h.hexdigest() == DISCRIMINANT_DIGEST


def write_missing(cases=CASES, golden_dir=GOLDEN_DIR):
    """Write the golden files that do not exist yet; never overwrite one.

    Returns one problem per case whose exit code is wrong and per existing
    file whose fresh output differs.
    """
    golden_dir.mkdir(exist_ok=True)
    problems = []
    for name, argv, exit_code in cases:
        code, stdout, stderr = run_in_process(argv)
        if code != exit_code:
            problems.append(f"{name} (exit code {code}, expected {exit_code})")
            continue
        for path, data in ((golden_dir / f"{name}.stdout", stdout),
                           (golden_dir / f"{name}.stderr", stderr)):
            if not path.exists():
                path.write_bytes(data)
            elif path.read_bytes() != data:
                problems.append(f"{path.name} (fresh output differs)")
    return problems


def test_generator_writes_only_missing_files(tmp_path):
    cases = [c for c in CASES if c[0] in ("classify-0001", "refuse-arity-exit2")]
    assert write_missing(cases, tmp_path) == []
    for name, _, _ in cases:
        for suffix in (".stdout", ".stderr"):
            fresh = (tmp_path / f"{name}{suffix}").read_bytes()
            assert fresh == (GOLDEN_DIR / f"{name}{suffix}").read_bytes()
    stale = tmp_path / "classify-0001.stdout"
    stale.write_bytes(b"stale\n")
    assert write_missing(cases, tmp_path) == ["classify-0001.stdout (fresh output differs)"]
    assert stale.read_bytes() == b"stale\n"


if __name__ == "__main__":
    problems = write_missing()
    if problems:
        sys.exit("golden cases not written: " + ", ".join(problems))
