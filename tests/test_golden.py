"""Golden CLI outputs: stdout, stderr and exit code compared byte for byte.

The files under ``tests/golden/`` were written by this module's
``__main__`` block and lock the CLI's observable behaviour.  Regenerate
them only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
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
        (f"{cmd}-{base}-{fmt}", [cmd, "--base", base, "--degrees", degs, "--format", fmt], 0)
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
        # rho = 1: the cone fields are null
        ("invariants-p3-04", ["invariants", "--base", "p3", "--degrees", "0,4"], 0),
        ("refuse-kaehler-p3-04-exit4", ["kaehler", "--base", "p3", "--degrees", "0,4"], 4),
        ("refuse-kaehler-p1-0222-exit4",
         ["kaehler", "--base", "p1", "--degrees", "0,2,2,2"], 4),
        ("refuse-classify-0222-exit4", ["classify", "--degrees", "0,2,2,2"], 4),
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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, exit_code in CASES:
        code, stdout, stderr = run_in_process(argv)
        if code != exit_code:
            sys.exit(f"{name}: exit code {code}, expected {exit_code}")
        (GOLDEN_DIR / f"{name}.stdout").write_bytes(stdout)
        (GOLDEN_DIR / f"{name}.stderr").write_bytes(stderr)
