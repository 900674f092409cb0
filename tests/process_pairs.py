"""Alternating A/B timing of fresh CLI processes: a parent commit against the working tree.

    python tests/process_pairs.py --parent HEAD --pairs 30 -- \\
        kaehler --base p3 --degrees 0,2

extracts ``git archive <parent>`` into a temporary directory and copies
this working tree's ``src/`` (uncommitted edits included) next to it, so
that both sides load from the same file system.  Each pair then starts one
``python -m cybundle.cli <command>`` process on each side, with
``PYTHONPATH`` set to that side's ``src/``, the order alternating from pair
to pair (parent first in even pairs), and times it from start to exit.
Before the pairs, one untimed run per side writes its bytecode, so every
timed process starts as a user's second call does.

Both sides must exit with the same code and write the same stdout; a
difference stops the script with exit 1.  It prints the parent's and the
working tree's medians and quartiles of the wall time, their ratio, and
the pairs the working tree won.  Stdlib only; ``extract`` and
``quartiles`` come from ``tests/ab_pairs.py`` next to it.  The name does
not match ``test_*.py``, so tier-1 collection skips it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_pairs import ROOT, extract, quartiles

MIN_PAIRS = 30


def run_cli(tree: Path, command) -> tuple:
    """(wall time in s, exit code, stdout bytes) of one fresh CLI process."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(tree / "src")
    argv = [sys.executable, "-m", "cybundle.cli", *command]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True)
    return time.perf_counter() - t0, done.returncode, done.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git ref of the parent tree")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("command", nargs="+", help="the cybundle command line, after --")
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")
    times = {"parent": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="process-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "tree": Path(tmp) / "tree"}
        extract(args.parent, trees["parent"])
        shutil.copytree(ROOT / "src", trees["tree"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        want = {side: run_cli(tree, args.command)[1:] for side, tree in trees.items()}
        if want["parent"] != want["tree"]:
            sys.exit(f"the sides differ: exit {want['parent'][0]} against {want['tree'][0]}, "
                     f"stdout equal: {want['parent'][1] == want['tree'][1]}")
        for i in range(args.pairs):
            for side in ("parent", "tree") if i % 2 == 0 else ("tree", "parent"):
                seconds, *got = run_cli(trees[side], args.command)
                if tuple(got) != want[side]:
                    sys.exit(f"pair {i + 1}: the {side} run's exit code or stdout changed")
                times[side].append(seconds)
    a, b = times["parent"], times["tree"]
    ma, mb = statistics.median(a), statistics.median(b)
    (qa1, qa3), (qb1, qb3) = quartiles(a), quartiles(b)
    wins = sum(y < x for x, y in zip(a, b))
    print(f"== cybundle {' '.join(args.command)}: {args.parent} (parent) against the "
          f"working tree, {args.pairs} pairs, exit {want['tree'][0]}")
    print(f"  parent median {ma * 1e3:.1f} ms, quartiles {qa1 * 1e3:.1f}-{qa3 * 1e3:.1f} ms")
    print(f"  tree   median {mb * 1e3:.1f} ms, quartiles {qb1 * 1e3:.1f}-{qb3 * 1e3:.1f} ms")
    print(f"  ratio {mb / ma:.4f}x, tree faster in {wins}/{args.pairs} pairs, "
          f"|gap| {abs(mb - ma) * 1e3:.1f} ms, parent IQR {(qa3 - qa1) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
