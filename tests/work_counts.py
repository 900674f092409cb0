"""Exact work counts as a gate: the traced benchmark's call counts against
the committed ``tests/work_counts.json``.

    python tests/work_counts.py --check
    python tests/work_counts.py --write

runs ``bench/run.py --workload all --seed 0 --seconds 1 --trace 1`` as a
program and keeps every count metric of its result line: the ``*.calls``
of each traced layer function and the ratios named ``*_per_*``, per
workload.  The traced pass replays the first blocks of each workload's
seed-0 request stream, so the counts are exact and repeat from run to run;
they move only when the work a request does moves.  ``--check`` prints
each count that moved, appeared or disappeared, with its committed and its
new value, and exits 1 if there is one; ``--write`` regenerates the file
after a change that moves them on purpose.  A bench run that exits nonzero
or reports ``correct`` false exits 2.

Stdlib only, and nothing is imported from ``bench/``; the name does not
match ``test_*.py``, so tier-1 collection skips it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = Path(__file__).resolve().with_name("work_counts.json")
BENCH_ARGV = ("bench/run.py", "--workload", "all", "--seed", "0", "--seconds", "1",
              "--trace", "1")


def is_count(name: str) -> bool:
    return name.endswith(".calls") or "_per_" in name


def measure() -> dict:
    """The count metrics of one traced bench run, by name."""
    done = subprocess.run([sys.executable, *BENCH_ARGV], cwd=ROOT,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit(f"bench reports correct = {result['correct']!r}\n{done.stdout}")
    return {k: m["value"] for k, m in sorted(result["metrics"].items()) if is_count(k)}


def moved(old: dict, new: dict) -> list[str]:
    """One line per count whose value differs between ``old`` and ``new``,
    or that only one of them has."""
    return [f"{k}: {old.get(k, 'absent')} -> {new.get(k, 'absent')}"
            for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare with the committed counts; exit 1 if one moved")
    mode.add_argument("--write", action="store_true", help="regenerate the committed counts")
    args = ap.parse_args(argv)
    counts = measure()
    if args.write:
        COUNTS.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(counts)} counts to {COUNTS.name}")
        return 0
    changes = moved(json.loads(COUNTS.read_text(encoding="utf-8")), counts)
    for line in changes:
        print(line)
    print(f"{len(counts)} counts equal" if not changes else
          f"{len(changes)} counts moved; if on purpose, run: python tests/work_counts.py --write")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
