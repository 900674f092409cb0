"""Alternating A/B runs of the benchmark: a parent commit against the working tree.

    python tests/ab_pairs.py --parent HEAD --workload disc-sweep \\
        --pairs 10 --seeds 961,962 --seconds 10

extracts ``git archive <parent>`` into a temporary directory, copies this
working tree's ``src/`` and ``bench/`` (uncommitted edits included) next to
it, so that both sides load from the same file system, and runs
``bench/run.py`` in each, one run of each per pair, the order alternating
from pair to pair (parent first in even pairs).  Pair i uses seed
``seeds[i % len(seeds)]``.  Each run's last stdout line is the bench's
result json; a run that exits nonzero or reports ``correct`` false stops
the script with exit 1.

For every end-to-end metric of ``BENCHMARK.json`` it prints the parent and
working-tree medians, their ratio, the pairs the working tree won (by the
metric's ``better`` direction) and the parent's quartiles.  It also prints
each side's median count of completed requests, the ``requests`` field of
the run's ``.bench_out/report-*-trace0.json`` in its temporary tree: the
bench keeps a record per completed request, so ``peak_rss_mb`` is read
against that count.  Every pair
uses ``--trace 0``, the setting the end-to-end metrics are measured
under.  After the pairs, one ``--trace 1 --seconds 1 --seed 0`` run on each
side lists every count metric (``*.calls``, ``*_per_*``) whose values
differ, or prints "counts equal"; it reports, and does not change the exit
code.  It reads ``BENCHMARK.json`` and runs ``bench/run.py`` as a
program; it imports nothing from ``bench/`` and changes nothing there.
Stdlib only; the name does not match ``test_*.py``, so tier-1 collection
skips it.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    # the "data" filter (3.12+, and 3.8-3.11 security releases) refuses
    # links and paths that leave dest; 3.12 and 3.13 warn when no filter
    # is named, and 3.14 makes it the default
    data = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **data)


def copy_tree(dest: Path) -> None:
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> tuple:
    """The run's metric values and its completed request count."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{tree}: bench exited {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit(f"{tree}: seed {seed}: correct is {result['correct']!r}\n{done.stdout}")
    reports = (tree / ".bench_out").glob(f"report-*-seed{seed}-trace{trace}.json")
    requests = sum(json.loads(r.read_text())["requests"] for r in reports)
    return {k: m["value"] for k, m in result["metrics"].items()}, requests


def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git ref of the parent tree")
    ap.add_argument("--workload", default="disc-sweep")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="0", help="comma-separated bench seeds")
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = {"parent": [], "tree": []}
    requests = {"parent": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        parent, tree = Path(tmp) / "parent", Path(tmp) / "tree"
        extract(args.parent, parent)
        copy_tree(tree)
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "tree") if i % 2 == 0 else ("tree", "parent")
            for side in order:
                metrics, count = run_bench(parent if side == "parent" else tree,
                                           args.workload, seed, args.seconds)
                runs[side].append(metrics)
                requests[side].append(count)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
                f"{k} {runs['parent'][-1][k]:.4g} -> {runs['tree'][-1][k]:.4g}"
                for k in better if k in metrics)
                + f"  requests {requests['parent'][-1]} -> {requests['tree'][-1]}", flush=True)
        traced = [run_bench(side, args.workload, 0, 1.0, 1)[0] for side in (parent, tree)]
    print(f"== {args.workload}: {args.parent} (parent) against the working tree, "
          f"{args.pairs} pairs, seeds {args.seeds}, {args.seconds:g} s")
    for name, direction in better.items():
        a = [r[name] for r in runs["parent"] if r.get(name) is not None]
        b = [r[name] for r in runs["tree"] if r.get(name) is not None]
        if len(a) != args.pairs or len(b) != args.pairs:
            print(f"  {name}: missing in some runs")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        q1, q3 = quartiles(a)
        print(f"  {name:<16} median {ma:.6g} -> {mb:.6g} ({mb / ma:.4f}x), "
              f"wins {wins}/{args.pairs}, parent quartiles {q1:.6g}-{q3:.6g} "
              f"(IQR {q3 - q1:.4g}, |gap| {abs(mb - ma):.4g}), better {direction}")
    ra, rb = statistics.median(requests["parent"]), statistics.median(requests["tree"])
    print(f"  {'requests':<16} median {ra:g} -> {rb:g} completed ({rb / ra:.4f}x)")
    changed = sorted(k for k in traced[0].keys() | traced[1].keys()
                     if (k.endswith(".calls") or "_per_" in k)
                     and traced[0].get(k) != traced[1].get(k))
    print("  traced counts (--trace 1 --seconds 1 --seed 0): "
          + ("counts equal" if not changed else f"{len(changed)} differ"))
    for k in changed:
        print(f"    {k}: {traced[0].get(k)} -> {traced[1].get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
