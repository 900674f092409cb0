"""cybundle benchmark: closed-loop CLI workloads, timed end to end and per layer.

One client sends requests in a closed loop: each request is an in-process
call to ``cybundle.cli.main(argv)`` with stdout and stderr captured in
memory, and the next request starts only after the previous one's output
has been checked.  Requests come from a generator seeded by ``--seed``.

    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same untraced loop, then replays its first blocks with
every layer function wrapped by ``tracer.Tracer`` and reports per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  Reports and spans are also written to
``.bench_out/`` at the repository root.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))

from calibration import REF_CHUNK_NS, Sampler  # noqa: E402
from tracer import LAYERS, SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Workload  # noqa: E402

SETUP_REPEATS = 9
# Runs in a fresh interpreter: import the CLI and build its parser, which is
# everything the program does before it can serve its first request.  The
# calibration chunks run afterwards, so they load no module ahead of the CLI.
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter_ns()\n"
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cybundle.cli\n"
    "cybundle.cli.build_parser()\n"
    "t1 = time.perf_counter_ns()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import statistics, calibration\n"
    "chunk = statistics.median(calibration.chunk_ns() for _ in range(7))\n"
    "print(t1 - t0, chunk)\n"
)


@dataclass
class Outcome:
    request: Request
    code: Optional[int]
    start: int                          # perf_counter_ns at the call
    ns: int                             # wall time of the call
    digest: str
    failure: Optional[str]


def execute(cli, req: Request) -> Outcome:
    """One request; only the call into the CLI is timed."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the run goes on; the request counts as failed
            code, failure = None, f"exception escaped cli.main: {exc!r}"
        ns = time.perf_counter_ns() - t0
    stdout = out.getvalue()
    if failure is None:
        if code != req.expect:
            failure = f"exit code {code}, expected {req.expect}"
        else:
            failure = req.check(stdout, err.getvalue())
    digest = hashlib.sha256(f"{code}\0{stdout}".encode()).hexdigest()
    return Outcome(req, code, t0, ns, digest, failure)


class Loop:
    """Closed loop over whole blocks, with the repeat bookkeeping."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.outcomes: List[Outcome] = []
        self.block_ends: List[int] = []
        self.first_digest: Dict[tuple, str] = {}
        self.repeated_requests = 0
        self.seen_specs: set = set()
        self.spec_evals = 0
        self.repeated_specs = 0

    def run(self, blocks, seconds: float, min_blocks: int, round_blocks: int) -> None:
        deadline = time.perf_counter() + seconds
        while (len(self.block_ends) < min_blocks or len(self.block_ends) % round_blocks
               or time.perf_counter() < deadline):
            for req in next(blocks):
                self.record(execute(self.cli, req))
            self.block_ends.append(len(self.outcomes))

    def record(self, o: Outcome) -> None:
        argv = o.request.argv
        if argv in self.first_digest:
            self.repeated_requests += 1
            if o.failure is None and self.first_digest[argv] != o.digest:
                o.failure = "a repeated request gave different bytes"
        else:
            self.first_digest[argv] = o.digest
        for spec in o.request.specs:
            self.spec_evals += 1
            if spec in self.seen_specs:
                self.repeated_specs += 1
            else:
                self.seen_specs.add(spec)
        self.outcomes.append(o)


def percentile_ms(ns: List[int], pct: int):
    """Nearest-rank percentile, or None unless >= 10 samples lie beyond it."""
    n = len(ns)
    rank = -(-n * pct // 100)
    if n - rank < 10:
        return None
    return sorted(ns)[rank - 1] / 1e6


def measure_setup() -> List[float]:
    """Scaled set-up times in s of fresh interpreters."""
    def probe() -> float:
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        ns, chunk = map(float, done.stdout.split())
        return ns * REF_CHUNK_NS / chunk / 1e9

    probe()  # the first start also compiles bytecode
    return [probe() for _ in range(SETUP_REPEATS)]


def per_layer(tracer: Tracer, replay: List[Outcome], untraced: List[Outcome]) -> Dict[str, tuple]:
    totals = tracer.totals()
    metrics: Dict[str, tuple] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_ms"] = (totals[name]["self_ns"] / 1e6, "ms")
    for module, funcs in LAYERS.items():
        own = sum(totals[f"{module}.{f}"]["self_ns"] for f in funcs)
        metrics[f"{module}.self_ms"] = (own / 1e6, "ms")

    # one oracle run computes tangent_total_chern exactly once
    oracle = tracer.calls_per_request("chow.tangent_total_chern")
    builds = tracer.calls_per_request("discriminant.build_discriminant")

    def ratio(counts: Dict[int, int], weights: Dict[int, int]) -> float:
        den = sum(weights.values())
        return sum(counts.get(i, 0) for i in weights) / den if den else 0.0

    reqs = [o.request for o in replay]
    metrics["invariants.oracle_runs_per_request"] = (
        ratio(oracle, {i: 1 for i, r in enumerate(reqs) if r.oracle_probe}), "count/request")
    metrics["invariants.oracle_runs_per_row"] = (
        ratio(oracle, {i: r.rows for i, r in enumerate(reqs) if r.rows}), "count/row")
    metrics["discriminant.builds_per_request"] = (
        ratio(builds, {i: 1 for i, r in enumerate(reqs) if r.sections}), "count/request")
    oracle_runs = totals["chow.tangent_total_chern"]["calls"]
    muls = totals["chow.ChowClass.__mul__"]["calls"]
    metrics["chow.mul_per_oracle"] = (muls / oracle_runs if oracle_runs else 0.0, "count/oracle")
    metrics["tracing_overhead_frac"] = (
        sum(o.ns for o in replay) / sum(o.ns for o in untraced) - 1, "frac")
    return metrics


def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cybundle").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    load_start = os.getloadavg()[0]
    setup = measure_setup() if trace == 0 else []

    sys.path.insert(0, str(SRC))
    import cybundle.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"cybundle was imported from {cli.__file__}, not {SRC}")

    for req in w.warmup:
        execute(cli, req)
    gc.collect()
    loop = Loop(cli)
    t0 = time.perf_counter()
    # the sampler only runs in the untraced run, whose times are scaled
    with Sampler() if trace == 0 else contextlib.nullcontext() as sampler:
        loop.run(w.blocks(Random(seed)), seconds, w.trace_blocks, w.round_blocks)
    wall_s = time.perf_counter() - t0
    outcomes = loop.outcomes
    failures = [f"{' '.join(o.request.argv)}: {o.failure}" for o in outcomes if o.failure]
    attempted = len(outcomes)

    report: dict = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace == 0:
        # request times without the sampler's own time, then at reference speed
        wall_ns = [o.ns - sampler.spent_ns(o.start, o.start + o.ns) for o in outcomes]
        ns = [t * sampler.scale(o.start, o.start + o.ns) for t, o in zip(wall_ns, outcomes)]
        busy_s = sum(ns) / 1e9
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "requests_per_s": (len(ns) / busy_s, "1/s"),
            "latency_ms_p50": (statistics.median(ns) / 1e6, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "latency_ms_p90": (percentile_ms(ns, 90), "ms"),
            "latency_ms_p99": (percentile_ms(ns, 99), "ms"),
            "rows_per_s": (sum(o.request.rows for o in outcomes) / busy_s, "1/s"),
            "sections_per_s": (sum(o.request.sections for o in outcomes) / busy_s, "1/s"),
            "failed_frac": (len(failures) / attempted, "frac"),
            "unscaled_requests_per_s": (len(ns) / (sum(wall_ns) / 1e9), "1/s"),
            "unscaled_latency_ms_p50": (statistics.median(wall_ns) / 1e6, "ms"),
            "calibration_chunk_ms": (statistics.median(sampler.chunks) / 1e6, "ms"),
        }
        extra = {k: v for k, v in extra.items() if v[0] != 0 or k == "failed_frac"}
        report["latency_samples"] = len(ns)
        report["setup_samples_s"] = setup
        report["calibration_samples"] = len(sampler.chunks)
    else:
        # Replay the leading blocks twice each, untraced then traced, so the
        # overhead compares neighbours in time rather than distant phases.
        replay_src = outcomes[: loop.block_ends[w.trace_blocks - 1]]
        tracer = Tracer()
        untraced, replay = [], []
        gc.collect()
        for a, b in zip([0] + loop.block_ends, loop.block_ends[: w.trace_blocks]):
            untraced += [execute(cli, o.request) for o in replay_src[a:b]]
            with tracer:
                for i in range(a, b):
                    tracer.request = i
                    replay.append(execute(cli, replay_src[i].request))
        for o, t in zip(replay_src, replay):
            if t.failure is None and (t.code, t.digest) != (o.code, o.digest):
                t.failure = "traced output differs from the untraced output"
        failures += [f"traced {' '.join(t.request.argv)}: {t.failure}" for t in replay if t.failure]
        # tracer self-check: each layer the workload is meant to exercise was seen
        totals = tracer.totals()
        failures += [f"{name} recorded no call" for name in w.required
                     if totals[name]["calls"] == 0]
        attempted += len(replay) + len(w.required)
        metrics = per_layer(tracer, replay, untraced)
        extra = {}
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{w.name}-seed{seed}.csv.gz"
        tracer.write(spans)
        report["traced_requests"] = len(replay)
        report["spans"] = len(tracer.start)
        report["spans_file"] = str(spans.relative_to(ROOT))

    report["provenance"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "request_repeat_share": loop.repeated_requests / len(outcomes),
        "spec_repeat_share": loop.repeated_specs / loop.spec_evals if loop.spec_evals else 0.0,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    report.update(
        wall_s=wall_s,
        requests=len(outcomes),
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    )
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}"
          f"  trace={report['trace']}  requests={report['requests']}  wall_s={report['wall_s']:.2f}")
    n = report.get("latency_samples")
    for key, m in list(report["metrics"].items()) + list(report["extra"].items()):
        value = "n/a (fewer than 10 samples beyond)" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  [{n} samples]" if key.startswith("latency") and m["value"] is not None else ""
        print(f"  {key:<48} {value:>14} {m['unit']}{note}")
    print(f"  attempted={report['attempted']} failed={report['failed']}")
    for f in report["failures"]:
        print(f"  FAILED {f}")
    print("  provenance " + json.dumps(report["provenance"], sort_keys=True))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_all(args) -> int:
    """Every workload in its own interpreter, so peak RSS stays per workload."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(result_line(correct, attempted, failed, merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cybundle" / "cli.py").is_file():
        print(f"error: no cybundle sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_report(report)
    print(result_line(report["failed"] == 0, report["attempted"], report["failed"],
                      report["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
