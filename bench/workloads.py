"""Request schedules for the cybundle benchmark and the checks on their output.

A workload is an endless sequence of blocks drawn from a seeded generator.
Every block has the same composition, so a run that executes whole blocks
has a fixed mix whatever its length.  Each request carries the exit code
it must end with and a check on its stdout and stderr; the expected values
come from the closed forms in this file, not from the program.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import re
from dataclasses import dataclass
from math import comb
from random import Random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

FORMATS = ("json", "csv", "text")
SURVEY_SIZES = (6, 14, 20)

# admissible specs: p3 (a, b) with b - a <= 4, p1 (0, a1, a2, a3) with a3 <= 3
P3_POOL = [(a, b) for a in range(-2, 8) for b in range(a, a + 5)]
P1_POOL = [
    (0, a1, a2, a3)
    for a1 in range(4)
    for a2 in range(a1, 4)
    for a3 in range(a2, 4)
]
P3_RHO2 = [s for s in P3_POOL if s[1] - s[0] <= 3]
P3_RHO1 = [s for s in P3_POOL if s[1] - s[0] == 4]
P1_RHO2 = [s for s in P1_POOL if sum(s) <= 3]
P1_RHO_ABOVE_2 = [s for s in P1_POOL if sum(s) > 3]

Check = Callable[[str, str], Optional[str]]


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    expect: int                         # exit code the request must end with
    check: Check                        # (stdout, stderr) -> failure reason
    specs: Tuple[tuple, ...] = ()       # normalized specs the request evaluates
    rows: int = 0                       # payload rows a correct answer holds
    sections: int = 0                   # discriminant sections it samples
    oracle_probe: bool = False          # invariants/kaehler on a rho = 2 spec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blocks: Callable[[Random], Iterator[List[Request]]]
    warmup: Tuple[Request, ...]
    trace_blocks: int                   # leading blocks replayed under the tracer
    round_blocks: int = 1               # a run executes whole rounds of blocks
    # traced functions that must record a call in the traced replay
    required: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------

_TEXT_FIELD = re.compile(r"(?:^| )([A-Za-z_][A-Za-z0-9_]*)=(.*?)(?= [A-Za-z_][A-Za-z0-9_]*=|$)")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def parse_output(out: str, fmt: str) -> Tuple[dict, List[Dict[str, str]]]:
    """(payload, rows) of a report; row values are strings as in the CSV form."""
    if fmt == "json":
        payload = json.loads(out)
        rows = [{k: _cell(v) for k, v in r.items()} for r in payload.get("rows", [])]
        return payload, rows
    if fmt == "csv":
        return {}, list(csv.DictReader(io.StringIO(out)))
    payload, rows = {}, []
    for line in out.splitlines():
        if line.startswith("base="):
            rows.append(dict(_TEXT_FIELD.findall(line)))
        else:
            key, sep, value = line.partition(": ")
            if not sep:
                raise ValueError(f"unparsable text line {line[:60]!r}")
            payload[key] = json.loads(value)
    return payload, rows


def _mismatch(row: Dict[str, str], want: Dict[str, object]) -> Optional[str]:
    for key, value in want.items():
        if row.get(key) != _cell(value):
            return f"{key}={row.get(key)!r}, expected {_cell(value)!r}"
    return None


def _guarded(fn):
    """A check that raises on malformed output reports it as a failure."""

    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return fn(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"

    return wrapper


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _p1_row(degrees) -> dict:
    return {"base": "p1", "c3_X": -168, "h_dot_c2": 24, "oracle_ok": True,
            "degrees": list(degrees)}


def _p3_row(degrees) -> dict:
    a, b = sorted(degrees)
    g = (b - a) ** 2
    return {"base": "p3", "gamma": g, "c3_X": -8 * g - 168, "h_dot_c2": 44,
            "fiber_count": 64 - 4 * g, "oracle_ok": True, "degrees": [a, b]}


@_guarded
def check_survey(n: int, fmt: str, out: str, err: str) -> Optional[str]:
    _, rows = parse_output(out, fmt)
    if len(rows) != comb(n + 3, 3):
        return f"{len(rows)} rows, expected C({n}+3,3) = {comb(n + 3, 3)}"
    if sorted(r["degrees"] for r in rows) != sorted(_cell(list(s)) for s in survey_specs(n)):
        return "the survey rows are not the normalized specs with a3 <= N"
    for row in rows:
        bad = _mismatch(row, _p1_row(map(int, row["degrees"].split())))
        if bad:
            return f"row {row['degrees']}: {bad}"
    return None


@_guarded
def check_invariants(base: str, degrees, fmt: str, out: str, err: str) -> Optional[str]:
    payload, rows = parse_output(out, fmt)
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    if fmt != "csv" and {k: _cell(v) for k, v in payload["row"].items()} != rows[0]:
        return "row and rows[0] differ"
    want = _p3_row(degrees) if base == "p3" else _p1_row(sorted(degrees))
    return _mismatch(rows[0], want)


@_guarded
def check_kaehler(base: str, degrees, fmt: str, out: str, err: str) -> Optional[str]:
    report = parse_output(out, fmt)[0]["report"]
    lo = min(degrees)
    norm = [d - lo for d in sorted(degrees)]
    c1 = sum(norm)
    if base == "p3":
        g = c1 * c1 - 4 * norm[0] * norm[1]
        want = {"c2_values": [4 * g + 22 * c1 + 24, 44], "degeneracy_det": 16 - g}
    else:
        want = {"c2_values": [6 * c1 + 44, 24], "degeneracy_det": None}
    want.update(rays=[[1, 0], [0, 1]], basis_det=-1)
    for key, value in want.items():
        if report.get(key) != value:
            return f"{key}={report.get(key)!r}, expected {value!r}"
    return None


@_guarded
def check_classify(degrees, fmt: str, out: str, err: str) -> Optional[str]:
    report = parse_output(out, fmt)[0]["report"]
    norm = tuple(d - min(degrees) for d in sorted(degrees))
    if report["c1"] != sum(norm):
        return f"c1={report['c1']}, expected {sum(norm)}"
    if norm == (0, 0, 0, 1) and report["k_y_squared"] != -7:
        return f"k_y_squared={report['k_y_squared']}, expected -7"
    return None


@_guarded
def check_discriminant(degrees, seed: int, bound: int, out: str, err: str) -> Optional[str]:
    payload = json.loads(out)
    if payload["degrees"] != list(degrees) or (payload["seed"], payload["bound"]) != (seed, bound):
        return "request parameters not echoed"
    failed = [k for k, v in payload["checks"].items() if v is not True]
    if failed or not payload["checks"]:
        return f"self-checks failed: {failed}"
    witness = payload["witness"]
    if witness["singular_point_verified"] is not True or witness["on_base_locus"] is not True:
        return "singular point not verified"
    coeffs = payload["octic_coeffs"]
    if not coeffs or any(sum(map(int, e.split(","))) != 8 for e in coeffs):
        return "octic is empty or not of degree 8"
    return None


@_guarded
def check_refusal(code: int, out: str, err: str) -> Optional[str]:
    if out:
        return "a refused request wrote to stdout"
    if json.loads(err)["exit_code"] != code:
        return "stderr JSON carries the wrong exit code"
    return None


# ---------------------------------------------------------------------------
# Request builders
# ---------------------------------------------------------------------------

def _degs(degrees) -> str:
    return ",".join(map(str, degrees))


def _norm(base: str, degrees) -> tuple:
    lo = min(degrees)
    return (base, tuple(sorted(d - lo for d in degrees)))


def survey_specs(n: int) -> List[tuple]:
    """Normalized p1 splittings (0, a1, a2, a3) with a3 <= n: C(n+3, 3) of them."""
    return [(0,) + s for s in itertools.combinations_with_replacement(range(n + 1), 3)]


def survey(n: int, fmt: str) -> Request:
    return Request(
        ("enumerate", "--base", "p1", "--max-degree", str(n), "--format", fmt),
        0,
        functools.partial(check_survey, n, fmt),
        specs=tuple(("p1", s) for s in survey_specs(n)),
        rows=comb(n + 3, 3),
    )


def invariants(base: str, degrees, fmt: str) -> Request:
    rho2 = tuple(degrees) in (P3_RHO2 if base == "p3" else P1_RHO2)
    return Request(
        ("invariants", "--base", base, "--degrees=" + _degs(degrees), "--format", fmt),
        0,
        functools.partial(check_invariants, base, tuple(degrees), fmt),
        specs=(_norm(base, degrees),),
        rows=1,
        oracle_probe=rho2,
    )


def kaehler(base: str, degrees, fmt: str) -> Request:
    return Request(
        ("kaehler", "--base", base, "--degrees=" + _degs(degrees), "--format", fmt),
        0,
        functools.partial(check_kaehler, base, tuple(degrees), fmt),
        specs=(_norm(base, degrees),),
        oracle_probe=True,
    )


def classify(degrees, fmt: str) -> Request:
    return Request(
        ("classify", "--degrees=" + _degs(degrees), "--format", fmt),
        0,
        functools.partial(check_classify, tuple(degrees), fmt),
        specs=(_norm("p1", degrees),),
    )


def refusal(argv: Sequence[str], code: int) -> Request:
    return Request(tuple(argv), code, functools.partial(check_refusal, code))


def discriminant(degrees, seed: int, bound: int) -> Request:
    return Request(
        ("discriminant", "--degrees=" + _degs(degrees), "--seed", str(seed),
         "--bound", str(bound)),
        0,
        functools.partial(check_discriminant, tuple(degrees), seed, bound),
        specs=(_norm("p3", degrees),),
        sections=1,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def survey_blocks(rng: Random) -> Iterator[List[Request]]:
    """One block: each ROADMAP size once, in seeded order.  Formats rotate
    over blocks so that every size meets every format every third block."""
    offset = rng.randrange(len(FORMATS))
    for k in itertools.count():
        sizes = list(SURVEY_SIZES)
        rng.shuffle(sizes)
        yield [
            survey(n, FORMATS[(SURVEY_SIZES.index(n) + k + offset) % len(FORMATS)])
            for n in sizes
        ]


def _refused_spec(rng: Random) -> Request:
    """A documented exit-4 refusal: p3 gap > 4, or rho != 2 where 2 is needed."""
    a = rng.randrange(-2, 8)
    choice = rng.randrange(4)
    if choice == 0:
        degs = (a, a + rng.randrange(5, 9))
        return refusal(("invariants", "--base", "p3", "--degrees=" + _degs(degs)), 4)
    if choice == 1:
        return refusal(("kaehler", "--base", "p3", "--degrees=" + _degs((a, a + 4))), 4)
    spec = rng.choice(P1_RHO_ABOVE_2)
    if choice == 2:
        return refusal(("kaehler", "--base", "p1", "--degrees=" + _degs(spec)), 4)
    return refusal(("classify", "--degrees=" + _degs(spec)), 4)


def _wrong_arity(rng: Random) -> Request:
    """A documented exit-2 refusal: a degree tuple of the wrong length."""
    cmd, base, n = rng.choice(
        [("invariants", "p3", 3), ("invariants", "p1", 2), ("kaehler", "p3", 1),
         ("kaehler", "p1", 3), ("classify", None, 3)]
    )
    argv = [cmd] + (["--base", base] if base else [])
    argv += ["--degrees=" + _degs(rng.randrange(0, 5) for _ in range(n))]
    return refusal(argv, 2)


def query_blocks(rng: Random) -> Iterator[List[Request]]:
    """Twenty single-spec requests, shuffled: 8 invariants (6 on rho = 2
    specs), 8 kaehler, 2 classify (one always 0,0,0,1) and 2 refusals.

    A rho = 2 invariants or kaehler request costs two oracle runs, other
    invariants requests one, classify and refusals none.  Each block holds
    a fixed number of each cost class, with 70% in the dearest, so the
    run's median falls inside that class whatever the seed.
    """
    def inv(base, pool):
        return invariants(base, rng.choice(pool), rng.choice(FORMATS))

    def kae(base, pool):
        return kaehler(base, rng.choice(pool), rng.choice(("json", "text")))

    while True:
        block = (
            [inv("p3", P3_RHO2) for _ in range(4)] + [inv("p1", P1_RHO2) for _ in range(2)]
            + [inv("p3", P3_RHO1), inv("p1", P1_RHO_ABOVE_2)]
            + [kae("p3", P3_RHO2) for _ in range(5)] + [kae("p1", P1_RHO2) for _ in range(3)]
            + [classify((0, 0, 0, 1), "json"),
               classify(rng.choice(P1_RHO2), rng.choice(("json", "text")))]
            + [_refused_spec(rng), _wrong_arity(rng)]
        )
        rng.shuffle(block)
        yield block


DISC_SPECS = [(0, b) for b in range(5)]
DISC_BOUNDS = (2, 1000)


def disc_blocks(rng: Random) -> Iterator[List[Request]]:
    """Ten sections: every normalized p3 spec at both bounds, seeded order,
    each with a fresh section seed."""
    while True:
        block = [
            discriminant(spec, rng.randrange(2 ** 31), bound)
            for spec in DISC_SPECS
            for bound in DISC_BOUNDS
        ]
        rng.shuffle(block)
        yield block


CHOW = ("chow.tangent_total_chern", "chow.reduce", "chow.ChowClass.__mul__", "chow.integrate")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "survey-p1",
            "bulk p1 enumeration at N = 6, 14, 20 in json/csv/text: oracle, cohomology "
            "and CLI emission work, kahler nearly idle",
            survey_blocks,
            (survey(3, "json"),),
            trace_blocks=1,
            round_blocks=len(FORMATS),
            required=("cli.main", *CHOW, "invariants.invariants_p1",
                      "invariants.picard_number", "cohomology.cohomology",
                      "cohomology.sym_power"),
        ),
        Workload(
            "spec-queries",
            "small single-spec invariants/kaehler/classify requests with repeats and "
            "refusals: duplicated oracle runs and kahler/UniPoly work",
            query_blocks,
            (invariants("p3", (0, 1), "json"), kaehler("p1", (0, 0, 1, 2), "text"),
             classify((0, 0, 1, 1), "json")),
            trace_blocks=10,
            required=("cli.main", *CHOW, "invariants.invariants_p1",
                      "invariants.invariants_p3", "invariants.fiber_count",
                      "invariants.picard_number", "invariants.admissibility_p3",
                      "cohomology.end_bundle", "cohomology.sym_power",
                      "kahler.boundary_rays", "kahler.rationality_analysis",
                      "kahler.classify_contraction_p1", "kahler.h4_basis_determinant",
                      "kahler.verify_KY_squared", "ratpoly.rational_roots",
                      "ratpoly.poly_gcd"),
        ),
        Workload(
            "disc-sweep",
            "discriminant octics over p3 (0,0)..(0,4), seeded sections, bound 2 or 1000: "
            "MultiPoly and discriminant only, chow idle",
            disc_blocks,
            (discriminant((0, 1), 0, 2),),
            trace_blocks=3,
            required=("cli.main", "ratpoly.MultiPoly.__mul__", "ratpoly.MultiPoly.evaluate",
                      "ratpoly.multipoly_gradient", "ratpoly.to_canonical_text",
                      "discriminant.sample_section", "discriminant.witness_section",
                      "discriminant.build_discriminant", "discriminant.scaling_law_check",
                      "discriminant.gradient_identity_holds",
                      "discriminant.singularity_witness"),
        ),
    )
}
