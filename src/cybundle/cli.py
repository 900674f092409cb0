"""Command-line front end: single-spec reports, family enumeration, cone
analysis, contraction classification and discriminant export.

All output is deterministic byte-for-byte for a fixed configuration and
seed.  JSON reports carry ``"schema": 1``.  A report row holds the keys of
ROW_KEYS; the CSV columns (CSV_COLUMNS) are those keys in that order
without the free-text ``picard_hypothesis_note``, which only json and text
rows carry.  Report rows are rendered from ROW_KEYS sorted once (a json row
template, a text one), and a json row cell that is a list of exact ints,
such as ``degrees``, is one join; every other json value goes through
_json_text, and the json bytes are those of
``json.dumps(indent=2, sort_keys=True)``.  Each writer renders a row's
own cells (degrees, Picard fields) per row and its other cells, functions
of the Chern datum, once per datum in one write (see _segments).
``enumerate`` shares one OracleMemo among its rows: the oracle runs and a
record is built once per Chern datum, and every row is that datum's row
with its own degrees and Picard fields (see _report_row); every row's
closed forms are still compared.  CSV holds report rows, so ``--format
csv`` is accepted by ``invariants`` and ``enumerate`` only.  Each
``--degrees`` field is ASCII ``-?[0-9]+`` with at most MAX_DEGREE_DIGITS
(1000) digits (no spaces, ``+``, ``_`` or non-ASCII digits); a negative
leading degree needs the form ``--degrees=-5,0,0,0``.
Exit codes: 0 ok, 2 invalid input (malformed or wrong-arity degrees, a
``--bound`` outside 0..MAX_SECTION_BOUND, a ``--max-degree`` outside
0..MAX_ENUMERATE_DEGREE, ``--format csv`` on ``kaehler``, ``classify`` or
``discriminant``, an empty ``--out``, an ``--out`` that names a FIFO, a
device or a directory, an ``--out`` path that cannot be written, or a
stdout that cannot be written, such as a full device or a closed pipe), 3
oracle mismatch, a false value under ``checks`` or a
base-locus ``witness`` that is not a verified singular point (the payload
is written first), 4 inadmissible or refused spec (``RhoNotTwoError``
too).  The csv refusal and the refusals of an empty or a non-regular
``--out`` come before any computation.
Command handlers return only their payload fields; ``main`` alone adds the
header (``schema``, ``command``), writes the payload and maps errors to exit
codes, each with one JSON object ``{"error": ..., "exit_code": ...}`` on
stderr; argparse's own usage errors keep its usage message.  A request
builds only the subparser that ``argv[0]`` names exactly; there are no
placeholder parsers, as the other names appear only in the usage's choice
list.  Any other argv gets the full parser (see build_parser).
``--out`` is written atomically, through any symlink to the file it names:
a failed write leaves no partial file, and a file already at the temporary
name is left as it is (see _write_atomic).
After a failed write to stdout the descriptor under it is pointed at the
null device, so the exit prints no second error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import stat
import sys
from collections.abc import Callable
from operator import itemgetter

from .chow import BundleSpec
from .discriminant import (
    build_discriminant,
    gradient_identity_holds,
    sample_section,
    scaling_law_check,
    singularity_witness,
    witness_section,
)
from .invariants import (
    CyInvariants,
    OracleMemo,
    OracleMismatchError,
    admissibility_p3,
    check_invariants,
    invariants_for,
    picard_number,
)
from .kahler import (
    RhoNotTwoError,
    boundary_rays,
    classify_contraction_p1,
    require_rho_two,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_ORACLE_MISMATCH = 3
EXIT_INADMISSIBLE = 4
# exit codes of the library errors that reach main; a CliError carries its own
_ERROR_EXIT_CODES = {
    OracleMismatchError: EXIT_ORACLE_MISMATCH,
    RhoNotTwoError: EXIT_INADMISSIBLE,
}

# enumerate --base p1 emits O(N^3) rows: 47905 at N = 64
MAX_ENUMERATE_DEGREE = 64

CSV_COMMANDS = ("invariants", "enumerate")

# digits in one --degrees field: every int a request derives is at most
# cubic in c1, so it stays below Python's 4300-digit limit on str(int)
MAX_DEGREE_DIGITS = 1000

# one --degrees field; [0-9], unlike \d, matches ASCII digits only
_DEGREE_FIELD = re.compile(rf"-?[0-9]{{1,{MAX_DEGREE_DIGITS}}}")

# the str rendering of json.dumps; it raises TypeError on any other type
_encode_str = json.encoder.encode_basestring_ascii

# what json.dumps writes for a leaf of each exact type
_JSON_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}

# the element types of a nonempty list of exact ints, which _json_cell joins
_INT_ONLY = {int}

# the keys of a report row, in csv column order: base and degrees, every
# invariant field but base_dim, oracle_ok, then the cone and contraction
# keys, null unless picard_number is 2 and, on p3, fiber_count is not null
ROW_KEYS = (
    "base",
    "degrees",
    *(name for name in CyInvariants._fields if name != "base_dim"),
    "oracle_ok",
    "rationality",
    "ray_c2_xi",
    "ray_c2_h",
    "contraction_kind",
    "contraction_count",
)

CSV_COLUMNS = tuple(k for k in ROW_KEYS if k != "picard_hypothesis_note")

_NULL_ROW = dict.fromkeys(ROW_KEYS)
# the own cells of a report row, which _report_row sets per spec; the other,
# datum cells are functions of the row's Chern datum
_OWN_KEYS = ("degrees", "picard_hypothesis_note", "picard_number")
# report row keys in sort_keys order, with the head of each cell: the json
# template of a row in a top-level list, whose keys sit 6 spaces deep, and
# the text template
_ROW_ORDER = tuple(sorted(ROW_KEYS))
_JSON_ROW_TEMPLATE = tuple(
    (k, ("," if i else "{") + f"\n      {_encode_str(k)}: ") for i, k in enumerate(_ROW_ORDER))
_TEXT_ROW_TEMPLATE = tuple((k, f"{' ' if i else ''}{k}=") for i, k in enumerate(_ROW_ORDER))
_RECORD_KEYS = tuple(k for k in ROW_KEYS if k in CyInvariants._fields)


class CliError(Exception):
    def __init__(self, code: int, reason: str) -> None:
        super().__init__(reason)
        self.code = code


def _parse_spec(text: str, base: str) -> tuple[list[int], BundleSpec]:
    """The ``--degrees`` list and the split spec it names over ``base``."""
    fields = text.split(",")
    if not all(map(_DEGREE_FIELD.fullmatch, fields)):
        raise CliError(EXIT_INVALID_INPUT, f"unparsable degrees: {text!r}")
    degs = [int(x) for x in fields]
    want = 2 if base == "p3" else 4
    if len(degs) != want:
        raise CliError(
            EXIT_INVALID_INPUT,
            f"base {base} needs {want} degrees, got {len(degs)}",
        )
    return degs, BundleSpec.from_split(3 if base == "p3" else 1, degs)


def _report_row(spec: BundleSpec, oracle_memo: OracleMemo | None = None) -> dict:
    """The report row of a split spec, a new dict on every call.

    The memo (a fresh dict when None) keeps, per Chern datum, the datum row
    and the datum record: the first spec of a datum builds its record and
    takes rho from it; a later spec runs the record's checks
    (check_invariants) and picard_number.  Every row is a copy of the datum
    row with its own degrees and Picard fields, as every other record field
    is a function of the Chern datum.  A rho = 2 row reads its cone from
    the datum record, which is the spec's own: boundary_rays shears it to
    the normalized basis when the spec is not normalized.
    """
    memo = {} if oracle_memo is None else oracle_memo
    key = ("row", spec.base_dim, spec.rank, spec.c1, spec.c2)
    entry = memo.get(key)
    if entry is None:
        inv = invariants_for(spec, memo)
        datum_row = _NULL_ROW.copy()
        datum_row["base"] = "p3" if spec.base_dim == 3 else "p1"
        # every record is oracle-checked; a mismatch raises before this
        datum_row["oracle_ok"] = True
        datum_row.update(zip(_RECORD_KEYS, map(inv.__getattribute__, _RECORD_KEYS)))
        memo[key] = datum_row, inv
        rho, note = inv.picard_number, inv.picard_hypothesis_note
    else:
        datum_row, inv = entry
        check_invariants(spec, memo)
        rho, note = picard_number(spec, memo)
    row = datum_row.copy()
    row["degrees"] = list(spec.split_degrees)
    row["picard_number"], row["picard_hypothesis_note"] = rho, note
    # rho = 2, and on p3 a fiber count (None where gamma > 16 leaves no
    # smooth X), fill the cone and contraction fields
    if rho != 2 or (spec.base_dim == 3 and row["fiber_count"] is None):
        return row
    kr = boundary_rays(spec, inv)
    row["rationality"] = kr.rationality.value
    row["ray_c2_xi"], row["ray_c2_h"] = kr.c2_values
    if spec.base_dim == 1:
        cr = classify_contraction_p1(spec)
        row["contraction_kind"] = cr.kind.value
        row["contraction_count"] = cr.count
    return row


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    """Write the payload to stdout, or atomically to ``out``, as json, csv
    or text.

    The text is written piece by piece as it is generated, so a large
    survey is never held as one string next to its rows: json goes out one
    top-level key per write, and a top-level list such as ``rows`` one
    element per write.  The bytes are those of the whole text written at
    once: ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline
    for json.  A report row (a dict with exactly the keys of ROW_KEYS) is
    rendered in the key order sorted once from ROW_KEYS, from a json or a
    text row template (see _row_writer), its datum cells once per datum;
    every other json value goes through _json_text.
    """
    try:
        if out:
            _write_atomic(out, lambda fh: _write(fh, payload, fmt))
        else:
            _write(sys.stdout, payload, fmt)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            _discard_stdout()
        reason = exc.strerror or str(exc)
        raise CliError(EXIT_INVALID_INPUT, f"cannot write {out or 'stdout'}: {reason}")


def _discard_stdout() -> None:
    """Point the descriptor under a failed stdout at the null device, so
    that the interpreter's flush of stdout at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # an in-memory stream has no descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def _write(fh: io.TextIOBase, payload: dict, fmt: str) -> None:
    if fmt == "json":
        _write_json(fh, payload)
    elif fmt == "csv":
        _write_csv(fh, payload["rows"])
    else:
        segments: dict = {}
        for key in sorted(payload):
            if key == "rows":
                for row in payload[key]:
                    fh.write(_text_row(row, segments))
            else:
                fh.write(f"{key}: {json.dumps(payload[key], sort_keys=True)}\n")


def _write_csv(fh: io.TextIOBase, rows: list) -> None:
    """The csv header and rows.  Degrees that are a list of exact ints and
    an exact int rho, which csv never quotes, are written between the texts
    csv.writer gives the row's datum cells (see _segments); any other row,
    such as one with a missing key, goes through writerow."""
    import csv  # only --format csv needs it, so no other request loads it

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    buf = io.StringIO()
    run_writer = csv.writer(buf, lineterminator="\n")

    def render(row: dict) -> list[str]:
        # a run of datum cells gets an empty cell on each side that meets an
        # own cell, so that no run is a lone empty field, which csv quotes;
        # a run before an own cell drops its line end
        texts = []
        for i, run in enumerate(_CSV_RUNS):
            run_writer.writerow([""] * (i > 0) + [_csv_cell(row[k]) for k in run]
                                + [""] * (i < 2))
            texts.append(buf.getvalue()[:-1] if i < 2 else buf.getvalue())
            buf.seek(0)
            buf.truncate()
        return texts

    segments: dict = {}
    for row in rows:
        try:
            values, degrees, rho = _csv_datum(row), row["degrees"], row["picard_number"]
        except KeyError:
            degrees = rho = None
        if type(rho) is int and type(degrees) is list and _INT_ONLY.issuperset(
                map(type, degrees)):
            head, middle, tail = _segments(segments, values, render, row)
            fh.write(f"{head}{' '.join(map(int.__repr__, degrees))}{middle}{rho}{tail}")
        else:
            writer.writerow([_csv_cell(row.get(k)) for k in CSV_COLUMNS])


def _segments(segments: dict, values: tuple, render: Callable, row: dict) -> list[str]:
    """``render(row)``, the texts around a row's own cells, kept in
    ``segments`` (a dict local to one write) once per tuple of datum cells
    ``values``.  The key holds each cell's exact type, so True and 1 or 1.0
    and 1 never share texts, and texts are kept only where every cell has a
    json leaf type, whose value and type fix its text ((1,) and (True,) are
    equal); a row with an unhashable cell is rendered alone."""
    types = tuple(map(type, values))
    key = values, types
    try:
        texts = segments.get(key)
    except TypeError:  # an unhashable datum cell
        return render(row)
    if texts is None:
        texts = render(row)
        if _JSON_LEAVES.keys() >= {*types}:
            segments[key] = texts
    return texts


def _row_writer(template: tuple, cell: Callable[[object], str], end: str):
    """The writer of a report row from ``template``, (key, head) pairs in
    output order: ``head + cell(row[key])`` for each, then ``end``.  It
    takes the row and the dict of one write, in which it keeps the texts
    around the row's own cells once per datum (see _segments)."""
    datum = itemgetter(*(k for k, _ in template if k not in _OWN_KEYS))
    own = itemgetter(*(k for k, _ in template if k in _OWN_KEYS))

    def render(row: dict) -> list[str]:
        texts, parts = [], []
        for k, head in template:
            parts.append(head)
            if k in _OWN_KEYS:  # a text ends with the head of each own cell
                texts.append("".join(parts))
                parts = []
            else:
                parts.append(cell(row[k]))
        return [*texts, "".join(parts) + end]

    def write_row(row: dict, segments: dict) -> str:
        s0, s1, s2, s3 = _segments(segments, datum(row), render, row)
        degrees, note, rho = own(row)  # _OWN_KEYS, in sorted order
        return f"{s0}{cell(degrees)}{s1}{cell(note)}{s2}{cell(rho)}{s3}"

    return write_row


def _write_json(fh: io.TextIOBase, payload: dict) -> None:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, one
    top-level key per write and a top-level list one element per write."""
    sep, segments = "{\n  ", {}
    for key, value in sorted(payload.items()):
        head = f"{sep}{_encode_str(key)}: "
        if isinstance(value, (list, tuple)) and value:
            head += "[\n    "
            for item in value:
                row = isinstance(item, dict) and item.keys() == _NULL_ROW.keys()
                text = _json_row(item, segments) if row else _json_text(item, "    ")
                fh.write(f"{head}{text}")
                head = ",\n    "
            fh.write("\n  ]")
        else:
            fh.write(f"{head}{_json_text(value, '  ')}")
        sep = ",\n  "
    fh.write("\n}\n" if payload else "{}\n")


def _json_cell(v) -> str:
    """``_json_text(v, "      ")`` for a report row cell; a nonempty list
    of exact ints, such as ``degrees``, is one join."""
    leaf = _JSON_LEAVES.get(type(v))
    if leaf is not None:
        return leaf(v)
    if type(v) is list and {*map(type, v)} == _INT_ONLY:
        ints = ",\n        ".join(map(int.__repr__, v))
        return f"[\n        {ints}\n      ]"
    return _json_text(v, "      ")


def _text_cell(v) -> str:
    """A text row cell: ``%s`` of _csv_cell's value."""
    return str(_csv_cell(v))


_json_row = _row_writer(_JSON_ROW_TEMPLATE, _json_cell, "\n    }")
_text_row = _row_writer(_TEXT_ROW_TEMPLATE, _text_cell, "\n")
# the csv datum cells before, between and after its own cells, degrees and rho
_CSV_RUNS = (CSV_COLUMNS[:1], CSV_COLUMNS[2:CSV_COLUMNS.index("picard_number")],
             CSV_COLUMNS[CSV_COLUMNS.index("picard_number") + 1:])
_csv_datum = itemgetter(*_CSV_RUNS[0], *_CSV_RUNS[1], *_CSV_RUNS[2])


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value that sits
    ``indent`` deep.  Leaves are str, int, bool and None; containers are
    dicts with str keys, lists and tuples.  Any other type raises
    TypeError, as does a key that is not a str."""
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    if isinstance(value, str):  # subclasses render as json.dumps renders them
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _encode_str refuses a key that is not a str; leaves render inline
        get = _JSON_LEAVES.get
        items = [f"{_encode_str(k)}: {leaf(v) if (leaf := get(type(v))) else _json_text(v, inner)}"
                 for k, v in sorted(value.items())]
        head, tail = "{", "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        head, tail = "[", "]"
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )
    sep = ",\n" + inner
    return f"{head}\n{inner}{sep.join(items)}\n{indent}{tail}"


def _check_out_target(path: str) -> None:
    """Refuse an ``--out`` that names, through any symlinks, something other
    than a regular file, such as a FIFO, a device or a directory, or that
    holds a NUL byte.  A path that names nothing yet is left to the write."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    except OSError as exc:  # such as a symlink loop or a path through a file
        raise CliError(EXIT_INVALID_INPUT, f"cannot write {path}: {exc.strerror}")
    except ValueError as exc:  # a NUL byte, which no path can hold
        raise CliError(EXIT_INVALID_INPUT, f"cannot write {path}: {exc}")
    if not stat.S_ISREG(mode):
        raise CliError(EXIT_INVALID_INPUT, f"cannot write {path}: not a regular file")


def _write_atomic(path: str, write: Callable[[io.TextIOBase], None]) -> None:
    """Write through a temporary file in the target directory and rename it
    over ``path``, so a failed write leaves no partial file behind.  A
    symlinked ``path`` is resolved first, so the link keeps pointing at the
    file that now holds the payload.  The temporary file is created
    exclusively: whatever already has its name, such as a file left by a
    killed process with the same pid, is neither written through nor
    touched, and the next free name ``<path>.<pid>.<n>.tmp`` is taken."""
    path = os.path.realpath(path)
    tmp, n = f"{path}.{os.getpid()}.tmp", 0
    while True:
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            n += 1
            tmp = f"{path}.{os.getpid()}.{n}.tmp"
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_cell(value):
    """The csv and text cell of a None, bool or list value; any other
    value, such as an int or a str, is written as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return value


def _cmd_invariants(args) -> dict:
    _, spec = _parse_spec(args.degrees, args.base)
    if args.base == "p3":
        if not admissibility_p3(spec):
            a, b = spec.split_degrees
            raise CliError(
                EXIT_INADMISSIBLE, f"splitting gap {b - a} > 4: no smooth Calabi-Yau"
            )
    row = _report_row(spec)
    return {
        "base": args.base,
        "row": row,
        "rows": [row],
    }


def _enumerate_specs(base: str, max_degree: int) -> list[BundleSpec]:
    """The normalized specs of one base, in ascending order of degrees."""
    specs = []
    if base == "p3":
        for b in range(0, max_degree + 1):
            spec = BundleSpec.from_split(3, (0, b))
            if admissibility_p3(spec):  # skip inadmissible splittings
                specs.append(spec)
    else:
        for a1 in range(0, max_degree + 1):
            for a2 in range(a1, max_degree + 1):
                for a3 in range(a2, max_degree + 1):
                    # sorted and normalized by the loop bounds: no checks needed
                    specs.append(BundleSpec._trusted(1, 4, a1 + a2 + a3, 0, (0, a1, a2, a3)))
    return specs


def _cmd_enumerate(args) -> dict:
    if args.max_degree < 0:
        raise CliError(EXIT_INVALID_INPUT, "--max-degree must be >= 0")
    if args.max_degree > MAX_ENUMERATE_DEGREE:
        raise CliError(
            EXIT_INVALID_INPUT, f"--max-degree must be <= {MAX_ENUMERATE_DEGREE}"
        )
    specs = _enumerate_specs(args.base, args.max_degree)
    oracle_memo: OracleMemo = {}
    # _enumerate_specs yields the specs in (base, degrees) order
    rows = [_report_row(s, oracle_memo) for s in specs]
    return {
        "base": args.base,
        "max_degree": args.max_degree,
        "rows": rows,
    }


def _cmd_kaehler(args) -> dict:
    degs, spec = _parse_spec(args.degrees, args.base)
    require_rho_two(spec)  # refuse before any computation
    report = boundary_rays(spec, invariants_for(spec))
    w, analysis = report.cubic, report.analysis
    return {
        "base": args.base,
        "degrees": degs,
        "cubic": {
            "w30": str(w.w30),
            "w21": str(w.w21),
            "w12": str(w.w12),
            "w03": str(w.w03),
        },
        "rationality": analysis.verdict.value,
        "double_roots": [list(r) for r in analysis.double_roots],
        "report": report.to_dict(),
    }


def _cmd_classify(args) -> dict:
    degs, spec = _parse_spec(args.degrees, "p1")
    return {
        "degrees": degs,
        "report": classify_contraction_p1(spec).to_dict(),
    }


def _cmd_discriminant(args) -> dict:
    degs, spec = _parse_spec(args.degrees, "p3")
    if not admissibility_p3(spec):
        raise CliError(EXIT_INADMISSIBLE, "splitting gap > 4")
    try:
        q = sample_section(spec, args.seed, args.bound)
    except ValueError as exc:  # the bound is out of range
        raise CliError(EXIT_INVALID_INPUT, str(exc))
    octic = build_discriminant(q)
    checks = {
        "homogeneous_degree_8": octic.is_homogeneous_octic(),
        "scaling_law": scaling_law_check(q, octic),
        "gradient_identity": gradient_identity_holds(q, octic),
    }
    wq = witness_section(q if args.bound >= 1 else sample_section(spec, args.seed, 1))
    witness = singularity_witness(wq, (1, 0, 0, 0))
    return {
        "degrees": degs,
        "seed": args.seed,
        "bound": args.bound,
        "octic": octic.to_text(),
        "octic_coeffs": octic.to_json_coeffs(),
        "checks": checks,
        "witness": {
            "point": [str(x) for x in witness.point],
            "on_base_locus": witness.on_base_locus,
            "singular_point_verified": witness.singular_point_verified,
            "note": witness.note,
        },
    }


_DEGREES = ("--degrees", {"required": True})
# name, help, handler, own options in the order they are added, and whether
# --base follows them; --format and --out come last on every subcommand
_COMMANDS = (
    ("invariants", "invariant report for one spec", _cmd_invariants, (_DEGREES,), True),
    ("enumerate", "survey all normalized split specs", _cmd_enumerate,
     (("--max-degree", {"type": int, "required": True}),), True),
    ("kaehler", "cubic form, rationality, boundary rays", _cmd_kaehler, (_DEGREES,), True),
    ("classify", "second-contraction classification (p1)", _cmd_classify, (_DEGREES,), False),
    ("discriminant", "discriminant octic for a seeded section", _cmd_discriminant,
     (_DEGREES, ("--seed", {"type": int, "default": 0}),
      ("--bound", {"type": int, "default": 3})), False),
)


_COMMAND_NAMES = frozenset(row[0] for row in _COMMANDS)
# the text argparse derives from the full choice map, for the usage line
_CHOICES = "{" + ",".join(row[0] for row in _COMMANDS) + "}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or, given a ``command``, one that holds only that
    subparser; the other names then appear only in the usage's choice list,
    the metavar _CHOICES.  It reads exactly the argv whose first token is
    ``command``: the top-level parser has no option but ``-h``, so that token
    always selects the subcommand.  The full parser keeps no metavar, so its
    own errors name ``argument command``."""
    parser = argparse.ArgumentParser(
        prog="cybundle",
        description="Exact invariants of Calabi-Yau threefolds in projective bundles",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=None if command is None else _CHOICES)
    for name, help_text, handler, options, takes_base in _COMMANDS:
        if command is not None and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        if takes_base:
            p.add_argument("--base", choices=("p3", "p1"), default="p3")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # an exact subcommand name first needs only that subparser's options;
    # any other argv (empty, -h, --, an unknown name) gets the full parser
    named = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    args = build_parser(named).parse_args(argv)
    try:
        if args.format == "csv" and args.command not in CSV_COMMANDS:
            raise CliError(
                EXIT_INVALID_INPUT,
                f"--format csv has no columns for a {args.command} report; "
                "use json or text",
            )
        if args.out == "":
            raise CliError(EXIT_INVALID_INPUT, "--out needs a file path")
        if args.out is not None:
            _check_out_target(args.out)
        payload = {"schema": SCHEMA_VERSION, "command": args.command, **args.func(args)}
        _emit(payload, args.format, args.out)
        checks = [*payload.get("checks", {}).values()]
        witness = payload.get("witness")
        if witness and witness["on_base_locus"]:
            checks.append(witness["singular_point_verified"])
        if not all(checks):
            raise CliError(EXIT_ORACLE_MISMATCH, f"a {args.command} self-check failed")
        return EXIT_OK
    except (CliError, *_ERROR_EXIT_CODES) as exc:
        code = exc.code if isinstance(exc, CliError) else _ERROR_EXIT_CODES[type(exc)]
        print(json.dumps({"error": str(exc), "exit_code": code}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
