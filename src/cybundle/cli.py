"""Command-line front end: single-spec reports, family enumeration, cone
analysis, contraction classification and discriminant export.

All output is deterministic byte-for-byte for a fixed configuration and
seed.  JSON reports carry ``"schema": 1``.  A report row holds the keys of
ROW_KEYS; the CSV columns (CSV_COLUMNS) are those keys in that order
without the free-text ``picard_hypothesis_note``, which only json and text
rows carry.  Report rows are rendered from ROW_KEYS sorted once (a json row
template, text cells); every other json value goes through _json_text, and
the json bytes are those of ``json.dumps(indent=2, sort_keys=True)``.  CSV
holds report rows, so ``--format csv`` is accepted by ``invariants`` and
``enumerate`` only.  Each ``--degrees`` field is
ASCII ``-?[0-9]+`` with at most MAX_DEGREE_DIGITS (1000) digits (no spaces,
``+``, ``_`` or non-ASCII digits); a negative leading degree needs the form
``--degrees=-5,0,0,0``.
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
gives options only to the subparser that ``argv[0]`` names exactly; the
other subparsers are bare placeholders that only name themselves in the
choice list.  Any other argv gets the full parser (see build_parser).
``--out`` is written atomically, through any symlink to the file it names:
a failed write leaves no partial file.
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
    invariants_for,
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

# csv and text cells of these exact types need no _csv_cell conversion
_PLAIN = (int, str)

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
# report row keys in sort_keys order: the json template of a row in a
# top-level list, whose keys sit 6 spaces deep, and the text row template
_ROW_ORDER = tuple(sorted(ROW_KEYS))
_JSON_ROW_TEMPLATE = tuple(
    (k, ("," if i else "{") + f"\n      {_encode_str(k)}: ") for i, k in enumerate(_ROW_ORDER))
_TEXT_ROW_TEMPLATE = " ".join(f"{k}=%s" for k in _ROW_ORDER) + "\n"
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
    inv = invariants_for(spec, oracle_memo)
    row = _NULL_ROW.copy()
    row["base"] = "p3" if spec.base_dim == 3 else "p1"
    row["degrees"] = list(spec.split_degrees)
    # every record is oracle-checked; a mismatch raises before this
    row["oracle_ok"] = True
    row.update(zip(_RECORD_KEYS, map(inv.__getattribute__, _RECORD_KEYS)))
    # the record's rho = 2, and on p3 its fiber count (None where gamma > 16
    # leaves no smooth X), fill the cone and contraction fields
    if inv.picard_number != 2 or (spec.base_dim == 3 and inv.fiber_count is None):
        return row
    norm = spec.normalized()
    kr = boundary_rays(norm, inv if norm is spec else invariants_for(norm, oracle_memo))
    row["rationality"] = kr.rationality.value
    row["ray_c2_xi"], row["ray_c2_h"] = kr.c2_values
    if spec.base_dim == 1:
        cr = classify_contraction_p1(norm)
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
    rendered in the key order sorted once from ROW_KEYS, in json from a row
    template; every other json value goes through _json_text.
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
        import csv  # only --format csv needs it, so no other request loads it

        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in payload["rows"]:
            cells = map(row.get, CSV_COLUMNS)
            writer.writerow([v if type(v) in _PLAIN else _csv_cell(v) for v in cells])
    else:
        for key in sorted(payload):
            if key == "rows":
                for row in payload[key]:
                    cells = map(row.__getitem__, _ROW_ORDER)
                    fh.write(_TEXT_ROW_TEMPLATE % tuple(
                        [v if type(v) in _PLAIN else _csv_cell(v) for v in cells]))
            else:
                fh.write(f"{key}: {json.dumps(payload[key], sort_keys=True)}\n")


def _write_json(fh: io.TextIOBase, payload: dict) -> None:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, one
    top-level key per write and a top-level list one element per write."""
    sep = "{\n  "
    for key, value in sorted(payload.items()):
        head = f"{sep}{_encode_str(key)}: "
        if isinstance(value, (list, tuple)) and value:
            head += "[\n    "
            for item in value:
                row = isinstance(item, dict) and item.keys() == _NULL_ROW.keys()
                fh.write(f"{head}{_json_row(item) if row else _json_text(item, '    ')}")
                head = ",\n    "
            fh.write("\n  ]")
        else:
            fh.write(f"{head}{_json_text(value, '  ')}")
        sep = ",\n  "
    fh.write("\n}\n" if payload else "{}\n")


def _json_row(row: dict) -> str:
    """``_json_text(row, "    ")`` for a report row, from the row template."""
    parts = []
    for key, head in _JSON_ROW_TEMPLATE:
        v = row[key]
        leaf = _JSON_LEAVES.get(type(v))
        parts.append(head + (leaf(v) if leaf else _json_text(v, "      ")))
    return "".join(parts) + "\n    }"


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
        items = []
        for k, v in sorted(value.items()):
            leaf = _JSON_LEAVES.get(type(v))
            items.append(f"{_encode_str(k)}: {leaf(v) if leaf else _json_text(v, inner)}")
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
    exclusively: whatever already has its name is not written through."""
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_cell(value):
    """The csv and text cell of a None, bool or list value; int and str
    cells (the types in _PLAIN) are written as they are."""
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
    report = boundary_rays(spec, invariants_for(require_rho_two(spec)))
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
        "scaling_law": scaling_law_check(q, octic, "3/2"),
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand.  Given a ``command``, only that
    subparser gets its options; the others are bare placeholders, with no
    action at all, not even ``-h``.  Such a parser reads exactly the argv
    whose first token is ``command``: the top-level parser has no option
    but ``-h``, so that token always selects the subcommand, and only its
    subparser reads the rest.  A placeholder only supplies its name to the
    top-level choice list, which the usage and error text show."""
    parser = argparse.ArgumentParser(
        prog="cybundle",
        description="Exact invariants of Calabi-Yau threefolds in projective bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, options, takes_base in _COMMANDS:
        if command is not None and name != command:
            # a placeholder: it only lends its name to the choice list
            sub.add_parser(name, help=help_text, add_help=False)
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
