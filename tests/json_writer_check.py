"""Stdlib-only check of the CLI's writers against their references.

    PYTHONPATH=src python tests/json_writer_check.py

compares ``cybundle.cli._write_json`` with ``json.dumps(v, indent=2,
sort_keys=True)`` plus a newline on every golden json payload, on the
``enumerate`` payloads of p1 at ``--max-degree`` 0..4 and p3 at 0..6, and on
seeded random values, under the interpreter that runs it, and exits 1 on the
first difference.  The random rows include dicts with exactly the report row
keys (``cli.ROW_KEYS``), which the writer renders from its row template, and
dicts with one key missing or one key extra, which it must not.  The csv and
text writers are compared with their references (``csv_reference``,
``text_reference``) on the same ``enumerate`` payloads; all three writers
also on seeded payloads whose rows repeat a few Chern data.  The writers are
one row writer (``cli._row_writer``), with a row template and a cell function
per format, which renders a row's datum cells once per datum; csv's cell
function takes any cell that is not an exact int, a list of exact ints, None
or a bool from csv.writer, one field at a time.  The seeded rows hold twin
rows whose one datum cell differs only in type (True and 1, an IntEnum and an
int, a str subclass and a str, a float after an equal int), a Picard note
that differs between rows of one datum, list and dict cells, cells csv must
quote, an empty base, empty, non-int or non-list degrees, a non-int rho and
rows with a missing key.  It needs nothing outside the standard library, so
it runs under any Python the package supports; ``tests/test_cli.py`` runs it
too.
"""

import csv
import enum
import io
import json
import sys
from pathlib import Path
from random import Random

from cybundle import cli
from cybundle.cli import CSV_COLUMNS, ROW_KEYS, _csv_cell, _write, _write_json

GOLDEN_DIR = Path(__file__).parent / "golden"

# strings json escapes: quotes, backslashes, control characters, non-ASCII
# (a BMP letter, an astral symbol, a lone surrogate) and the empty string
AWKWARD = ['"', "\\", "\x00", "\n\t\x1f\x7f", "é", "\U0001f600", "\ud800", ""]


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def written(payload) -> str:
    fh = io.StringIO()
    _write_json(fh, payload)
    return fh.getvalue()


def csv_reference(payload) -> str:
    """The csv writer as it was before rows were rendered once per datum."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in payload["rows"]:
        cells = map(row.get, CSV_COLUMNS)
        writer.writerow([v if type(v) in (int, str) else _csv_cell(v) for v in cells])
    return fh.getvalue()


def text_reference(payload) -> str:
    """The text writer with each row's cells in sorted(row.items()) order,
    as it was before rows were rendered in a key order sorted once; each
    cell is ``%s`` of its value, as str() and format() of an IntEnum differ
    before Python 3.11."""
    lines = []
    for key in sorted(payload):
        if key == "rows":
            for row in payload[key]:
                lines.append(" ".join(
                    "%s=%s" % (k, v if type(v) in (int, str) else _csv_cell(v))
                    for k, v in sorted(row.items())
                ))
        else:
            lines.append(f"{key}: {json.dumps(payload[key], sort_keys=True)}")
    return "".join(line + "\n" for line in lines)


def written_as(payload, fmt: str) -> str:
    fh = io.StringIO()
    _write(fh, payload, fmt)
    return fh.getvalue()


def golden_payloads():
    """(name, text) of every golden stdout file that holds a json object."""
    for path in sorted(GOLDEN_DIR.glob("*.stdout")):
        text = path.read_text(encoding="utf-8")
        if text.startswith("{"):
            yield path.name, text


def enumerate_payload(base: str, max_degree: int) -> dict:
    """The payload ``enumerate --base base --max-degree max_degree`` emits."""
    emitted = []
    emit, cli._emit = cli._emit, lambda payload, fmt, out: emitted.append(payload)
    try:
        if cli.main(["enumerate", "--base", base, "--max-degree", str(max_degree)]) != 0:
            raise AssertionError(f"enumerate {base} {max_degree} failed")
    finally:
        cli._emit = emit
    return emitted[0]


def enumerate_payloads():
    """(name, payload) of p1 at --max-degree 0..4 and p3 at 0..6."""
    for base, top in (("p1", 4), ("p3", 6)):
        for n in range(top + 1):
            yield f"enumerate {base} {n}", enumerate_payload(base, n)


def random_value(rng: Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 3 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(10 ** 40), 10 ** 40)
    if kind == 2:
        return rng.randint(-3, 3)
    if kind == 3:
        return rng.choice(AWKWARD)
    if kind == 4:
        pieces = AWKWARD + ["a", " ", "'"]
        return "".join(rng.choice(pieces) for _ in range(rng.randrange(5)))
    n = rng.randrange(4)
    items = [random_value(rng, depth + 1) for _ in range(n)]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    keys = AWKWARD + ["rows", "b", "a"]
    return {rng.choice(keys) + str(i): v for i, v in enumerate(items)}


def random_row(rng: Random) -> dict:
    """A dict with the report row keys in a random order and random values,
    or with one of those keys missing or one key extra."""
    keys = list(ROW_KEYS)
    rng.shuffle(keys)
    kind = rng.randrange(3)
    if kind == 1:
        keys.pop()
    elif kind == 2:
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(AWKWARD + ["rows", "zz"]))
    return {k: random_value(rng, 1) for k in keys}


def random_payload(rng: Random) -> dict:
    """A dict with a top-level list, which the writer emits element by element."""
    payload = {f"k{i}": random_value(rng) for i in range(rng.randrange(4))}
    payload["rows"] = [
        random_row(rng) if rng.randrange(3) == 0 else random_value(rng, 1)
        for _ in range(rng.randrange(4))
    ]
    return payload


class Kind(enum.IntEnum):
    ONE = 1


class Name(str):
    pass


# the own cells of a report row, set per spec; every other key is a datum
# cell, which the writers render once per datum (the note too, though the
# seeded rows below vary it within a datum)
OWN_KEYS = ("degrees", "picard_number")
DATUM_KEYS = tuple(k for k in ROW_KEYS if k not in OWN_KEYS)
# equal values that render differently in some format, in row order; the
# float comes after its equal int, and json must still refuse it
TWINS = ((1, True), (True, 1), (0, False), (Kind.ONE, 1), (1, Kind.ONE),
         ("p1", Name("p1")), (Name("p1"), "p1"), ((1,), (True,)), (1, 1.0))
# datum cells no survey row holds: cells csv must quote, containers, ""
ODD_CELLS = ("a,b", 'say "hi"', "x\ny", "", [1, "a,b"], {"k": [True]}, [], (2, None))
ODD_DEGREES = ([], [1, "2,3"], [True, 0], [Kind.ONE, 2], (1, 2), "0 1", None, [1.0])
ODD_RHO = (True, "3", None, Kind.ONE, 2.0, -5)


def repeated_payload(rng: Random, data: list) -> dict:
    """An enumerate payload whose rows repeat the datum cells of a few rows
    of ``data``, each with its own degrees and Picard fields, and some with
    one odd cell (see TWINS, ODD_CELLS, ODD_DEGREES, ODD_RHO) or one key
    missing."""
    pool = rng.sample(data, 3)
    rows = []
    for _ in range(rng.randrange(1, 9)):
        row = dict(rng.choice(pool))
        row["degrees"] = (rng.choice(ODD_DEGREES) if rng.randrange(4) == 0
                          else [rng.randint(0, 12) for _ in range(rng.choice((2, 4)))])
        row["picard_number"] = rng.choice(ODD_RHO) if rng.randrange(4) == 0 else rng.randint(2, 99)
        row["picard_hypothesis_note"] = rng.choice(("normalized convention", 'a "b",c', "", None))
        kind = rng.randrange(6)
        if kind <= 1:  # the same datum twice, one cell a twin apart
            key = rng.choice(DATUM_KEYS)
            first, second = rng.choice(TWINS)
            rows.append({**row, key: first})
            row[key] = second
        elif kind == 2:
            row[rng.choice(DATUM_KEYS)] = rng.choice(ODD_CELLS)
        elif kind == 3:
            row["base"] = ""
        elif kind == 4 and rng.randrange(3) == 0:
            del row[rng.choice(ROW_KEYS)]
        rows.append(row)
    return {"base": "p1", "command": "enumerate", "max_degree": 4, "rows": rows, "schema": 1}


def holds_float(value) -> bool:
    if isinstance(value, dict):
        return any(map(holds_float, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(holds_float, value))
    return isinstance(value, float)


def check_writers(payload, name: str) -> None:
    """All three writers against their references: json refuses a float,
    which json.dumps renders, and text a row with a missing key."""
    if holds_float(payload):
        try:
            written(payload)
        except TypeError:
            pass
        else:
            raise AssertionError(f"{name}: json writer rendered a float")
    elif written(payload) != reference(payload):
        raise AssertionError(f"{name}: json differs")
    if written_as(payload, "csv") != csv_reference(payload):
        raise AssertionError(f"{name}: csv differs")
    if all(row.keys() >= set(ROW_KEYS) for row in payload["rows"]):
        if written_as(payload, "text") != text_reference(payload):
            raise AssertionError(f"{name}: text differs")
    else:
        try:
            written_as(payload, "text")
        except KeyError:
            pass
        else:
            raise AssertionError(f"{name}: text writer rendered a row with a missing key")


def check(seed: int = 0, count: int = 2000) -> int:
    """Compare the writers with their references; returns the number of payloads."""
    checked = 0
    for name, text in golden_payloads():
        payload = json.loads(text)
        if reference(payload) != text or written(payload) != text:
            raise AssertionError(f"golden payload {name} differs")
        checked += 1
    cone_rows = contraction_rows = 0
    data = []
    for name, payload in enumerate_payloads():
        check_writers(payload, name)
        data += payload["rows"]
        cone_rows += sum(row["rationality"] is not None for row in payload["rows"])
        contraction_rows += sum(row["contraction_kind"] is not None for row in payload["rows"])
        checked += 1
    if not cone_rows or not contraction_rows:
        raise AssertionError("no enumerate row has cone and contraction fields")
    rng = Random(seed)
    for _ in range(count):
        payload = random_payload(rng)
        if written(payload) != reference(payload):
            raise AssertionError(f"payload differs: {payload!r}")
        payload = repeated_payload(rng, data)
        check_writers(payload, f"repeated payload {payload!r}")
        checked += 2
    return checked


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    print(f"ok: {n} payloads match their references under Python {sys.version.split()[0]}")
