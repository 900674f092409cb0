"""Stdlib-only check of the CLI's json writer against ``json.dumps``.

    PYTHONPATH=src python tests/json_writer_check.py

compares ``cybundle.cli._write_json`` with ``json.dumps(v, indent=2,
sort_keys=True)`` plus a newline on every golden json payload, on the
``enumerate`` payloads of p1 at ``--max-degree`` 0..4 and p3 at 0..6, and on
seeded random values, under the interpreter that runs it, and exits 1 on the
first difference.  The random rows include dicts with exactly the report row
keys (``cli.ROW_KEYS``), which the writer renders from its row template, and
dicts with one key missing or one key extra, which it must not.  It needs
nothing outside the standard library, so it runs under any Python the
package supports; ``tests/test_cli.py`` runs it too.
"""

import io
import json
import sys
from pathlib import Path
from random import Random

from cybundle import cli
from cybundle.cli import ROW_KEYS, _write_json

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


def check(seed: int = 0, count: int = 2000) -> int:
    """Compare the writer with json.dumps; returns the number of payloads."""
    checked = 0
    for name, text in golden_payloads():
        payload = json.loads(text)
        if reference(payload) != text or written(payload) != text:
            raise AssertionError(f"golden payload {name} differs")
        checked += 1
    cone_rows = contraction_rows = 0
    for name, payload in enumerate_payloads():
        if written(payload) != reference(payload):
            raise AssertionError(f"{name} payload differs")
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
        checked += 1
    return checked


if __name__ == "__main__":
    try:
        n = check()
    except AssertionError as exc:
        sys.exit(f"FAIL ({sys.version.split()[0]}): {exc}")
    print(f"ok: {n} payloads match json.dumps under Python {sys.version.split()[0]}")
