"""Outside-in span tracer for the cybundle layers.

The program's source is not touched.  Every binding of a traced function is
replaced by a recording wrapper: the defining module, each module that
re-binds it through ``from .x import f``, the package's re-exports, and
class attributes that alias it (``__rmul__ = __mul__``).  ``close`` puts
every original binding back.

Spans are kept in memory as parallel integer arrays with a parent link and
the index of the request that caused them.  A span's self time is its
duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from importlib import import_module
from typing import Dict, List, Sequence

PACKAGE = "cybundle"

# layer module -> functions traced in it; a dotted name is a class attribute
LAYERS: Dict[str, Sequence[str]] = {
    "cli": ("main",),
    "invariants": (
        "invariants_p1",
        "invariants_p3",
        "fiber_count",
        "picard_number",
        "admissibility_p3",
    ),
    "chow": ("tangent_total_chern", "reduce", "ChowClass.__mul__", "integrate"),
    "cohomology": ("cohomology", "sym_power", "end_bundle"),
    "kahler": (
        "boundary_rays",
        "rationality_analysis",
        "classify_contraction_p1",
        "h4_basis_determinant",
        "verify_KY_squared",
    ),
    "ratpoly": (
        "rational_roots",
        "poly_gcd",
        "MultiPoly.__mul__",
        "MultiPoly.evaluate",
        "multipoly_gradient",
        "to_canonical_text",
    ),
    "discriminant": (
        "sample_section",
        "witness_section",
        "build_discriminant",
        "scaling_law_check",
        "gradient_identity_holds",
        "singularity_witness",
    ),
}

SPAN_NAMES: List[str] = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


def _resolve(obj, dotted: str):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records one span per call of each function in ``SPAN_NAMES``.

    Use as a context manager; set ``request`` before each request so its
    spans share that identifier.
    """

    def __init__(self) -> None:
        self.request = -1
        self.name = array("i")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: List[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _install(self) -> None:
        owners = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for idx, span_name in enumerate(SPAN_NAMES):
            module, _, attr = span_name.partition(".")
            original = _resolve(import_module(f"{PACKAGE}.{module}"), attr)
            if self._rebind(owners, original, self._wrap(idx, original)) == 0:
                raise RuntimeError(f"no binding of {span_name} was found")

    def _rebind(self, owners, original, wrapper) -> int:
        count = 0
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)
                    count += 1
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for ckey, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._set(value, ckey, original, wrapper)
                            count += 1
        return count

    def _set(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def close(self) -> None:
        """Restore every binding this tracer replaced."""
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _wrap(self, idx: int, fn):
        name, parent, req, start, end = (
            self.name, self.parent, self.req, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1])
            req.append(tracer.request)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()

        return traced

    # -- analysis ---------------------------------------------------------

    def self_ns(self) -> List[int]:
        """Per span: duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per traced function: number of calls and summed self time in ns."""
        out = {n: {"calls": 0, "self_ns": 0} for n in SPAN_NAMES}
        for idx, own in zip(self.name, self.self_ns()):
            rec = out[SPAN_NAMES[idx]]
            rec["calls"] += 1
            rec["self_ns"] += own
        return out

    def calls_per_request(self, span_name: str) -> Dict[int, int]:
        idx = SPAN_NAMES.index(span_name)
        out: Dict[int, int] = {}
        for n, r in zip(self.name, self.req):
            if n == idx:
                out[r] = out.get(r, 0) + 1
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed CSV, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,request,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.req[i]},{SPAN_NAMES[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )
