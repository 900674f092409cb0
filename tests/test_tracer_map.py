"""Every function named in the bench tracer's map still exists in cybundle.

``bench/tracer.py`` replaces each function of its ``LAYERS`` map with a
recording wrapper and fails the traced run when a name does not resolve.
Reading that map here, without changing it, makes a rename or a deletion in
``src`` fail tier-1 on every Python, not only in a traced bench run.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_map_is_not_empty():
    assert tracer.PACKAGE == "cybundle"
    assert len(tracer.SPAN_NAMES) >= len(tracer.LAYERS) > 0


@pytest.mark.parametrize("span_name", tracer.SPAN_NAMES)
def test_mapped_name_resolves(span_name):
    module, _, attr = span_name.partition(".")
    fn = tracer._resolve(import_module(f"{tracer.PACKAGE}.{module}"), attr)
    assert callable(fn), span_name
