"""Every ``src`` function (``module.qualname``) is called by a CLI request or
allowed with a reason; an allowed name gone or reached fails too.  A fresh
interpreter profiles from before ``import cybundle`` through the golden argv,
a p1 N = 20 json survey and a discriminant sweep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cybundle
from test_golden import CASES

# one reason per name; "acceptance" means tests/test_acceptance.py calls it
ALLOWED_UNREACHED = {
    "_value.Frozen.__delattr__": "error path: deleting a field of a frozen record",
    "_value.Frozen.__hash__": "value protocol",
    "_value.Frozen.__setattr__": "error path: assigning to a frozen record",
    "_value.Record.__reduce__": "value protocol: pickle and copy",
    "_value.Record.__repr__": "value protocol",
    "chow.BundleSpec.from_chern": "acceptance: criterion 8",
    "chow.ChowClass.__eq__": "value protocol",
    "chow.ChowClass.__hash__": "value protocol",
    "chow.intersection_numbers_by_reduction": "acceptance: criterion 1",
    "cli._discard_stdout": "error path: a stdout that cannot be written",
    "cohomology.SplitBundle.dual": "reserved for ROADMAP V",
    "cohomology.euler_characteristic": "reserved for ROADMAP V",
    "cohomology.line_cohomology": "reserved for ROADMAP V",
    "discriminant.Octic.__init__": "value protocol: the validating constructor",
    "discriminant.base_locus_expected": "acceptance: criterion 11",
    "invariants.euler_characteristic_rank2_p3": "acceptance: criterion 7",
    "invariants.h0_split": "acceptance: criterion 7",
    "ratpoly.MultiPoly.__hash__": "value protocol: Octic and QuadraticSection hash",
    "ratpoly.MultiPoly.__repr__": "value protocol: Octic and QuadraticSection repr",
    "ratpoly.UniPoly.__eq__": "value protocol",
    "ratpoly.UniPoly.__hash__": "value protocol",
    "ratpoly.UniPoly.__init__": "acceptance: criterion 12",
    "ratpoly.UniPoly.__sub__": "acceptance: criterion 12",
    "ratpoly._divide_linear": "acceptance: criterion 9 plants nonzero rational roots",
}

CHILD = r"""
import contextlib, io, json, sys
seen = set()
sys.setprofile(lambda frame, event, arg: event == "call" and seen.add(frame.f_code))
import cybundle.cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cybundle.cli.main(argv)
sys.setprofile(None)
names = {}
for modname, mod in sorted(sys.modules.items()):
    for name, obj in vars(mod).items() if modname.startswith("cybundle.") else ():
        for attr, f in vars(obj).items() if isinstance(obj, type) else [("", obj)]:
            code = getattr(getattr(f, "__func__", getattr(f, "fget", f)), "__code__", None)
            if code is not None and code.co_filename == mod.__file__:
                names.setdefault(code, ".".join(filter(None, (modname[9:], name, attr))))
json.dump([sorted(names.values()), [n for c, n in names.items() if c not in seen]], sys.stdout)
"""


def test_every_src_function_reached_or_allowed(tmp_path):
    argvs = [argv for _, argv, _ in CASES] + [
        ["enumerate", "--base", "p1", "--max-degree", "20", "--out", str(tmp_path / "s.json")]]
    argvs += [["discriminant", "--degrees", f"0,{b}", "--seed", str(seed), "--bound", bound]
              for b in range(5) for seed in (0, 1) for bound in ("2", "1000")]
    env = dict(os.environ, PYTHONPATH=str(Path(cybundle.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env,
                         capture_output=True, text=True, check=True).stdout
    defined, unreached = map(set, json.loads(out))
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == [], "delete it, or allow it"
    assert sorted(set(ALLOWED_UNREACHED) - defined) == [], "allowed but gone"
    assert sorted(set(ALLOWED_UNREACHED) - unreached) == [], "allowed but reached"
