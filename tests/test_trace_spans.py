"""The traced benchmark (perfbench/spans.py) must keep working on the series
layer: it wraps methods through each class's own __dict__ and counts term
pairs from `entries` and the vector argument of `mul_vector`.

`spans.install` patches classes for the whole process, so the run happens in
a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import orthocount

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import importlib
import time
import spans
from orthocount import crystal, series

for name, modname, attr, before, after in spans.TARGETS:
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(importlib.import_module(modname), cls_name)
        assert meth in cls.__dict__, attr + " is not defined in its own class body"

ring = crystal.superspecial_ring(5, 8)
sr = series.SeriesRing(ring, 60)
exps = {"x1": 1, "y1": 1, "x2": 3, "y2": 2}
units = {"x1": ring.gen(), "y1": 1,
         "x2": ring.teichmuller_unit(3), "y2": ring.teichmuller_unit(7)}
coords = crystal.monomial_substitution(sr, "superspecial", 1, 2, exps, units=units)
_, sinv = crystal.ssp_s0prime(ring)

rec = spans.Recorder(0)
spans.install(rec)
rec.active = True
t0 = time.perf_counter()
coords.r_series()
F = crystal.superspecial_F(coords)
finf = crystal.f_infinity_partial(F, 3)  # 5^3 > 60
basis = crystal.integral_basis_matrix(sr, sinv, 1, 2 * coords.m)
probe = crystal.first_nonintegral_order(finf, [1, 0, 0, 0, 0, 0], 0, basis, range(6))
m = spans.layer_metrics(rec, time.perf_counter() - t0)
rec.active = False
assert probe.status == "detected", probe
assert m["series.term_pairs"] > 0, m
for name in ("series.mul.calls", "series.matmul.calls", "series.sigma.calls"):
    assert m[name] > 0, (name, m)
assert {s[0] for s in rec.spans} >= {"series.mulvec", "crystal.finf", "crystal.probe"}
"""


def test_traced_series_layer_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(orthocount.__file__)), str(ROOT / "perfbench")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    r = subprocess.run([sys.executable, "-c", CODE], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
