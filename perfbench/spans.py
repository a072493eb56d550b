"""Per-layer spans for a traced pass, recorded from outside the package.

`install` replaces each public function or method listed in TARGETS by a
wrapper that records a span (name, start, end, parent, pass id).  A module
function is replaced in every orthocount module that binds it, so calls
through imported names (`theta_table` inside `eisenstein`, `short_vectors`
inside `lattice`) are seen as well.  Spans stay in memory until the pass
ends.  Counts that measure work (lattice points, naive tuples, series term
pairs, blockwise cache keys) are taken at the same boundaries: from the
arguments before the call, or from the result after it.

A span's self time is its duration minus the durations of its direct
child spans; a layer's busy time counts only spans with no ancestor of the
same name, so recursion is not counted twice.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("lattice", "density", "eisenstein", "series", "crystal", "valcomb")
SERIES_PRODUCTS = ("series.mul", "series.matmul", "series.mulvec")


def _term_pairs(A, B, tmax):
    """Pairs of nonzero terms of A and B whose t-degrees sum to <= tmax."""
    from orthocount.padic import PINF
    a = np.nonzero(A.pval < PINF)[0]
    b = np.nonzero(B.pval < PINF)[0]
    return int(np.searchsorted(b, tmax - a, side="right").sum())


def _pairs_series(rec, args, kwargs):
    A, B = args
    rec.counts["series.term_pairs"] += _term_pairs(A, B, A.sr.tmax)


def _pairs_matmul(rec, args, kwargs):
    A, B = args
    rec.counts["series.term_pairs"] += sum(
        _term_pairs(A.entries[i][k], B.entries[k][j], A.sr.tmax)
        for i in range(A.dim) for j in range(B.dim) for k in range(A.dim))


def _pairs_mulvec(rec, args, kwargs):
    A, vec = args
    rec.counts["series.term_pairs"] += sum(
        _term_pairs(A.entries[i][k], vec[k], A.sr.tmax)
        for i in range(A.dim) for k in range(A.dim))


def _naive_tuples(rec, args, kwargs):
    ell, L, m, a = args
    rec.counts["density.naive.tuples"] += ell ** (a * L.rank)


def _blockwise_key(rec, args, kwargs):
    ell, L, m, a = args
    rec.keys.add((L, ell, a))


def _points(rec, result):
    rec.counts["lattice.points"] += sum(result)


def _vectors(rec, result):
    rec.counts["lattice.short_vectors.vectors"] += len(result)


# (span name, module, function or Class.method, before-call count, after-call count)
TARGETS = [
    ("lattice.theta", "orthocount.lattice", "theta_table", None, _points),
    ("lattice.short_vectors", "orthocount._enum", "short_vectors", None, _vectors),
    ("lattice.minima", "orthocount.lattice", "successive_minima", None, None),
    ("lattice.det", "orthocount.lattice", "det_and_disc_group", None, None),
    ("lattice.pdiag", "orthocount.lattice", "p_diagonalize", None, None),
    ("density.local", "orthocount.density", "local_density", None, None),
    ("density.blockwise", "orthocount.density", "local_density_blockwise", _blockwise_key, None),
    ("density.naive", "orthocount.density", "local_density_naive", _naive_tuples, None),
    ("density.recursive", "orthocount.density", "local_density_recursive", None, None),
    ("eisenstein.e8_check", "orthocount.eisenstein", "e8_check", None, None),
    ("eisenstein.coeff", "orthocount.eisenstein", "eis_coeff_theta", None, None),
    ("series.mul", "orthocount.series", "TSeries.mul", _pairs_series, None),
    ("series.matmul", "orthocount.series", "TSeriesMatrix.mul", _pairs_matmul, None),
    ("series.mulvec", "orthocount.series", "TSeriesMatrix.mul_vector", _pairs_mulvec, None),
    ("series.sigma", "orthocount.series", "TSeries.sigma_twist", None, None),
    ("series.sigma", "orthocount.series", "TSeriesMatrix.sigma_twist", None, None),
    ("crystal.frobenius", "orthocount.crystal", "frobenius_F", None, None),
    ("crystal.frobenius", "orthocount.crystal", "superspecial_F", None, None),
    ("crystal.finf", "orthocount.crystal", "f_infinity_partial", None, None),
    ("crystal.probe", "orthocount.crystal", "min_tval_at_pval", None, None),
    ("crystal.probe", "orthocount.crystal", "first_nonintegral_order", None, None),
    ("crystal.profile", "orthocount.crystal", "CurveSubstitution.valuation_profile", None, None),
    ("crystal.basis", "orthocount.crystal", "integral_basis_matrix", None, None),
    ("valcomb.min_set", "orthocount.valcomb", "min_set", None, None),
    ("valcomb.verify", "orthocount.valcomb", "verify_minval", None, None),
    ("valcomb.predicted_index", "orthocount.valcomb", "predicted_index", None, None),
    ("valcomb.ssp_min", "orthocount.valcomb", "ssp_min_valuation", None, None),
]


class Recorder:
    """Spans and counts of one traced pass."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.keys = set()      # distinct (lattice, ell, depth) blockwise arguments
        self.active = False
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(rec, args, kwargs)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if after is not None:
                after(rec, result)
            return result

        return traced

    def write(self, path, workload, seed):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"workload": workload, "seed": seed, "pass": self.pass_id,
                                     "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def install(rec):
    """Wrap every TARGETS entry; the wrappers record while `rec.active`."""
    for name, modname, attr, before, after in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, cls.__dict__[meth], before, after))
            continue
        orig = getattr(mod, attr)
        wrapped = rec.wrap(name, orig, before, after)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "orthocount":
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapped)


def _sum_durations(spans, idxs):
    return sum(spans[i][2] - spans[i][1] for i in idxs)


def layer_metrics(rec, wall_s):
    """Per-layer metrics of one traced pass (wall_s: its traced wall time)."""
    spans = rec.spans
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)

    def has_ancestor(i, pred):
        j = spans[i][3]
        while j >= 0:
            if pred(spans[j][0]):
                return True
            j = spans[j][3]
        return False

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def busy(names):
        names = set(names)
        return _sum_durations(spans, [i for i, s in enumerate(spans) if s[0] in names
                                      and not has_ancestor(i, names.__contains__)])

    def self_time(pred):
        return sum(spans[i][2] - spans[i][1] - _sum_durations(spans, children[i])
                   for i, s in enumerate(spans) if pred(s[0]))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time(lambda n, p=layer + ".": n.startswith(p))
    c = rec.counts
    theta_busy = busy(["lattice.theta"])
    naive_busy = busy(["density.naive"])
    blockwise_calls = calls("density.blockwise")
    out.update({
        "lattice.theta.calls": calls("lattice.theta"),
        "lattice.theta.busy_s": theta_busy,
        "lattice.points": c["lattice.points"],
        "lattice.points_per_s": rate(c["lattice.points"], theta_busy),
        "lattice.short_vectors.calls": calls("lattice.short_vectors"),
        "lattice.short_vectors.busy_s": busy(["lattice.short_vectors"]),
        "lattice.short_vectors.vectors": c["lattice.short_vectors.vectors"],
        "density.blockwise.calls": blockwise_calls,
        "density.blockwise.busy_s": busy(["density.blockwise"]),
        "density.blockwise.keys": len(rec.keys),
        "density.blockwise.reuse": rate(blockwise_calls, len(rec.keys)),
        "density.naive.calls": calls("density.naive"),
        "density.naive.busy_s": naive_busy,
        "density.naive.tuples": c["density.naive.tuples"],
        "density.naive.tuples_per_s": rate(c["density.naive.tuples"], naive_busy),
        "density.recursive.calls": calls("density.recursive"),
        "density.recursive.busy_s": busy(["density.recursive"]),
        "eisenstein.coeff.calls": calls("eisenstein.coeff"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.busy_s": busy(["series.mul"]),
        "series.term_pairs": c["series.term_pairs"],
        "series.term_pairs_per_s": rate(c["series.term_pairs"], busy(SERIES_PRODUCTS)),
        "series.matmul.calls": calls("series.matmul"),
        "series.matmul.self_s": self_time("series.matmul".__eq__),
        "series.sigma.calls": calls("series.sigma"),
        "series.sigma.busy_s": busy(["series.sigma"]),
        "crystal.frobenius.busy_s": busy(["crystal.frobenius"]),
        "crystal.finf.self_s": self_time("crystal.finf".__eq__),
        "crystal.probe.busy_s": busy(["crystal.probe"]),
        "valcomb.min_set.calls": calls("valcomb.min_set"),
        "valcomb.min_set.busy_s": busy(["valcomb.min_set"]),
        "valcomb.verify.self_s": self_time("valcomb.verify".__eq__),
        "valcomb.predicted_index.calls": calls("valcomb.predicted_index"),
        "valcomb.predicted_index.busy_s": busy(["valcomb.predicted_index"]),
        "trace.wall_s": wall_s,
        "trace.coverage": rate(_sum_durations(spans, [i for i, s in enumerate(spans)
                                                      if s[3] < 0]), wall_s),
    })
    return out


# Exact counts: they must repeat across two runs with the same seed.
EXACT_COUNTS = [
    "lattice.theta.calls", "lattice.points", "lattice.short_vectors.calls",
    "lattice.short_vectors.vectors", "density.blockwise.calls", "density.blockwise.keys",
    "density.naive.calls", "density.naive.tuples", "density.recursive.calls",
    "eisenstein.coeff.calls", "series.mul.calls", "series.term_pairs",
    "series.matmul.calls", "series.sigma.calls", "valcomb.min_set.calls",
    "valcomb.predicted_index.calls",
]


def claims(workload, m):
    """The layer each workload claims to stress, as (statement, holds) pairs."""
    wall = m["trace.wall_s"]
    selfs = {layer: m[f"{layer}.self_s"] for layer in LAYERS}
    largest = max(selfs, key=selfs.get)
    if workload == "theta_e8":
        return [("lattice.theta.busy_s >= 90% of traced wall",
                 m["lattice.theta.busy_s"] >= 0.9 * wall)]
    if workload == "crystal_decay":
        return [("lattice and density record zero calls",
                 m["lattice.theta.calls"] == m["lattice.short_vectors.calls"] == 0
                 and m["density.blockwise.calls"] == m["density.naive.calls"]
                 == m["density.recursive.calls"] == 0
                 and selfs["lattice"] == selfs["density"] == 0),
                ("series is the largest layer", largest == "series"),
                ("valcomb self time >= 5% of traced wall", selfs["valcomb"] >= 0.05 * wall)]
    if workload == "density_eis":
        return [("density is the largest layer", largest == "density"),
                ("lattice.theta.calls >= 100", m["lattice.theta.calls"] >= 100)]
    return []
