"""orthocount benchmark: one workload, one seed, a closed loop of timed passes.

    python3 perfbench/run.py --workload crystal_decay --seed 1 --seconds 60 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  Workloads: theta_e8, crystal_decay, density_eis (README.md
says why each exists).  A single caller runs one pass after another, each
in a fresh Python process, for about --seconds (at least MIN_PASSES
untraced passes).  With --trace 0 it reports the end-to-end
metrics (timings as the sum of each task's best time, setup and memory as
medians; the median pass is printed too); with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones.

Every item is checked against an oracle; the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}, and the
exit code is 1 when any item failed or a pass crashed.  Run records and
spans go to perfbench/out/.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3
BUDGET_S = 170  # a run ends well within 180 s

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB")]


class PassFailed(RuntimeError):
    pass


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def speed_probe():
    """Best of five timings of a fixed pure-Python loop, in seconds.

    loadavg sees only this machine's own processes; on a shared host the
    probe also shows a neighbour that slows the processor down.  It is
    reported beside the metrics and never used to scale them."""
    best = float("inf")
    for _ in range(5):
        t0, acc = time.perf_counter(), 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def fingerprint():
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "probe_s_start": speed_probe(),
    }


def run_pass(args, traced, pass_id, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--pass-id", str(pass_id),
           "--out", str(OUT)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {pass_id} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_id} exited {proc.returncode}: {proc.stderr[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec.update(traced=traced, pass_id=pass_id, elapsed_s=time.monotonic() - t0)
    return rec


def run_passes(args):
    """Closed loop: the next pass starts when the previous one has finished.

    Once there are enough passes, a pass starts only if it is expected to
    end within half a pass of --seconds, so a run lasts about --seconds."""
    start = time.monotonic()
    passes = []
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(not p["traced"] for p in passes)
        traced = len(passes) - untraced
        enough = untraced >= (1 if args.trace else MIN_PASSES) and traced >= args.trace
        typical = statistics.median(p["elapsed_s"] for p in passes) if passes else 0.0
        if enough and elapsed + typical / 2 >= args.seconds:
            break
        longest = max((p["elapsed_s"] for p in passes), default=0.0)
        if enough and elapsed + longest > BUDGET_S - 10:
            break
        want_traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args, want_traced, len(passes), BUDGET_S - elapsed))
    return passes


def end_to_end(passes):
    """End-to-end metrics of the untraced passes, and their sample count.

    wall_s and cpu_s are the sum over the workload's tasks of each task's
    fastest time in the run's passes: an estimate of one pass that no other
    tenant slowed down.  On a shared machine other tenants only ever slow
    code down, in phases of seconds to minutes, so a task's best time is
    steadier from run to run than a pass's median, and summing per task
    uses the fast phases that fall inside every pass (README.md).  Every
    pass runs the tasks in the same order from a cold start, so a task's
    times in different passes are comparable.  setup_s and peak_rss_mb are
    medians over the passes."""
    untraced = [p for p in passes if not p["traced"]]
    med = lambda key: statistics.median(p[key] for p in untraced)
    best_sum = lambda key: sum(map(min, zip(*(p[key] for p in untraced))))
    verified = statistics.median(p["attempted"] - p["failed"] for p in untraced)
    best = {"setup_s": med("setup_s"), "wall_s": best_sum("task_wall_s"),
            "cpu_s": best_sum("task_cpu_s"), "peak_rss_mb": med("peak_rss_mb")}
    best["items_per_s"] = verified / best["wall_s"]
    median = {"setup_s": best["setup_s"], "wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
              "items_per_s": verified / med("wall_s"), "peak_rss_mb": best["peak_rss_mb"]}
    return best, median, len(untraced)


def per_layer(passes):
    traced = [p["layers"] for p in passes if p["traced"]]
    out = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    out["trace.overhead_s"] = (min(p["wall_s"] for p in passes if p["traced"])
                               - min(p["wall_s"] for p in passes if not p["traced"]))
    return out, len(traced)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "orthocount" / "__init__.py").is_file():
        sys.exit(f"error: no orthocount sources under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")

    env = fingerprint()
    try:
        passes = run_passes(args)
    except PassFailed as exc:
        sys.exit(f"error: {exc}")
    env["loadavg_end"] = list(os.getloadavg())
    env["probe_s_end"] = speed_probe()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for msg in p["failures"]:
            print(f"FAILED pass {p['pass_id']}: {msg}")
    e2e, e2e_median, n_untraced = end_to_end(passes)
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{n_untraced} untraced; each in a fresh process, single closed-loop caller")
    for name, unit in END_TO_END:
        how = "median" if name in ("setup_s", "peak_rss_mb") else "per-task best"
        print(f"  {name:<14} {e2e[name]:12.4f} {unit:<4} {how} of {n_untraced}; "
              f"median pass {e2e_median[name]:.4f}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f}      {failed} of {attempted} items")
    for note, count in passes[0]["notes"]:
        print(f"  note: {count} {note}")

    if args.trace:
        layers, n_traced = per_layer(passes)
        for name in sorted(layers):
            print(f"  {name:<32} {layers[name]:14.6g}  median of {n_traced} traced")
        import spans
        for text, holds in spans.claims(args.workload, layers):
            print(f"  claim [{'holds' if holds else 'FAILS'}] {text}")
        metrics = layers
    else:
        metrics = e2e

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": passes, "metrics": metrics}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    correct = failed == 0
    units = dict(END_TO_END)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units.get(k) or layer_unit(k)}
                                  for k, v in metrics.items()}}))
    sys.exit(0 if correct else 1)


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name in ("trace.coverage", "density.blockwise.reuse"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
