"""One timed pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 \
        --pass-id K --t0 T --out DIR

`--t0` is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s covers
interpreter start, importing orthocount and building the inputs.  The pass
starts with every cache cold, as a command-line user's run does.  Prints
one JSON line: setup_s, wall_s, cpu_s, the wall and CPU seconds of each
task, peak_rss_mb, attempted, failed, a few failure messages and, when traced, the per-layer metrics.  A traced
pass writes its spans to DIR/spans-W-S-K.jsonl.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    tasks = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0

    rec = None
    if args.trace:
        rec = spans.Recorder(args.pass_id)
        spans.install(rec)
        rec.active = True
    results = []
    task_wall, task_cpu = [], []
    c0, w0 = time.process_time(), time.perf_counter()
    for task in tasks:
        tc, tw = time.process_time(), time.perf_counter()
        try:
            results.append((True, task.run()))
        except Exception as exc:  # an item that raises counts as failed
            results.append((False, f"{task.label}: {exc!r}"))
        task_wall.append(time.perf_counter() - tw)
        task_cpu.append(time.process_time() - tc)
    wall_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        rec.active = False

    attempted = failed = 0
    failures = []
    for task, (ran, res) in zip(tasks, results):
        attempted += task.items
        oks, why = [False] * task.items, res
        if ran:
            try:
                oks = list(task.check(res))
                why = f"{task.label}: {oks.count(False)} of {task.items} items disagree"
            except Exception as exc:
                oks, why = [False] * task.items, f"{task.label}: check raised {exc!r}"
        if len(oks) != task.items:
            oks, why = [False] * task.items, f"{task.label}: oracle returned {len(oks)} results"
        if not all(oks):
            failed += oks.count(False)
            failures.append(why)

    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "task_wall_s": task_wall, "task_cpu_s": task_cpu,
           "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed,
           "failures": failures[:5],
           "notes": sorted({t.note: sum(u.note == t.note for u in tasks) for t in tasks if t.note}.items())}
    if rec is not None:
        out["layers"] = spans.layer_metrics(rec, wall_s)
        os.makedirs(args.out, exist_ok=True)
        rec.write(os.path.join(args.out, f"spans-{args.workload}-{args.seed}-{args.pass_id}.jsonl"),
                  args.workload, args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
