"""lyapcert benchmark: end-to-end CLI workloads and an outside-in layer trace.

Usage (from the repository root):
  python3 lyapbench/run.py --workload {scenarios,long-trace,certify,all}
      [--seed N] [--seconds S] [--trace 0|1] [--heldout-seed M]

Every pass runs in a fresh single-threaded child process (``worker.py``)
that imports lyapcert from ./src and drives ``lyapcert.cli.main(argv)``.
Passes continue until the workload has used ``--seconds`` of child time
(at least three timed passes); with ``all`` the workloads are interleaved
pass by pass so drift in machine speed spreads evenly over them.

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(median process start to first operation), peak_rss_mb (median ru_maxrss).
Times are scaled to a reference host speed (see worker.REFERENCE_S); the
raw seconds are printed and recorded too.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, including tracing.overhead_s (traced minus untraced wall_s).
Every operation's exit code and artifacts are checked; the last stdout line
is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracing import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".lyapbench")

MIN_PASSES = 3         # timed passes per workload, whatever --seconds says
MIN_TRACED = 2         # traced and untraced passes each, with --trace 1
HARD_LIMIT_S = 165.0   # stop scheduling passes after this long
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(workload, seed, traced, out, timeout):
    """Run one pass in a fresh process; the record, or None if it broke."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--src", SRC, "--trace", str(int(traced))]
    env = dict(os.environ, **CHILD_ENV)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload}: pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - t_spawn
    elapsed = time.perf_counter() - t_spawn
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: pass exited {proc.returncode}\n{stderr[-2000:]}",
              file=sys.stderr)
        return None, elapsed
    rec = json.loads(lines[-1])
    rec["raw_wall_s"] = rec["wall_s"]
    rec["raw_setup_s"] = rec["t_ready"] - t_spawn
    rec["wall_s"] = rec["raw_wall_s"] * rec["scale"]
    rec["setup_s"] = rec["raw_setup_s"] * rec["scale"]
    return rec, elapsed


class Workload:
    """Passes of one workload and the schedule that decides when to stop."""

    def __init__(self, name, seed, seconds, trace):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.out = os.path.join(WORK, name, f"seed{seed}")
        self.passes = []      # worker records
        self.broken = 0       # passes whose process failed
        self.spent = []       # child durations in seconds

    def timed(self, traced):
        return [p for p in self.passes if bool(p["trace"]) == traced]

    def next_kind(self):
        """True/False for a traced/untraced pass to run next, None when done."""
        if self.broken >= 2:
            return None  # give up on a workload whose processes keep failing
        n_plain, n_traced = len(self.timed(False)), len(self.timed(True))
        traced = self.trace and n_traced < n_plain
        if self.trace:
            short = n_plain < MIN_TRACED or n_traced < MIN_TRACED
        else:
            short = n_plain < MIN_PASSES
        if short:
            return traced
        if sum(self.spent) + statistics.median(self.spent) <= self.seconds:
            return traced
        return None


def run_schedule(workloads, deadline):
    """Interleave passes over the workloads until each is done."""
    while True:
        progressed = False
        for w in workloads:
            kind = w.next_kind()
            remaining = deadline - time.perf_counter()
            est = statistics.median(w.spent) if w.spent else 0.0
            if kind is None or (w.spent and remaining < 1.5 * est):
                continue
            rec, elapsed = spawn(w.name, w.seed, kind, w.out, remaining)
            w.spent.append(elapsed)
            if rec is None:
                w.broken += 1
            else:
                w.passes.append(rec)
            progressed = True
        if not progressed:
            return


def summarize(w: Workload, heldout: list) -> dict:
    """Metrics, counts and a printed report for one workload."""
    ops = [o for p in w.passes + heldout if p is not None for o in p["ops"]]
    n_ops = len(workloads.build(w.name, w.seed, w.out))
    attempted = len(ops) + (w.broken + heldout.count(None)) * n_ops
    failed = attempted - sum(o["ok"] for o in ops)
    plain, traced = w.timed(False), w.timed(True)

    print(f"== workload {w.name} seed {w.seed}: {workloads.WHY[w.name]}")
    if w.passes:
        env = w.passes[0]["environment"]
        print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for p in w.passes:
        print(f"  pass trace={p['trace']} wall_s={p['wall_s']:.4f} "
              f"setup_s={p['setup_s']:.4f} maxrss_mb={p['maxrss_mb']:.1f} "
              f"speed={p['speed']:.3f} raw_wall_s={p['raw_wall_s']:.4f} "
              f"raw_setup_s={p['raw_setup_s']:.4f}")
    for o in ops:
        if not o["ok"]:
            print(f"  FAILED {o['op']}: {o['error']}")

    metrics = {}
    if plain:
        metrics["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in plain)
        metrics["peak_rss_mb"] = statistics.median(p["maxrss_mb"] for p in plain)
        walls = sorted(p["wall_s"] for p in plain)
        print(f"wall_s over {len(walls)} passes: min {walls[0]:.4f} "
              f"median {metrics['wall_s']:.4f} max {walls[-1]:.4f} s; unscaled "
              f"median wall {statistics.median(p['raw_wall_s'] for p in plain):.4f} s, "
              f"setup {statistics.median(p['raw_setup_s'] for p in plain):.4f} s")
    for name, unit in END_TO_END_UNITS.items():
        if name in metrics:
            print(f"metric {name} = {metrics[name]:.6g} {unit}")
    print(f"metric fail_ratio = {failed}/{attempted} = "
          f"{failed / attempted if attempted else 1.0:.6g} ratio")
    residuals = {o["op"]: o["v_law_residual"] for o in ops if "v_law_residual" in o}
    if residuals:
        print(f"metric v_law_residual = {max(residuals.values()):.6g} "
              f"(relative to |V_2|; per op: "
              + ", ".join(f"{k} {v:.3g}" for k, v in sorted(residuals.items())) + ")")
    if w.passes:
        first = w.passes[0]["digests"]
        same = all(p["digests"] == first for p in w.passes)
        print(f"artifacts: {len(first)} files, {sum(d['bytes'] for d in first.values())} "
              f"bytes, identical in every pass: {'yes' if same else 'NO'}")

    layers, units = {}, metric_units()
    if traced:
        for name, unit in units.items():
            is_time = unit in ("s", "ns", "us")  # scaled like wall_s
            layers[name] = statistics.median(
                p["layers"][name] * (p["scale"] if is_time else 1.0) for p in traced)
        if plain:
            layers["tracing.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                            - statistics.median(p["wall_s"] for p in plain))
        selfs = {k[:-len(".self_s")]: v for k, v in layers.items()
                 if k.endswith(".self_s")}
        total = sum(selfs.values())
        print(f"self time (scaled like wall_s) over {len(traced)} traced passes "
              f"(total {total:.4f} s, "
              f"tracing overhead {layers.get('tracing.overhead_s', float('nan')):.4f} s):")
        for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if s > 0:
                print(f"  {layer:36s} {s:9.4f} s {100 * s / total:5.1f}%")
        top = max(selfs, key=selfs.get)
        stated = workloads.STATED_DOMINANT[w.name]
        agree = any(top.startswith(p) for p in stated)
        print(f"dominant layer: {top} (stated: {' + '.join(stated)}) -> "
              f"{'agrees' if agree else 'DISAGREES'}")
        for name, unit in units.items():
            print(f"layer {name} = {layers[name]:.6g} {unit}")

    record = {"workload": w.name, "seed": w.seed, "seconds": w.seconds,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "layers": layers, "v_law_residual": residuals,
              "passes": [{k: v for k, v in p.items() if k != "digests"} for p in w.passes],
              "heldout": heldout,
              "digests": w.passes[0]["digests"] if w.passes else {}}
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"record-{w.name}-seed{w.seed}-trace{int(w.trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record (per-pass times, op outcomes, artifact sha256) -> {path}")

    if w.trace:
        reported = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    complete = w.passes and (bool(traced) if w.trace else bool(plain))
    return {"correct": bool(complete) and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": reported}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("scenarios", "long-trace", "certify", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout-seed", type=int, default=None,
                    help="also check one pass per workload on this seed")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lyapcert", "cli.py")):
        print(f"error: no lyapcert sources under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    names = (["scenarios", "long-trace", "certify"] if args.workload == "all"
             else [args.workload])
    ws = [Workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    run_schedule(ws, start + HARD_LIMIT_S)

    heldout = {n: [] for n in names}
    if args.heldout_seed is not None:
        for w in ws:
            out = os.path.join(WORK, w.name, f"seed{args.heldout_seed}")
            rec, _ = spawn(w.name, args.heldout_seed, False, out,
                           start + HARD_LIMIT_S - time.perf_counter())
            heldout[w.name].append(rec)

    results = {w.name: summarize(w, heldout[w.name]) for w in ws}
    if len(ws) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
