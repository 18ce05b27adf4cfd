"""One pass of one workload, in a fresh process started by ``run.py``.

Usage: python3 lyapbench/worker.py --workload NAME --seed N --out DIR
       --src SRC_DIR [--trace 0|1]

Imports lyapcert from SRC_DIR, builds the workload's operations, runs them
in process through ``lyapcert.cli.main(argv)`` and then checks every
outcome.  Prints one JSON object on stdout: the ready time (for setup_s),
the pass wall time, per-op outcomes, artifact digests, ru_maxrss and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads

_TAIL = 4096
# The host speed of a pass is REFERENCE_S over the median time of
# ``calibrate()`` in that pass.  On a shared machine the speed of identical
# code drifts by up to 2x over minutes; the kernel, timed between the ops of
# each pass, tracks that drift (0.011 to 0.022 s on the 2-CPU machine the
# bounds in BENCHMARK.json were set on).  The workloads follow it less than
# one for one (pass time ~ speed^-beta, beta about 0.6 to 0.8 in runs over
# two hours there), so times are reported as raw seconds * speed^beta.
REFERENCE_S = 0.02
HOST_SENSITIVITY = 0.7


class Sink(io.TextIOBase):
    """Stands in for stdout/stderr: counts characters, keeps the tail."""

    def __init__(self):
        self.chars = 0
        self.mark = 0  # ``chars`` when the current op started
        self.tail = ""

    def writable(self):
        return True

    def write(self, s):
        self.chars += len(s)
        self.tail = (self.tail + s[-_TAIL:])[-_TAIL:]
        return len(s)


def digests(root: str) -> dict:
    """sha256 and byte count of every file under ``root``, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            out[os.path.relpath(p, root)] = {"sha256": h.hexdigest(),
                                             "bytes": os.path.getsize(p)}
    return dict(sorted(out.items()))


def environment() -> dict:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def calibrate() -> float:
    """Seconds for a fixed reference kernel in the workloads' style: a per-step
    numpy recurrence on 100 coordinates and 17-digit float formatting."""
    a, b = np.full(100, 1.0), np.full(100, -1.0)  # period-6 rotation, no underflow
    x, y = np.linspace(1.0, 2.0, 100), np.ones(100)
    t0 = time.perf_counter()
    for _ in range(1600):
        x, y = a * x + b * y, x
        float(np.sum(x * x))
    ",".join(f"{v:.17g}" for v in np.linspace(0.0, 1.0, 4000))
    return time.perf_counter() - t0


def run_ops(ops, main, sink, err, tracer=None, calib=None) -> list:
    """Run each op through ``main`` with stdout/stderr redirected; return
    (exit code or None, error text, seconds, stdout tail) per op.  When
    ``calib`` is a list, the reference kernel's time before each op and after
    the last is appended to it."""
    results = []
    for i, op in enumerate(ops):
        if calib is not None:
            calib.append(calibrate())
        if tracer is not None:
            tracer.op = i
        sink.tail, err.tail, sink.mark = "", "", sink.chars
        error = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            error = err.tail
        except Exception:
            code = None
            error = traceback.format_exc(limit=3)
        results.append((code, error, time.perf_counter() - t0, sink.tail))
    if calib is not None:
        calib.append(calibrate())
    return results


def judge(ops, results) -> list:
    """Outcome of every op: exit code as expected and artifacts check out."""
    outcomes = []
    for op, (code, error, seconds, tail) in zip(ops, results):
        try:
            expect = op.expect_exit() if callable(op.expect_exit) else op.expect_exit
            ok = code == expect
            if not ok:
                error = error or f"exit {code}, expected {expect}"
            elif op.check is not None:
                op.check(tail)
        except (ValueError, OSError, KeyError) as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
        outcomes.append({"op": op.name, "ok": ok, "exit": code,
                         "seconds": seconds, "error": error[-400:], **op.facts})
    return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import lyapcert
    import lyapcert.cli
    import lyapcert.scenarios

    if not os.path.abspath(lyapcert.__file__).startswith(os.path.abspath(args.src)):
        print(f"lyapcert imported from {lyapcert.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.out)
    os.makedirs(args.out, exist_ok=True)
    sink, err = Sink(), Sink()
    main_fn, tracer = lyapcert.cli.main, None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, lyapcert.cli, lyapcert.scenarios,
                        lyapcert.QuadraticProblem)
        main_fn = tracer.wrap("cli.main", main_fn, lambda a, k, r: {
            "stdout_bytes": sink.chars - sink.mark})

    calib = []
    t_ready = time.perf_counter()
    results = run_ops(ops, main_fn, sink, err, tracer, calib)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "t_ready": t_ready, "wall_s": sum(r[2] for r in results),
        "calib_s": calib, "speed": REFERENCE_S / statistics.median(calib),
        "scale": (REFERENCE_S / statistics.median(calib)) ** HOST_SENSITIVITY,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "stdout_bytes": sink.chars,
    }
    record["ops"] = judge(ops, results)
    record["digests"] = digests(args.out)
    record["environment"] = environment()
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer.spans)
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
