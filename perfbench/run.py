#!/usr/bin/env python3
"""layerforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {construct,sweep,oracle,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a repository checkout; the library is imported from
its ``src/`` directory.  The run measures import plus set-up (the set-up
repeated, median reported), then drives the workload's ops in a closed
loop with one client over a fixed number of whole op blocks (about S
seconds on the machine of NOTES.md, the same ops for the same seed and S),
checks every op's output, and prints one line per metric followed by a JSON
object as the last line of standard output.

With ``--trace 0`` the JSON holds the end-to-end metrics.  With
``--trace 1`` the run measures the first half of its time untraced, then
installs the span wrappers (perfbench/trace.py) and replays the same ops
traced; the JSON holds the per-layer self times and counters per op, the
set-up's layer times, the unattributed remainder and the tracing overhead.
Each run also writes its environment, per-op records and (traced) spans
under perfbench/results/.  ``--workload all`` runs the three workloads one
after another, each in a process of its own.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
#: BLAS pools are capped at one thread unless the caller sets a cap
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("construct", "sweep", "oracle")
#: end-to-end metrics of an untraced run and their units
END_TO_END = {"setup_s": "s", "op_s.p50": "s", "op_s.p90": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import layerforge; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy
    from layerforge import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_use_numba": bool(kernels.USE_NUMBA),
        "LAYERFORGE_THREADS": os.environ.get("LAYERFORGE_THREADS", "unset (1)"),
        "LAYERFORGE_NUMBA": os.environ.get("LAYERFORGE_NUMBA", "unset (auto)"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def measure_import() -> float:
    """Median time to import layerforge in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran around the measurement (diagnostic only, never applied to
    the metrics)."""
    times = []
    for _ in range(5):
        t = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(perf_counter() - t)
    return statistics.median(times)


class Op:
    """Outcome of one op: latency, status and what the op was."""

    __slots__ = ("latency", "status", "label", "detail")

    def __init__(self, latency, status, label, detail=""):
        self.latency = latency
        self.status = status    # ok | expected-failure | error | wrong
        self.label = label
        self.detail = detail


def run_ops(wl, state, const, blocks, tracer=None, first_id=0):
    """Closed loop over every op of `blocks`, one at a time."""
    ops = []
    for block in blocks:
        for item in block:
            gc.collect()
            op_id = first_id + len(ops)
            exc = out = None
            t = perf_counter()
            try:
                if tracer is None:
                    out = wl.run(state, item)
                else:
                    out = tracer.run("op", op_id, wl.run, state, item)
            except Exception as err:  # the loop must survive any op
                exc = err
            latency = perf_counter() - t
            label = wl.describe(item)
            if exc is None:
                bad = wl.check(state, const, item, out)
                ops.append(Op(latency, "wrong" if bad else "ok", label,
                              "; ".join(bad)))
            elif wl.expected_failure(item, exc):
                ops.append(Op(latency, "expected-failure", label,
                              type(exc).__name__))
            else:
                traceback.print_exception(exc, file=sys.stderr)
                ops.append(Op(latency, "error", label,
                              f"{type(exc).__name__}: {exc}"))
            del out
    return ops


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  With
    a few dozen ops it is steadier than interpolating between the two
    order statistics next to the percentile."""
    # numpy is imported only once main() has set the BLAS thread caps
    import numpy as np
    from scipy.stats import beta

    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), q / 100.0
    if n == 1:
        return float(x[0])
    cdf = beta.cdf(np.arange(n + 1) / n, (n + 1) * p, (n + 1) * (1.0 - p))
    return float(np.dot(np.diff(cdf), x))


def op_summary(ops) -> dict:
    lat = [o.latency for o in ops]
    p90 = percentile(lat, 90)
    failed = sum(o.status != "ok" for o in ops)
    by_label = {}
    for o in ops:
        by_label.setdefault(o.label, []).append(o.latency)
    return {
        "attempted": len(ops),
        "failed": failed,
        "expected_failures": sum(o.status == "expected-failure" for o in ops),
        "errors": sum(o.status == "error" for o in ops),
        "wrong": sum(o.status == "wrong" for o in ops),
        "p50": percentile(lat, 50),
        "p90": p90,
        "beyond_p90": sum(x > p90 for x in lat),
        "ops_per_s": len(ops) / sum(lat),
        "error_rate": failed / len(ops),
        "by_label": {k: {"n": len(v), "p50": percentile(v, 50)}
                     for k, v in sorted(by_label.items())},
    }


def per_layer_metrics(tracer, op_ids, n_ops, overhead) -> dict:
    from perfbench import trace

    ops = tracer.summary(op_ids)
    setup = tracer.summary(["setup"])
    metrics = {}
    for layer in trace.TIMED_LAYERS:
        metrics[f"{layer}_s"] = (ops["self_s"].get(layer, 0.0) / n_ops, "s/op")
    for name, (layer, key, unit) in trace.COUNTERS.items():
        metrics[name] = (trace.counter_value(ops, layer, key) / n_ops, unit)
    metrics["op.unattributed_s"] = (ops["self_s"].get("op", 0.0) / n_ops,
                                    "s/op")
    metrics["trace.overhead_s"] = (overhead, "s")
    for layer in trace.TIMED_LAYERS:
        metrics[f"setup.{layer}_s"] = (setup["self_s"].get(layer, 0.0), "s")
    metrics["setup.unattributed_s"] = (setup["self_s"].get("setup", 0.0), "s")
    return metrics


def run_every_workload(args) -> int:
    """Run each workload in a process of its own, one after another, and
    end with one JSON object whose metrics are prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", f"{args.seconds:g}", "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "layerforge" / "__init__.py").is_file():
        print(f"perfbench: no layerforge sources under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_every_workload(args)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")

    import_s = measure_import()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import layerforge
    if Path(layerforge.__file__).resolve().parent != SRC / "layerforge":
        print(f"perfbench: imported layerforge from {layerforge.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import trace, workloads

    wl = workloads.WORKLOADS[args.workload]()
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None    # free the last set-up, so peak RSS holds only one
        gc.collect()
        t = perf_counter()
        state = wl.setup()
        setup_times.append(perf_counter() - t)
    const = wl.fit(state)
    # the set-up lives for the whole run; keep the collector off it so the
    # collection before each op stays cheap
    gc.collect()
    gc.freeze()
    env = environment()
    calibration = [calibrate()]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        blocks = workloads.plan(wl, args.seed, args.seconds / 2.0, min_ops=0)
        untraced = run_ops(wl, state, const, blocks)
        tracer = trace.Tracer()
        tracer.install()
        try:
            tracer.run("setup", "setup", wl.setup)
            traced = run_ops(wl, state, const, blocks, tracer,
                             first_id=len(untraced))
        finally:
            tracer.uninstall()
        ops = untraced + traced
        base, summary = op_summary(untraced), op_summary(traced)
        overhead = summary["p50"] - base["p50"]
        op_ids = range(len(untraced), len(ops))
        metrics = per_layer_metrics(tracer, op_ids, len(traced), overhead)
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
        wall = sum(o.latency for o in traced) / len(traced)
        layers = sum(v for k, (v, u) in metrics.items() if u == "s/op")
        print(f"traced {len(traced)} ops: op_s.p50 untraced {base['p50']:.6f} s, "
              f"traced {summary['p50']:.6f} s, overhead {overhead:.6f} s; "
              f"layer self times plus remainder {layers:.6f} s/op of "
              f"{wall:.6f} s/op op wall time")
    else:
        ops = run_ops(wl, state, const,
                      workloads.plan(wl, args.seed, args.seconds))
        summary = op_summary(ops)
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s.p50": summary["p50"],
            "op_s.p90": summary["p90"],
            "ops_per_s": summary["ops_per_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}

    calibration.append(calibrate())
    total = op_summary(ops)
    print(f"import_s {import_s:.6f} s; set-up runs "
          + ", ".join(f"{t:.6f}" for t in setup_times) + " s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops {total['attempted']}, p90 has {summary['beyond_p90']} beyond; "
          "calibration loop before/after "
          + "/".join(f"{c * 1e3:.2f}" for c in calibration) + " ms")
    print(f"error_rate {total['error_rate']:.6g} ratio ({total['failed']} failed"
          f" / {total['attempted']} attempted: {total['expected_failures']} "
          f"expected typed failures, {total['errors']} other errors, "
          f"{total['wrong']} failed checks)")
    for label, row in total["by_label"].items():
        print(f"  {label}: n={row['n']} p50={row['p50']:.6f} s")
    for o in ops:
        if o.status in ("error", "wrong"):
            print(f"  {o.status} [{o.label}]: {o.detail}")

    correct = total["errors"] == 0 and total["wrong"] == 0
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "import_s": import_s, "setup_runs_s": setup_times,
              "calibration_s": calibration,
              "constants": const, "summary": total,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "ops": [(o.label, o.status, o.latency, o.detail) for o in ops]}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": total["attempted"],
        "failed": total["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
