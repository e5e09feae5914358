#!/usr/bin/env python3
"""Run one modelbench benchmark workload and print its metrics.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
workload's fixed list of operations is run in passes, each on freshly built
inputs, until ``--seconds`` of passes have been measured.  Every verdict is
checked right after its operation, outside the timing.  Human-readable lines come first; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The exit code is 1 on a wrong verdict and 2
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

IMPORT_PROBES = 5       # fresh interpreters timing the imports; median is used
SETUP_ROUNDS = 3        # input builds plus warm-up; median is used
P90_MIN_OPS = 100       # op_p90_ms needs ten samples beyond it in one pass

IMPORTS = ("modelbench.catmodel", "modelbench.lifting", "modelbench.complexes",
           "modelbench.fincat.diagrams")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_seconds():
    """Time of importing the program in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(IMPORTS) + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def environment():
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "modelbench"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    digest.update(f.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_pass(wl, ops, failures, wrong):
    """Run each operation once and check its verdict right after it, outside
    its timing, so no result outlives its check.  Operations without a
    verdict are tallied in `failures` by reason; wrong verdicts are appended
    to `wrong`.  Returns the seconds each operation took."""
    from workloads import WrongVerdict

    gc.collect()
    times = []
    for key, thunk in ops:
        t0 = time.perf_counter()
        try:
            value = thunk()
        except Exception as exc:        # counted in failed_share, not fatal
            times.append(time.perf_counter() - t0)
            failures[type(exc).__name__] += 1
            continue
        times.append(time.perf_counter() - t0)
        try:
            reason = wl.verify(key, value)
        except WrongVerdict as exc:
            wrong.append(f"{key}: {exc}")
            continue
        if reason is not None:
            failures[reason] += 1
    try:
        wl.verify_pass()
    except WrongVerdict as exc:
        wrong.append(str(exc))
    return times


def measure(workload, seed, seconds, trace, limit=None):
    """Set up, run and check one workload.  Returns the result object that
    is printed as JSON and a report with the printed-only figures."""
    import workloads

    spec = load_spec()
    cls = workloads.WORKLOADS[workload]

    imports = statistics.median(import_seconds() for _ in range(IMPORT_PROBES))
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        wl = cls(seed, limit)
        build = time.perf_counter() - t0
        warmup = [op for op in wl.ops if op[0] in cls.WARMUP]
        rounds.append(build + sum(run_pass(wl, warmup, Counter(), [])))
    setup_s = imports + statistics.median(rounds)

    failures, wrong = Counter(), []
    pass_s, op_s, attempted, ops_per_pass = [], [], 0, 0

    def passes(budget, tracer=None):
        nonlocal attempted, ops_per_pass
        elapsed, out = 0.0, []
        while not out or elapsed < budget:
            wl = cls(seed, limit)
            if tracer is not None:
                tracer.install()
            try:
                times = run_pass(wl, wl.ops, failures, wrong)
            finally:
                if tracer is not None:
                    tracer.restore()
            attempted += len(times)
            ops_per_pass = len(times)
            if tracer is None:
                op_s.extend(times)
            out.append(sum(times))
            elapsed += out[-1]
        return out

    layer = None
    if trace:
        from tracing import Tracer

        pass_s = passes(seconds / 2)
        tracer = Tracer(extra_modules=[workloads])
        traced = passes(0, tracer)
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace_overhead"]
        layer = tracer.layer_metrics(names)
        layer["trace_overhead"] = traced[0] / statistics.median(pass_s)
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.dump(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl"),
                    {"workload": workload, "seed": seed, "env": environment()})
    else:
        pass_s = passes(seconds)

    failed = sum(failures.values())
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(pass_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": (layer if trace else values)[m["name"]], "unit": m["unit"]}
               for m in chosen}
    report = {
        "workload": workload, "seed": seed, "passes": len(pass_s), "ops_per_pass": ops_per_pass,
        "op_p90_ms": (statistics.quantiles(op_s, n=10)[-1] * 1e3
                      if ops_per_pass >= P90_MIN_OPS else None),
        "op_samples": len(op_s),
        "failed_share": failed / attempted, "failures": dict(failures), "wrong": wrong,
        "values": values,
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


def print_report(report, result, env):
    v = report["values"]
    print(f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}"
          f"  ops/pass {report['ops_per_pass']}")
    print(f"env python {env['python']}  nproc {env['nproc']}  commit {env['commit']}"
          f"  src {env['src_sha256']}")
    print(f"setup_s       {v['setup_s']:.4f} s")
    print(f"run_s         {v['run_s']:.4f} s")
    print(f"op_p50_ms     {v['op_p50_ms']:.4f} ms")
    if report["op_p90_ms"] is not None:
        print(f"op_p90_ms     {report['op_p90_ms']:.4f} ms"
              f"  ({report['ops_per_pass']} ops per pass, {report['op_samples']} samples)")
    print(f"failed_share  {report['failed_share']:.4f}  ({result['failed']} of"
          f" {result['attempted']}: {report['failures']})")
    print(f"peak_rss_mb   {v['peak_rss_mb']:.1f} MB")
    for line in report["wrong"]:
        print(f"WRONG VERDICT {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "modelbench")):
        print(f"no program to measure: {SRC}/modelbench is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    print_report(report, result, environment())
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
