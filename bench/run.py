"""Benchmark harness for the conetorsion pipeline.

Run one workload (from the root of a source checkout)::

    python3 bench/run.py --workload sweep-disk3 --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload back to back in this fresh interpreter for
about ``--seconds`` seconds (at least three times) and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced iterations
(at least two of each) and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it start with ``#``.  ``--out FILE`` also
stores the full record (environment, every iteration, every reported value)
under the workload's name in FILE, keeping the other workloads in it.

Compare the reported values of two result files::

    python3 bench/run.py --compare before.json after.json

BLAS and OpenMP are pinned to one thread through the environment before
numpy is first imported, here and in the set-up probes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing    # neither module imports numpy
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3          # one in this process, the rest in fresh probes
MIN_ITERATIONS = 3
MIN_TRACED = 2             # traced iterations in a --trace 1 run
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "print(repr(workloads.setup(sys.argv[3], int(sys.argv[4]))[2]))")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_limits": {v: os.environ[v] for v in THREAD_VARS},
            "commit": git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def same_values(a: dict, b: dict) -> bool:
    """Exact equality, NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        relative_change(a[k], b[k]) == 0 for k in a)


def setup_samples(name: str, seed: int, first: float) -> list:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, BENCH, name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, ct, cfg, seconds: float, tracer=None) -> dict:
    """Closed loop: iterations back to back until the next would overrun.

    With a tracer, iterations alternate untraced and traced, starting
    untraced (the 1-based even iterations are traced), and the loop goes on
    until at least ``MIN_TRACED`` of them are traced.
    """
    walls = {False: [], True: []}
    layers, failed, values = [], [], None
    ops = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.reset()
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            raw = workload.execute(ct, cfg)
            wall = time.perf_counter() - t0
        if traced:
            layers.append(tracer.metrics(wall))
        walls[traced].append(wall)
        out = workload.report(ct, cfg, raw)
        ops += out.ops
        failed += out.failed
        if values is None:
            values = out.values
        else:
            ops += 1
            if not same_values(values, out.values):
                failed.append("values differ from the first iteration")
        n = len(walls[False]) + len(walls[True])
        print(f"# iteration {n}: wall {wall:.4f} s{' traced' if traced else ''}"
              f", {out.ops} ops, {len(out.failed)} failed", flush=True)
        typical = statistics.median(walls[False] + walls[True])
        enough = n >= MIN_ITERATIONS and (
            tracer is None or len(walls[True]) >= MIN_TRACED)
        if enough and time.perf_counter() - start + typical > seconds:
            break
    if len(layers) > 1:
        ops += 1
        exact = tracing.COUNT_METRICS + tracing.RATIO_METRICS
        if any(m[c] != layers[0][c] for m in layers for c in exact):
            failed.append("traced counts differ between iterations")
    return {"walls": walls, "layers": layers, "ops": ops, "failed": failed,
            "values": values}


def layer_metrics(layers: list, walls: dict) -> dict:
    """Median times over the traced iterations; counts and ratios repeat
    exactly, so they are the first traced iteration's."""
    values = {name: statistics.median(m[name] for m in layers)
              if tracing.unit(name) == "s" else layers[0][name]
              for name in layers[0]}
    values["trace.overhead_s"] = (statistics.median(walls[True])
                                  - statistics.median(walls[False]))
    return {name: {"value": values[name], "unit": tracing.unit(name)}
            for name in tracing.PER_LAYER}


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "conetorsion", "__init__.py")):
        print(f"error: no conetorsion sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    ct, cfg, first_setup = workloads.setup(args.workload, args.seed)
    if not os.path.abspath(ct.__file__).startswith(SRC + os.sep):
        print(f"error: imported conetorsion from {ct.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    try:
        setups = setup_samples(args.workload, args.seed, first_setup)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up probe failed: {exc}\n{exc.stderr or ''}",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    print(f"# workload {args.workload} params " + json.dumps(cfg["params"]),
          flush=True)

    tracer = tracing.Tracer() if args.trace else None
    res = measure(workload, ct, cfg, args.seconds, tracer)

    if args.trace:
        metrics = layer_metrics(res["layers"], res["walls"])
    else:
        metrics = {
            "wall_s": statistics.median(res["walls"][False]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for name in res["failed"]:
        print(f"# FAILED {name}", flush=True)
    summary = {"wall_s": quartiles(res["walls"][False]),
               "setup_s": quartiles(setups)}
    if res["walls"][True]:
        summary["traced_wall_s"] = quartiles(res["walls"][True])
    print("# summary " + json.dumps(summary), flush=True)

    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  "params": cfg["params"], "summary": summary,
                  "iterations": {"untraced": res["walls"][False],
                                 "traced": res["walls"][True]},
                  "ops": res["ops"],
                  "failed_ops": res["failed"], "metrics": metrics,
                  "values": res["values"]}
        store = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as f:
                store = json.load(f)
        store[args.workload] = record
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(store, f, indent=1)
    print(json.dumps({"correct": not res["failed"], "attempted": res["ops"],
                      "failed": len(res["failed"]), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def compare(path_a: str, path_b: str) -> int:
    """Print, per workload, the largest relative change of each value."""
    with open(path_a, encoding="utf-8") as f:
        before = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        after = json.load(f)
    for name in sorted(set(before) & set(after)):
        va, vb = before[name]["values"], after[name]["values"]
        print(f"{name}: seed {before[name]['seed']} vs {after[name]['seed']}, "
              f"{len(va)} vs {len(vb)} values")
        groups = {}
        for key in sorted(set(va) | set(vb)):
            change = (relative_change(va[key], vb[key])
                      if key in va and key in vb else math.inf)
            group = re.sub(r"\[[^\]]*\]", "", key)
            groups[group] = max(groups.get(group, 0.0), change)
        for group, change in groups.items():
            print(f"  {group:40s} max relative change {change:.3g}")
        print(f"  {'all values':40s} max relative change "
              f"{max(groups.values(), default=0.0):.3g}")
    for name in sorted(set(before) ^ set(after)):
        print(f"{name}: only in {path_a if name in before else path_b}")
    return 0


def main(argv=None) -> int:
    for var in THREAD_VARS:       # before numpy is imported; probes inherit it
        os.environ[var] = "1"
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file to add this run's record to")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                   help="compare the values of two result files")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
