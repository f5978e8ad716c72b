"""One measuring process: set up a workload, then repeat it for a time budget.

Started by ``run.py`` in a fresh interpreter, so the imports land in the
set-up time.  Prints one JSON line with the raw samples.  With ``--trace 1``
it alternates untraced and traced repeats of the workload, the set-up is
traced too, and the line also carries the per-layer metrics.

Every repeat uses the same inputs, so the result error, the check outcomes
and (when traced) every count-type layer metric must repeat exactly; a
repeat that differs is counted as a failed check.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threadpoolctl_importable":
            importlib.util.find_spec("threadpoolctl") is not None,
    }


def _concat(first, second):
    """Join two span lists, re-pointing the parents of the second."""
    n = len(first)
    return first + [s._replace(parent=s.parent + n) if s.parent >= 0 else s
                    for s in second]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_only: bool = False) -> dict:
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, OUT_DIR)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_traced = time.perf_counter()
    wl.setup()
    t_end = time.perf_counter()
    setup_s = t_end - t0
    if setup_only:
        return {"setup_s": setup_s}

    if tracer is not None:
        tracer.uninstall()
        setup_spans = tracer.take()
        setup_unattributed = (t_end - t_traced) - tracing.root_time(setup_spans)
    wl.prepare()

    walls, cpus, traced_flags = [], [], []
    attempted = failed = 0
    failures = []
    first_error = first_detail = None
    layer_runs, unattributed, first_counts = [], [], None
    start = time.perf_counter()
    while True:
        i = len(walls)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run()
        except Exception:
            traceback.print_exc()
            out = None
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.uninstall()
            spans = tracer.take()
        walls.append(wall)
        cpus.append(cpu)
        traced_flags.append(traced)

        # A repeat that raises, in the run or in its checks, fails them all.
        error, checks, detail = None, dict.fromkeys(wl.check_names, False), {}
        if out is not None:
            try:
                error, checks, detail = wl.evaluate(out)
            except Exception:
                traceback.print_exc()
        if i == 0:
            first_error, first_detail = error, detail
        else:
            checks["result_repeats"] = (error, detail) == (first_error,
                                                           first_detail)
        if traced:
            metrics = tracing.layer_metrics(_concat(setup_spans, spans))
            counts = {k: v for k, v in metrics.items()
                      if tracing.metric_unit(k) == "count"}
            if first_counts is None:
                first_counts = counts
                tracing.write_spans(
                    os.path.join(OUT_DIR, "spans-%s-%d.json" % (workload, seed)),
                    _concat(setup_spans, spans))
            else:
                checks["layer_counts_repeat"] = counts == first_counts
            layer_runs.append(metrics)
            unattributed.append(wall - tracing.root_time(spans))
        for name, ok in checks.items():
            attempted += 1
            if not ok:
                failed += 1
                failures.append("%s (repeat %d)" % (name, i))

        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + wall > seconds:
            break

    untraced = [w for w, t in zip(walls, traced_flags) if not t]
    result = {
        "setup_s": setup_s,
        "wall_s": untraced,
        "cpu_s": [c for c, t in zip(cpus, traced_flags) if not t],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result_error": first_error,
        "result_detail": first_detail,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "environment": _environment(),
    }
    if tracer is not None:
        traced_walls = [w for w, t in zip(walls, traced_flags) if t]
        layers = {k: statistics.median(run[k] for run in layer_runs)
                  for k in layer_runs[0]}
        layers["trace.unattributed_s"] = (setup_unattributed
                                          + statistics.median(unattributed))
        layers["trace.overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(untraced) - 1.0)
        result["layers"] = layers
        result["traced_wall_s"] = traced_walls
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     setup_only=args.setup_only)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
