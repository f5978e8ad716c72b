"""Benchmark of anosovlab: one workload, one seed, one time budget.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corr-exact --seed 1 --seconds 40 --trace 0

The package is not installed; its sources are put on ``PYTHONPATH``.  Each
workload runs in fresh interpreters, one after another, single-threaded
(``OMP_NUM_THREADS=1``, ``OPENBLAS_NUM_THREADS=1``):

* with ``--trace 0``, a few set-up-only processes sample ``setup_s``, then
  one measuring process repeats the workload for ``--seconds`` and reports
  the end-to-end metrics;
* with ``--trace 1``, the measuring process alternates untraced and traced
  repeats and reports the per-layer metrics instead.

The last line of standard output is the result object; the line before it
records the machine, versions, thread settings, seed and raw samples.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("corr-exact", "perturbed-edges", "fig2-exact")
SETUP_PROBES = 2           # set-up-only processes per untraced run
TIME_LIMIT_S = 170.0       # whole run, set-up probes included
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "result_error": "1", "pass_frac": "1",
}


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def _call_worker(args, deadline) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the measuring process")
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              env=_worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker failed with exit code %d" % proc.returncode)
    return json.loads(lines[-1])


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_sha": _git_sha(), "src_sha256": _src_digest()}


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _src_digest() -> str:
    """sha256 over the package sources, which identifies them without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "anosovlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run(workload: str, seed: int, seconds: int, trace: bool):
    """Returns (record, result): the provenance line and the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_call_worker(base + ["--setup-only"],
                                       deadline)["setup_s"])
    raw = _call_worker(base + ["--seconds", str(seconds),
                               "--trace", str(int(trace))], deadline)
    setups.append(raw["setup_s"])

    if trace:
        import tracer

        metrics = {name: {"value": raw["layers"][name],
                          "unit": tracer.metric_unit(name)}
                   for name in tracer.metric_names()}
    else:
        error = raw["result_error"]
        values = {
            "wall_s": statistics.median(raw["wall_s"]),
            "cpu_s": statistics.median(raw["cpu_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            # no repeat produced a result: the worst value there is
            "result_error": sys.float_info.max if error is None else error,
            "pass_frac": 1.0 - raw["failed"] / raw["attempted"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": _machine(),
        "environment": raw["environment"],
        "samples": {"setup_s": setups, "wall_s": raw["wall_s"],
                    "cpu_s": raw["cpu_s"],
                    "traced_wall_s": raw.get("traced_wall_s", [])},
        "result_detail": raw["result_detail"],
        "failures": raw["failures"],
    }
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "anosovlab", "__init__.py")):
        print("perfbench: no anosovlab sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
