"""Benchmark of the rds-kit command: sample, count --approx and audit-paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-swarm --seed 1 --seconds 20 --trace 0

Prints one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The work happens in ``worker.py``, one process per run; this
launcher times its set-up (process start until the first operation can run)
and, for ``--trace 0``, that of two more set-up-only processes, and reports
the median as ``setup_s``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = tuple(worker.WORKLOADS)
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def start_worker(args, workload: str, extra: list[str], deadline: float):
    """Start worker.py; return the process, its kill timer and its set-up seconds."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if ready.strip() != "READY":
        finish(proc, timer)
        raise WorkerFailed(f"worker did not get ready (exit code {proc.returncode})")
    return proc, timer, setup_s


def finish(proc, timer) -> str:
    """Wait for the worker to end; its remaining standard output."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out


def run_one(args, workload: str) -> dict:
    """The result object of one run of `workload`."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, timer, setup_s = start_worker(args, workload, ["--setup-only"], deadline)
            finish(proc, timer)
            if proc.returncode != 0:
                raise WorkerFailed(f"set-up probe exited with {proc.returncode}")
            setups.append(setup_s)
    proc, timer, setup_s = start_worker(args, workload, [], deadline)
    setups.append(setup_s)
    out = finish(proc, timer)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn (one JSON line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rds_kit", "cli.py")):
        print("run from the root of an rds-kit checkout: src/rds_kit is missing", file=sys.stderr)
        return 2

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_one(args, workload)
        except WorkerFailed as exc:
            print(f"benchmark failed on {workload}: {exc}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            print(f"{workload:>13}  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
