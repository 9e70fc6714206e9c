"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` from the root of a checkout.  Sets up (imports
``rds_kit`` from ``src``, writes the instance file), prints ``READY``, then
calls ``rds_kit.cli.main(argv)`` in-process in whole rounds of operations
until ``--seconds`` have passed, checks every report against ``reference.py``
and prints one JSON line with the counts and the metrics.

With ``--trace 1`` rounds alternate untraced and traced, the traced ones with
a :class:`tracing.Tracer` installed, and the line holds the per-layer metrics.
With ``--setup-only`` it exits right after ``READY`` (``run.py`` times several
set-ups per run).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

import reference
import tracing

OUT_DIR = ".perfbench-out"
HAMMING_BOUND = 16
CHI_SQUARE_MIN_P = 1e-6
COUNT_SAMPLES = 1000  # samples per level for count --approx
COUNT_SIGMAS = 3.0  # accepted relative error is COUNT_SIGMAS * sqrt(L / m)
# count --approx fails on every seed for a known fault (it estimates far
# below the true count); its seeds are fixed so that every run fails the same
# operations.
COUNT_SEEDS = tuple(range(10))


def half_regular(n: int, d: int) -> dict:
    """u = w = [d]*n, star u0 -> {w1}, matching (i, i) for i = 1..n-1."""
    return {
        "kind": "bipartite",
        "u_degrees": [d] * n,
        "w_degrees": [d] * n,
        "star_center": 0,
        "star_leaves": [1],
        "matching": [[i, i] for i in range(1, n)],
    }


class Workload:
    """Instance, the rounds of operations on it, and the checks of their reports."""

    name = ""
    instance: dict = {}
    ops_per_round = 1
    # layers a traced run must see called, else the tracing missed a caller
    required: tuple[str, ...] = ("cli", "core.validate", "core.realization")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.problems: list[str] = []

    def prepare(self) -> None:
        """Reference values, computed after set-up and before the timed phase."""

    def argv(self, path: str, index: int) -> list[str]:
        raise NotImplementedError

    def check(self, report: dict) -> tuple[bool, float]:
        """(failed, work units) for one report; records broken invariants."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over all reports of the run."""

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics read off the reports rather than the spans."""
        return {}

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


class Sample(Workload):
    steps = 0
    samples = 0

    def argv(self, path, index):
        seed = self.rng.randrange(2**32)
        return ["sample", path, "--steps", str(self.steps), "--samples", str(self.samples),
                "--seed", str(seed)]

    def check(self, report):
        if report.get("steps") != self.steps or len(report.get("samples", ())) != self.samples:
            self.problem(f"sample report has steps {report.get('steps')!r} and "
                         f"{len(report.get('samples', ()))} samples")
        for edges in report.get("samples", ()):
            broken = reference.edge_list_problems(edges, self.instance)
            if broken:
                self.problem(f"sample is no realization: {broken[:3]}")
            else:
                self.seen(edges)
        return False, float(self.steps * self.samples)

    def seen(self, edges) -> None:
        pass


class SampleLarge(Sample):
    name = "sample-large"
    instance = half_regular(150, 10)
    steps = 200_000
    samples = 2
    ops_per_round = 2
    required = Workload.required + ("construct.greedy", "chain.walk")


class SampleSwarm(Sample):
    name = "sample-swarm"
    instance = half_regular(5, 2)
    steps = 2000  # the chain's default burn-in 20 (|U| + |W|)^2
    samples = 200
    ops_per_round = 4
    required = Workload.required + ("construct.greedy", "chain.walk")

    def prepare(self):
        self.states = {state: 0 for state in reference.enumerate_instance(self.instance)}

    def seen(self, edges):
        key = frozenset((u, w) for u, w in edges)
        if key in self.states:
            self.states[key] += 1
        else:
            self.problem(f"sample {sorted(key)} is not among the counted states")

    def finish(self):
        p = reference.chi_square_uniform_p(self.states.values())
        if p < CHI_SQUARE_MIN_P:
            self.problem(f"samples are not uniform over {len(self.states)} states: chi-square p = {p:.3g}")


class CountApprox(Workload):
    name = "count-approx"
    instance = half_regular(6, 3)
    ops_per_round = len(COUNT_SEEDS)
    required = Workload.required + (
        "construct.greedy", "chain.walk", "counting", "counting.branch")

    def prepare(self):
        self.exact = reference.count_instance(self.instance)
        self.reports = self.levels = self.sampled = self.samples_used = 0

    def argv(self, path, index):
        return ["count", "--approx", path, "--samples", str(COUNT_SAMPLES),
                "--seed", str(COUNT_SEEDS[index % len(COUNT_SEEDS)])]

    def check(self, report):
        levels = report.get("levels") or []
        estimate = report.get("estimate")
        sampled = [lv for lv in levels if not lv["forced"]]
        used = sum(lv["samples_used"] for lv in levels)
        self.reports += 1
        self.levels += len(levels)
        self.sampled += len(sampled)
        self.samples_used += used
        # the estimate is the product of the reciprocal chosen-branch frequencies
        product = 1.0
        for lv in sampled:
            product /= lv["p_hat"] if lv["branch"] == "present" else 1.0 - lv["p_hat"]
        if not report.get("graphical") or not isinstance(estimate, float):
            self.problem(f"count report without an estimate: {report.get('graphical')!r}")
            return False, float(used)
        if not math.isclose(product, estimate, rel_tol=1e-9):
            self.problem(f"estimate {estimate} is not the product {product} of its levels")
        if any(lv["samples_used"] < COUNT_SAMPLES for lv in sampled):
            self.problem("a sampled level used fewer samples than asked for")
        allowed = COUNT_SIGMAS * math.sqrt(len(sampled) / COUNT_SAMPLES)
        failed = abs(estimate / self.exact - 1.0) > allowed
        return failed, float(used)

    def layer_metrics(self) -> dict[str, float]:
        """Level counts per report, over every report of the run."""
        return {
            "counting.levels": self.levels / self.reports,
            "counting.sampled_levels": self.sampled / self.reports,
            "counting.doubling_ratio":
                self.samples_used / (self.sampled * COUNT_SAMPLES) if self.sampled else 0.0,
        }


class AuditPaths(Workload):
    name = "audit-paths"
    instance = half_regular(5, 3)
    required = Workload.required + (
        "oracle.enumerate", "paths.verify", "paths.canonical", "paths.repair",
        "core.adjacency", "chain.classify", "swaps.decompose", "swaps.circuit")
    ops_per_round = 2

    def prepare(self):
        self.exact = reference.count_instance(self.instance)

    def argv(self, path, index):
        return ["audit-paths", path]

    def check(self, report):
        states = self.exact
        want = {"states": states, "ordered_pairs": states * (states - 1), "all_ok": True}
        got = {key: report.get(key) for key in want}
        if got != want:
            self.problem(f"audit report {got} differs from {want}")
        if not isinstance(report.get("max_hamming"), int) or report["max_hamming"] > HAMMING_BOUND:
            self.problem(f"max_hamming {report.get('max_hamming')!r} exceeds {HAMMING_BOUND}")
        return False, float(report.get("ordered_pairs") or 0)


WORKLOADS = {w.name: w for w in (SampleLarge, SampleSwarm, CountApprox, AuditPaths)}


def unit(metric: str) -> str:
    if metric in ("work_per_s", "chain.proposals_per_s", "paths.pairs_per_s"):
        return "1/s"
    if metric == "peak_rss_mb":
        return "MB"
    if metric in ("wall_s", "op_p50_s", "trace.overhead_s", "chain.fixed_s"):
        return "s"
    if metric.endswith("_s"):
        return "s/op"
    if metric == "cli.out_bytes":
        return "B/op"
    if metric == "counting.doubling_ratio":
        return "ratio"
    return "count/op"


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, standard output and seconds of one in-process command."""
    from rds_kit import cli

    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue(), time.perf_counter() - start


class Run:
    """Whole rounds of one workload, with their timings and outcomes."""

    def __init__(self, workload: Workload, path: str) -> None:
        self.workload = workload
        self.path = path
        self.attempted = self.failed = 0
        self.op_times: list[float] = []
        self.round_times: list[float] = []
        self.round_rates: list[float] = []
        self.out_bytes = 0
        self.index = 0

    def round(self) -> None:
        wall = work = 0.0
        for _ in range(self.workload.ops_per_round):
            argv = self.workload.argv(self.path, self.index)
            self.index += 1
            self.attempted += 1
            try:
                code, out, seconds = call_cli(argv)
            except Exception as exc:  # an op that raises counts as failed
                print(f"{argv}: {type(exc).__name__}: {exc}", file=sys.stderr)
                self.failed += 1
                continue
            wall += seconds
            self.op_times.append(seconds)
            self.out_bytes += len(out)
            if code != 0:
                print(f"{argv}: exit code {code}", file=sys.stderr)
                self.failed += 1
                continue
            failed, units = self.workload.check(json.loads(out))
            self.failed += failed
            work += units
        self.round_times.append(wall)
        self.round_rates.append(work / wall if wall else 0.0)


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "wall_s": statistics.median(run.round_times),
        "op_p50_s": statistics.median(run.op_times),
        "work_per_s": statistics.median(run.round_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload: Workload, tracer: tracing.Tracer, traced: Run, overhead_s: float,
              fixed_s: float) -> dict[str, float]:
    ops = len(traced.op_times)
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    per_op = {}
    for layer in ("core.validate", "core.realization", "core.adjacency", "construct.greedy",
                  "chain.classify", "counting.branch", "oracle.enumerate", "paths.repair",
                  "swaps.decompose", "swaps.circuit"):
        per_op[layer + "_calls"] = calls[layer] / ops
        per_op[layer + "_s"] = self_s[layer] / ops
    proposals = counters.get("chain.proposals", 0)
    verify_inclusive = tracer.inclusive_s["paths.verify"]
    metrics = {
        "cli.self_s": self_s["cli"] / ops,
        "cli.out_bytes": traced.out_bytes / ops,
        **per_op,
        "chain.chains": calls["chain.walk"] / ops,
        "chain.proposals": proposals / ops,
        "chain.walk_s": self_s["chain.walk"] / ops,
        "chain.proposals_per_s": proposals / self_s["chain.walk"] if proposals else 0.0,
        "chain.fixed_s": fixed_s,
        "counting.levels": 0.0,
        "counting.sampled_levels": 0.0,
        "counting.doubling_ratio": 0.0,
        "counting.self_s": self_s["counting"] / ops,
        "oracle.states": counters.get("oracle.states", 0) / ops,
        "paths.pairs": calls["paths.verify"] / ops,
        "paths.path_steps": counters.get("paths.path_steps", 0) / ops,
        "paths.verify_s": self_s["paths.verify"] / ops,
        "paths.canonical_s": self_s["paths.canonical"] / ops,
        "paths.pairs_per_s": calls["paths.verify"] / verify_inclusive if verify_inclusive else 0.0,
        "trace.spans": tracer.span_count / ops,
        "trace.overhead_s": overhead_s,
    }
    metrics.update(workload.layer_metrics())
    return metrics


def chain_fixed_seconds(instance: dict, probes: int = 3) -> float:
    """Median time of a zero-step run_chain on the instance: the per-chain
    fixed cost (move tables, copying the start, validating the result)."""
    from rds_kit.chain import run_chain
    from rds_kit.construct import greedy_construct
    from rds_kit.core import validate_instance

    inst = validate_instance(instance)
    start = greedy_construct(inst)
    times = []
    for seed in range(probes):
        t0 = time.perf_counter()
        run_chain(inst, start, 0, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    import rds_kit.cli  # noqa: F401  (the import is part of set-up)

    workload = WORKLOADS[args.workload](args.seed)
    run_dir = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "instance.json")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workload.instance, fh)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(workload, path, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(workload: Workload, path: str, args) -> int:
    workload.prepare()
    plain = Run(workload, path)
    traced = Run(workload, path)
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        if not args.trace or len(plain.round_times) <= len(traced.round_times):
            plain.round()
        else:
            tracer.install()
            try:
                traced.round()
            finally:
                tracer.uninstall()
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced.round_times):
            break
    workload.finish()

    runs = (plain, traced)
    result = {
        "correct": not workload.problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
    }
    if args.trace:
        missing = [layer for layer in workload.required if not tracer.calls[layer]]
        if missing:
            print(f"traced run never called {missing}: a wrapper missed a caller", file=sys.stderr)
            return 1
        overhead = statistics.median(traced.round_times) - statistics.median(plain.round_times)
        values = per_layer(workload, tracer, traced, overhead, chain_fixed_seconds(workload.instance))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.npz"))
    else:
        values = end_to_end(plain)
    result["metrics"] = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    for message in workload.problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
