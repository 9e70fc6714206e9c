"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here; the statistical thresholds are derived from exact kernels before any
sampling happens.
"""

from __future__ import annotations

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from rds_kit import chain, cli, core, counting, oracle, paths, swaps
from rds_kit.construct import greedy_construct
from rds_kit.errors import RdsKitError


def _report(number: int, name: str, ok: bool, details: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({details})")
    assert ok, f"criterion {number} {name}: {details}"


# ---------------------------------------------------------------------------
# deterministic instance families
# ---------------------------------------------------------------------------

# (k, l, stride): stride subsamples the forbidden-set grid on the larger shapes
_FAMILY_SHAPES = [
    (1, 1, 1),
    (1, 2, 1),
    (2, 1, 1),
    (2, 2, 1),
    (2, 3, 1),
    (3, 2, 1),
    (3, 3, 1),
    (2, 4, 4),
    (4, 2, 4),
    (3, 4, 40),
    (4, 3, 40),
    (4, 4, 320),
]


def family_instances():
    """|U|,|W| <= 4, degrees <= 3, diagonal sub-matchings, star subsets at u0."""
    for k, l, stride in _FAMILY_SHAPES:
        diag = range(min(k, l))
        counter = 0
        for u_deg in product(range(4), repeat=k):
            for w_deg in product(range(4), repeat=l):
                if sum(u_deg) != sum(w_deg):
                    continue
                for m_bits in range(1 << min(k, l)):
                    matching = [(i, i) for i in diag if m_bits >> i & 1]
                    for s_bits in range(1 << l):
                        counter += 1
                        if counter % stride:
                            continue
                        leaves = [j for j in range(l) if s_bits >> j & 1]
                        try:
                            yield core.bipartite_instance(
                                u_deg,
                                w_deg,
                                star_center=0,
                                star_leaves=leaves,
                                matching=matching,
                            )
                        except RdsKitError:
                            continue


def fixture_instances():
    yield core.bipartite_instance([1, 1], [1, 1], matching=[(0, 0), (1, 1)])
    yield core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(0, 0), (1, 1), (2, 2)])
    yield core.bipartite_instance([1] * 4, [1] * 4, matching=[(i, i) for i in range(4)])
    yield core.bipartite_instance(
        [1, 2, 2], [2, 2, 1], star_center=0, star_leaves=[0], matching=[(1, 1), (2, 2)]
    )
    yield core.bipartite_instance([2, 2, 0], [2, 1, 1], matching=[(0, 0), (1, 1), (2, 2)])


def _f2():
    return core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(0, 0), (1, 1), (2, 2)])


def _f3():
    return core.bipartite_instance([1] * 4, [1] * 4, matching=[(i, i) for i in range(4)])


def random_half_regular_45(rng: np.random.Generator, max_states: int = 20):
    """One random half-regular 4x5 star+matching instance with 2..max_states states."""
    k, l = 4, 5
    while True:
        d = int(rng.integers(1, 3))
        s = int(rng.integers(0, k))
        u_deg = [d] * k
        u_deg[s] = int(rng.integers(0, l + 1))
        total = sum(u_deg)
        if not 0 < total <= k * l:
            continue
        w_deg, rem = [], total
        for j in range(l):
            hi = min(k, rem)
            lo = max(0, rem - k * (l - j - 1))
            if lo > hi:
                break
            w_deg.append(int(rng.integers(lo, hi + 1)))
            rem -= w_deg[-1]
        if len(w_deg) < l or rem != 0:
            continue
        leaves = [j for j in range(l) if rng.random() < 0.4]
        m_size = int(rng.integers(0, min(k, l) + 1))
        matching = list(
            zip(rng.permutation(k)[:m_size].tolist(), rng.permutation(l)[:m_size].tolist())
        )
        try:
            inst = core.bipartite_instance(
                u_deg, w_deg, star_center=s, star_leaves=leaves, matching=matching
            )
        except RdsKitError:
            continue
        if greedy_construct(inst) is None:
            continue
        states = oracle.enumerate_all(inst)
        if 2 <= len(states) <= max_states:
            return inst, states


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_greedy_completeness():
    t0 = time.perf_counter()
    checked = exceptions = 0
    for inst in family_instances():
        graphical = greedy_construct(inst) is not None
        truth = len(oracle.enumerate_all(inst)) > 0
        checked += 1
        if graphical != truth:
            exceptions += 1
    elapsed = time.perf_counter() - t0
    ok = exceptions == 0 and checked >= 5000 and elapsed < 120
    _report(
        1,
        "greedy-completeness",
        ok,
        f"{checked} instances, {exceptions} exceptions, {elapsed:.1f}s",
    )


def test_criterion_2_connectivity():
    t0 = time.perf_counter()
    checked = disconnected = 0
    pool = list(fixture_instances())
    for inst in family_instances():
        pool.append(inst)
    for inst in pool:
        states = oracle.enumerate_all(inst)
        if not 2 <= len(states) <= 60:
            continue
        graph = oracle.build_realization_graph(inst, oracle.CHAIN_MOVES)
        checked += 1
        if not graph.is_connected():
            disconnected += 1
    elapsed = time.perf_counter() - t0
    ok = disconnected == 0 and checked > 500
    _report(
        2,
        "chain-connectivity",
        ok,
        f"{checked} realization graphs, {disconnected} disconnected, {elapsed:.1f}s",
    )


def test_criterion_3_distance_formula():
    t0 = time.perf_counter()
    pool = [inst for inst in fixture_instances()]
    counter = 0
    for inst in family_instances():
        counter += 1
        if counter % 3 == 0:  # odd stride: the family blocks have power-of-two sizes
            pool.append(inst)
    checked_pairs = mismatches = instances_used = 0
    for inst in pool:
        states = oracle.enumerate_all(inst)
        if not 2 <= len(states) <= 30:
            continue
        graph = oracle.build_realization_graph(inst, oracle.ALL_FSWAPS)
        instances_used += 1
        for i, G in enumerate(graph.states):
            dist = graph.shortest_weights_from(i)
            for j, H in enumerate(graph.states):
                if len(G.edges ^ H.edges) > 16:
                    continue
                checked_pairs += 1
                if swaps.swap_distance(G, H) != dist[j]:
                    mismatches += 1
    # the two pinned examples
    f2 = _f2()
    ra = core.make_realization(f2, [(0, 1), (1, 2), (2, 0)])
    rb = core.make_realization(f2, [(0, 2), (1, 0), (2, 1)])
    pinned = swaps.swap_distance(ra, rb) == 2
    open2 = core.bipartite_instance([1, 1], [1, 1])
    g = core.make_realization(open2, [(0, 0), (1, 1)])
    h = core.make_realization(open2, [(0, 1), (1, 0)])
    pinned = pinned and swaps.swap_distance(g, h) == 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and pinned and checked_pairs > 2000
    _report(
        3,
        "distance-formula",
        ok,
        f"{instances_used} instances, {checked_pairs} pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_4_kernel_exactness():
    from fractions import Fraction

    t0 = time.perf_counter()
    report = chain.exact_kernel(_f2())
    f2_exact = report.matrix == (
        (Fraction(3, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
    )
    checked = violations = 0
    pool = [inst for inst in fixture_instances() if greedy_construct(inst) is not None]
    counter = 0
    for inst in family_instances():
        counter += 1
        if counter % 37 == 0 and inst.n_u >= 2 and inst.n_w >= 2:
            pool.append(inst)
    rng = np.random.default_rng(45)
    for _ in range(10):
        pool.append(random_half_regular_45(rng)[0])
    for inst in pool:
        if inst.n_u < 2 or inst.n_w < 2:
            continue
        try:
            rep = chain.exact_kernel(inst, max_states=80)
        except RdsKitError:
            continue
        diag = rep.diagnostics()
        checked += 1
        if (
            diag["symmetry_residual"] != 0
            or diag["row_sum_residual"] != 0
            or diag["min_diagonal"] < Fraction(1, 2)
            or not diag["uniform_stationary"]
        ):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = f2_exact and violations == 0 and checked > 100
    _report(
        4,
        "kernel-exactness",
        ok,
        f"F2 matrix exact: {f2_exact}; {checked} kernels, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_5_canonical_path_audit():
    t0 = time.perf_counter()
    pairs = 0
    max_h = 0
    repair_stats = {"used": 0, "max_switches": 0}

    def audit_instance(inst, states):
        nonlocal pairs, max_h
        stack = paths.state_stack(states)
        for X in states:
            for Y in states:
                if X.key == Y.key:
                    continue
                rep = paths.verify_theta_omega(X, Y, stack)
                pairs += 1
                max_h = max(max_h, rep.max_hamming)
                for step in rep.steps:
                    if step.repair_switches:
                        repair_stats["used"] += 1
                        repair_stats["max_switches"] = max(
                            repair_stats["max_switches"], step.repair_switches
                        )

    for inst in (_f2(), _f3()):
        audit_instance(inst, oracle.enumerate_all(inst))
    rng = np.random.default_rng(20260809)
    for _ in range(100):
        inst, states = random_half_regular_45(rng)
        audit_instance(inst, states)
    elapsed = time.perf_counter() - t0
    ok = max_h <= paths.HAMMING_BOUND and elapsed < 600 and pairs > 1000
    _report(
        5,
        "canonical-path-audit",
        ok,
        f"{pairs} ordered pairs, max Hamming {max_h} <= {paths.HAMMING_BOUND}, "
        f"{repair_stats['used']} repaired steps, {elapsed:.1f}s",
    )


def test_criterion_6_switch_repair():
    t0 = time.perf_counter()
    exercised = 0
    max_switches = 0
    hamming_ok = True
    pool = [_f3()]
    rng = np.random.default_rng(99)
    for _ in range(12):
        pool.append(random_half_regular_45(rng)[0])
    for inst in pool:
        states = oracle.enumerate_all(inst)
        for X in states:
            for Y in states:
                if X.key == Y.key:
                    continue
                rep = paths.canonical_path(X, Y)
                for step in rep.steps:
                    m = paths.auxiliary_matrix(X, Y, step.state)
                    if not paths.audit_bad_positions(inst, m).within_lemma_pattern:
                        continue
                    if not paths.bad_positions(m):
                        continue
                    switches, real = paths.switch_repair(inst, m)
                    exercised += 1
                    max_switches = max(max_switches, len(switches))
                    work = m.copy()
                    for sw in switches:
                        prev = work.copy()
                        paths._apply_switch(inst, work, sw)
                        if (prev != work).sum() != 4:
                            hamming_ok = False
                    if (work != core.adjacency_matrix(real)).sum() != 0:
                        hamming_ok = False
    elapsed = time.perf_counter() - t0
    ok = exercised > 50 and max_switches <= 3 and hamming_ok
    _report(
        6,
        "switch-repair",
        ok,
        f"{exercised} matrices repaired, max {max_switches} switches, "
        f"each switch moved Hamming by 4: {hamming_ok}, {elapsed:.1f}s",
    )


def test_criterion_7_uniformity():
    t0 = time.perf_counter()
    f2 = _f2()
    res2 = oracle.uniformity_test(f2, steps=50, n_samples=10_000, seed=4207)
    f2_ok = res2["tv_distance"] <= 0.02

    f3 = _f3()
    kernel = chain.exact_kernel(f3).dense()
    start = oracle.enumerate_all(f3)
    start_idx = next(
        i for i, s in enumerate(start) if s.key == greedy_construct(f3).key
    )
    steps = 1000
    dist = np.linalg.matrix_power(kernel, steps)[start_idx]
    n_states = kernel.shape[0]
    tv_exact = 0.5 * float(np.abs(dist - 1.0 / n_states).sum())
    n_samples = 10_000
    threshold = tv_exact + 0.5 * math.sqrt(n_states / n_samples) + 1.5 / math.sqrt(n_samples)
    res3 = oracle.uniformity_test(f3, steps=steps, n_samples=n_samples, seed=4208)
    f3_ok = res3["tv_distance"] <= threshold
    elapsed = time.perf_counter() - t0
    ok = f2_ok and f3_ok
    _report(
        7,
        "uniformity",
        ok,
        f"F2 tv={res2['tv_distance']:.4f}<=0.02; "
        f"F3 tv={res3['tv_distance']:.4f}<=threshold {threshold:.4f} "
        f"(exact part {tv_exact:.2e}), {elapsed:.1f}s",
    )


def test_criterion_8_counting():
    t0 = time.perf_counter()

    # branch identity at every recursion node, all fixtures
    identity_ok = True

    def walk(inst):
        nonlocal identity_ok
        n = counting.exact_count(inst)
        try:
            _, absent, present = counting.branch_split(inst)
        except RdsKitError:
            degrees = list(inst.u_degrees) + list(inst.w_degrees)
            identity_ok &= n == (1 if not any(degrees) else 0)
            return
        n_present = counting.exact_count(present) if present is not None else 0
        identity_ok &= n == counting.exact_count(absent) + n_present
        walk(absent)
        if present is not None:
            walk(present)

    for inst in fixture_instances():
        walk(inst)

    # derangement counts
    derangements_ok = True
    for n, expected in ((3, 2), (4, 9), (5, 44)):
        inst = core.bipartite_instance(
            [1] * n, [1] * n, matching=[(i, i) for i in range(n)]
        )
        derangements_ok &= counting.exact_count(inst) == expected

    # approximate counting window on F2
    f2 = _f2()
    in_window = 0
    for seed in range(100):
        rep = counting.approx_count(f2, samples_per_level=10_000, burn_in=1000, seed=seed)
        in_window += 1.8 <= rep.value <= 2.2
    elapsed = time.perf_counter() - t0
    ok = identity_ok and derangements_ok and in_window >= 95
    _report(
        8,
        "counting",
        ok,
        f"branch identity: {identity_ok}; derangements 2/9/44: {derangements_ok}; "
        f"approx F2 in [1.8,2.2] for {in_window}/100 seeds, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    f2_path = tmp_path / "F2.json"
    f2_path.write_text(json.dumps(core.instance_to_json(_f2())))
    invocations = [
        ["check", str(f2_path)],
        ["construct", str(f2_path)],
        ["enumerate", str(f2_path)],
        ["count", "--exact", str(f2_path)],
        ["count", "--approx", str(f2_path), "--samples", "2000", "--seed", "17"],
        ["sample", str(f2_path), "--steps", "100", "--samples", "2", "--seed", "17"],
        ["kernel", str(f2_path)],
        ["audit-paths", str(f2_path)],
        ["convert-directed", "-"],
    ]
    mismatches = []
    for argv in invocations:
        if argv[-1] == "-":
            continue  # stdin-driven case covered in the CLI tests
        outs = []
        for _ in range(2):
            code = cli.main(argv)
            outs.append(capsys.readouterr().out)
            assert code == 0
        if outs[0] != outs[1]:
            mismatches.append(argv[0])
    ok = not mismatches
    with capsys.disabled():
        _report(
            9,
            "determinism",
            ok,
            f"{len(invocations) - 1} subcommands byte-identical"
            + (f"; mismatches: {mismatches}" if mismatches else ""),
        )
