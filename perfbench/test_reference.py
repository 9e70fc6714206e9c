"""Tests of the benchmark's own ground truth: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import os
import sys
from itertools import permutations

import pytest

import reference
import tracing
import worker
from worker import half_regular


@pytest.mark.parametrize("n, count", [(2, 1), (3, 6), (4, 90), (5, 2040)])
def test_margins_two_match_oeis_a001499(n, count):
    assert reference.count_matrices([2] * n, [2] * n, ()) == count


@pytest.mark.parametrize("n, count", [(2, 1), (3, 2), (4, 9), (5, 44), (6, 265)])
def test_margins_one_with_forbidden_diagonal_are_derangements(n, count):
    diagonal = {(i, i) for i in range(n)}
    assert reference.count_matrices([1] * n, [1] * n, diagonal) == count
    assert len(reference.enumerate_matrices([1] * n, [1] * n, diagonal)) == count


def test_roadmap_four_by_four_instance_has_fifteen():
    instance = {"u_degrees": [2] * 4, "w_degrees": [2] * 4, "star_center": 0,
                "star_leaves": [1], "matching": [[1, 2], [2, 3]]}
    assert reference.count_instance(instance) == 15
    assert len(reference.enumerate_instance(instance)) == 15


@pytest.mark.parametrize("n, d, count", [(5, 1, 42), (5, 2, 189), (5, 3, 32), (6, 3, 6340)])
def test_counter_and_enumerator_agree_on_workload_instances(n, d, count):
    instance = half_regular(n, d)
    states = reference.enumerate_instance(instance)
    assert reference.count_instance(instance) == count
    assert len(set(states)) == len(states) == count
    for state in states:
        assert reference.edge_list_problems(sorted(state), instance) == []


def test_enumerator_matches_permutation_filter():
    """Margins 1 are permutation matrices: filter all 5! of them directly."""
    instance = half_regular(5, 1)
    forbidden = reference.forbidden_cells(instance)
    direct = {
        frozenset(enumerate(p)) for p in permutations(range(5))
        if not any((i, j) in forbidden for i, j in enumerate(p))
    }
    assert set(reference.enumerate_instance(instance)) == direct


def test_checker_accepts_a_realization():
    instance = half_regular(3, 1)  # forbidden: (0, 1), (1, 1), (2, 2)
    assert reference.edge_list_problems([[0, 0], [1, 2], [2, 1]], instance) == []


def test_checker_rejects_a_forbidden_pair():
    instance = half_regular(3, 1)
    problems = reference.edge_list_problems([[0, 1], [1, 0], [2, 2]], instance)
    assert any("forbidden pair [0, 1]" in p for p in problems)
    assert any("forbidden pair [2, 2]" in p for p in problems)


def test_checker_rejects_a_wrong_degree():
    instance = half_regular(3, 1)
    problems = reference.edge_list_problems([[0, 0], [1, 2]], instance)
    assert problems == ["u2 has degree 0, instance demands 1", "w1 has degree 0, instance demands 1"]


def test_checker_rejects_a_repeated_edge_and_bad_pairs():
    instance = half_regular(3, 1)
    problems = reference.edge_list_problems([[0, 0], [0, 0], [1, 2], [2, 1], [3, 0], [1]], instance)
    assert "repeated edge [0, 0]" in problems
    assert "pair out of range: [3, 0]" in problems
    assert "not a pair: [1]" in problems


@pytest.mark.parametrize("df, stat", [(1, 0.5), (4, 3.0), (10, 25.0), (188, 150.0), (188, 260.0), (188, 400.0)])
def test_chi_square_p_matches_scipy(df, stat):
    stats = pytest.importorskip("scipy.stats")
    assert math.isclose(reference.upper_gamma_q(df / 2, stat / 2), stats.chi2.sf(stat, df),
                        rel_tol=1e-9, abs_tol=1e-300)


def test_chi_square_uniform_p_extremes():
    assert reference.chi_square_uniform_p([50] * 10) == 1.0
    assert reference.chi_square_uniform_p([500] + [0] * 9) < 1e-100


def test_tracer_sees_every_layer_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    from rds_kit import chain, cli

    path = tmp_path / "instance.json"
    path.write_text(json.dumps(half_regular(4, 1)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # cli imported run_chain by name: the wrapper must sit there too
        assert cli.run_chain is chain.run_chain and hasattr(cli.run_chain, "__wrapped__")
        for argv in (["sample", str(path), "--steps", "50", "--samples", "2"],
                     ["count", "--approx", str(path), "--samples", "20"],
                     ["audit-paths", str(path)]):
            assert worker.call_cli(argv)[0] == 0
    finally:
        tracer.uninstall()
    assert [layer for layer in tracing.LAYERS if not tracer.calls[layer]] == []
    assert tracer.counters["chain.proposals"] > 2 * 50
    assert tracer.span_count == tracer.calls["cli"] + sum(
        1 for i in range(tracer.span_count) if tracer.span_parent[i] >= 0)
    wrapped = [
        (name, attr) for name, module in sys.modules.items() if name.startswith("rds_kit")
        for attr, value in vars(module).items() if hasattr(value, "__wrapped__")
    ]
    assert wrapped == []
