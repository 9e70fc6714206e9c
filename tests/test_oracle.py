import numpy as np
import pytest

from rds_kit import core, oracle, swaps
from rds_kit.errors import PreconditionViolated, TooLarge, TooManyStates

from conftest import permutation_bruteforce, subset_bruteforce


def test_enumerate_matches_subset_bruteforce(f1, f2, f4, f5):
    for inst in (f1, f2, f4, f5):
        got = {r.edges for r in oracle.enumerate_all(inst)}
        assert got == set(subset_bruteforce(inst))


def test_enumerate_derangement_counts():
    for n, expected in ((3, 2), (4, 9), (5, 44)):
        assert permutation_bruteforce(n) == expected  # oracle of the oracle
        inst = core.bipartite_instance([1] * n, [1] * n, matching=[(i, i) for i in range(n)])
        assert len(oracle.enumerate_all(inst)) == expected


def test_enumerate_guard():
    inst = core.bipartite_instance([1] * 7, [1] * 7)
    with pytest.raises(TooLarge):
        oracle.enumerate_all(inst, max_chords=40)


def test_enumerate_state_guard_stops_early(monkeypatch):
    inst = core.bipartite_instance([1] * 5, [1] * 5, matching=[(i, i) for i in range(5)])
    built = []
    real_build = oracle.realization_from_global_edges
    monkeypatch.setattr(
        oracle, "realization_from_global_edges", lambda i, e: built.append(1) or real_build(i, e)
    )
    with pytest.raises(TooManyStates):
        oracle.enumerate_all(inst, max_states=3)
    assert len(built) == 4  # stops at the first state past the guard, not at all 44
    assert inst.known_realizations == {}
    assert len(oracle.enumerate_all(inst, max_states=44)) == 44


def test_enumerate_general_triangle_free_matching():
    inst = core.general_instance([1, 1, 1, 1], matching=[(0, 1)])
    got = {r.edges for r in oracle.enumerate_all(inst)}
    assert got == set(subset_bruteforce(inst))
    assert frozenset({(0, 1), (2, 3)}) not in got


def test_realization_graph_chain_moves_needs_bipartite_kind():
    inst = core.general_instance([1, 1, 1, 1])
    with pytest.raises(PreconditionViolated):
        oracle.build_realization_graph(inst, oracle.CHAIN_MOVES)
    assert oracle.build_realization_graph(inst, oracle.ALL_FSWAPS).size == 3


def test_realization_graph_chain_moves(f2, f3, f4):
    g2 = oracle.build_realization_graph(f2, oracle.CHAIN_MOVES)
    assert g2.size == 2 and g2.neighbors[0] == {1: 1}
    g4 = oracle.build_realization_graph(f4, oracle.CHAIN_MOVES)
    assert g4.size == 1 and g4.is_connected()
    g3 = oracle.build_realization_graph(f3, oracle.CHAIN_MOVES)
    assert g3.size == 9 and g3.is_connected()
    for v, nbrs in g3.neighbors.items():
        for nb in nbrs:
            assert v in g3.neighbors[nb]  # symmetric adjacency


def test_realization_graph_fswap_weights(f2):
    g = oracle.build_realization_graph(f2, oracle.ALL_FSWAPS)
    assert g.neighbors[0] == {1: 2}  # one 6-cycle swap of weight 2


def test_enumerate_fswaps_matches_applications(f3):
    real = oracle.enumerate_all(f3)[0]
    for sw in oracle.enumerate_fswaps(real):
        after = swaps.apply_swap(real, sw)
        assert after.edges != real.edges


def test_uniformity_f4_single_state(f4):
    res = oracle.uniformity_test(f4, steps=5, n_samples=50, seed=11)
    assert res["tv_distance"] == 0.0


def test_uniformity_f2_short(f2):
    import math

    from rds_kit.chain import exact_kernel

    steps, n = 50, 2000
    kernel = exact_kernel(f2).dense()
    dist = np.linalg.matrix_power(kernel, steps)[0]
    tv_exact = 0.5 * float(np.abs(dist - 0.5).sum())
    threshold = tv_exact + 0.5 * math.sqrt(2 / n) + 1.5 / math.sqrt(n)
    res = oracle.uniformity_test(f2, steps=steps, n_samples=n, seed=11)
    assert res["tv_distance"] <= threshold
    assert res["chi_square_p"] > 1e-4
    assert sum(res["counts"]) == n
