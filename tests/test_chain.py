import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats

from rds_kit import chain, construct, core
from rds_kit.errors import InstanceTooSmall, NotAdjacent, PreconditionViolated, TooManyStates
from rds_kit.oracle import enumerate_all

from conftest import half_regular_instances, star_matching_instances


def test_run_chain_reaches_both_states(f2, f2_reals):
    ra, rb = f2_reals
    seen = {
        chain.run_chain(f2, ra, steps, seed=seed).key
        for seed in range(20)
        for steps in (1, 5, 20)
    }
    assert seen == {ra.key, rb.key}  # no run leaves the state space, and the 6-cycle move fires


def test_chain_requires_two_per_class():
    inst = core.bipartite_instance([1], [1])
    real = core.make_realization(inst, [(0, 0)])
    with pytest.raises(InstanceTooSmall):
        chain.run_chain(inst, real, 1, seed=0)


def test_jump_probability_values(f2, f2_reals, f3):
    ra, rb = f2_reals
    assert chain.jump_probability(f2, ra, rb) == Fraction(1, 4)
    # a derangement of 4 cannot contain a 3-cycle, so F3 is C4-connected only
    reals3 = enumerate_all(f3)
    kinds = {
        chain.classify_move(G, H)
        for i, G in enumerate(reals3)
        for H in reals3[i + 1 :]
    }
    assert "c6" not in kinds and "c4" in kinds
    # 4x4 classes where a 6-cycle move does exist: both 3-cycles on {0,1,2}
    inst = core.bipartite_instance([1, 1, 1, 0], [1, 1, 1, 0], matching=[(i, i) for i in range(4)])
    G = core.make_realization(inst, [(0, 1), (1, 2), (2, 0)])
    H = core.make_realization(inst, [(0, 2), (1, 0), (2, 1)])
    assert chain.classify_move(G, H) == "c6"
    assert chain.jump_probability(inst, G, H) == Fraction(1, 64)
    inst4 = core.bipartite_instance([1] * 4, [1] * 4)
    G = core.make_realization(inst4, [(0, 0), (1, 1), (2, 2), (3, 3)])
    H = core.make_realization(inst4, [(0, 1), (1, 0), (2, 2), (3, 3)])
    assert chain.jump_probability(inst4, G, H) == Fraction(1, 144)


def test_jump_probability_not_adjacent(f3):
    reals = enumerate_all(f3)
    pairs = [
        (G, H)
        for G in reals
        for H in reals
        if chain.classify_move(G, H) is None and G.key != H.key
    ]
    assert pairs, "expected some non-adjacent pair in the nine derangements"
    G, H = pairs[0]
    with pytest.raises(NotAdjacent):
        chain.jump_probability(f3, G, H)


def test_classify_move_refuses_general_instances():
    inst = core.general_instance([1, 1, 1, 1])
    states = enumerate_all(inst)
    assert len(states) == 3
    for G in states:
        for H in states:
            with pytest.raises(PreconditionViolated):
                chain.classify_move(G, H)


def test_run_chain_zero_steps(f2, f2_reals):
    ra, _ = f2_reals
    assert chain.run_chain(f2, ra, 0, seed=3).key == ra.key


def test_run_chain_deterministic(f3):
    start = enumerate_all(f3)[0]
    a = chain.run_chain(f3, start, 500, seed=42)
    b = chain.run_chain(f3, start, 500, seed=42)
    c = chain.run_chain(f3, start, 500, seed=43)
    assert a.key == b.key
    assert isinstance(c.key, tuple)


def test_run_chain_f2_frequency(f2, f2_reals):
    # exact kernel is two-state symmetric: long-run frequency of Ra near 1/2
    ra, _ = f2_reals
    hits = 0
    n = 400
    for seed in range(n):
        final = chain.run_chain(f2, ra, 60, seed=seed)
        hits += final.key == ra.key
    assert 0.42 <= hits / n <= 0.58


def test_propose_step_single_state_instance(f4):
    # every single proposal on F4 is rejected, so one-step runs chained together never move
    r4 = core.make_realization(f4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)])
    state = r4
    for seed in range(50):
        state = chain.run_chain(f4, state, 1, seed=seed)
        assert state.key == r4.key


def test_run_chain_single_state(f4):
    r4 = core.make_realization(f4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)])
    for seed in range(5):
        for steps in (1, 50, 1000):
            assert chain.run_chain(f4, r4, steps, seed=seed).key == r4.key


def test_exact_kernel_f2(f2):
    report = chain.exact_kernel(f2)
    assert report.matrix == (
        (Fraction(3, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
    )
    diag = report.diagnostics()
    assert diag["symmetry_residual"] == 0
    assert diag["row_sum_residual"] == 0
    assert diag["min_diagonal"] >= Fraction(1, 2)
    assert diag["uniform_stationary"]


def test_exact_kernel_f4_single_state(f4):
    report = chain.exact_kernel(f4)
    assert report.matrix == ((Fraction(1),),)


def test_exact_kernel_f3_doubly_stochastic(f3):
    report = chain.exact_kernel(f3)
    assert report.size == 9
    n = report.size
    for i in range(n):
        assert sum(report.matrix[i]) == 1
        assert report.matrix[i][i] >= Fraction(1, 2)
        for j in range(n):
            assert report.matrix[i][j] == report.matrix[j][i]
            assert report.matrix[i][j] >= 0
    # uniform stationarity, exactly
    uniform = [Fraction(1, n)] * n
    for j in range(n):
        assert sum(uniform[i] * report.matrix[i][j] for i in range(n)) == Fraction(1, n)


def _pairwise_kind(inst, G, H):
    """The move kind read off the symmetric difference alone, independently of the chain."""
    delta = G.edges ^ H.edges
    us = {u for u, _ in delta}
    ws = {w for _, w in delta}
    if len(delta) == 4 and len(us) == len(ws) == 2:
        return "c4"
    if len(delta) == 6 and len(us) == len(ws) == 3:
        off = [(u, w) for u in us for w in ws if (u, w) not in delta]
        if all(not inst.is_chord(*p) for p in off):
            return "c6"
    return None


def _assert_moves_and_kernel_match_pairwise(inst):
    states = enumerate_all(inst)
    if not states:
        return
    n = len(states)
    kinds = [[_pairwise_kind(inst, G, H) for H in states] for G in states]
    for i, G in enumerate(states):
        generated = {
            (G.edges.symmetric_difference(toggle), kind)
            for kind, toggle in chain.legal_moves(inst, G.edges)
        }
        pairwise = {(H.edges, k) for H, k in zip(states, kinds[i]) if k is not None}
        assert generated == pairwise

    def prob(kind):
        if kind is None:
            return Fraction(0)
        r = 2 if kind == "c4" else 3  # a pair or a triple per class, drawn with probability 1/4
        return Fraction(1, 4) / (comb(inst.n_u, r) * comb(inst.n_w, r))

    rows = [[prob(k) for k in row] for row in kinds]
    for i in range(n):
        rows[i][i] = 1 - sum(rows[i])
    assert chain.exact_kernel(inst).matrix == tuple(tuple(r) for r in rows)


@settings(max_examples=100, deadline=None)
@given(star_matching_instances())
def test_legal_moves_and_kernel_match_pairwise_property(inst):
    _assert_moves_and_kernel_match_pairwise(inst)


@settings(max_examples=60, deadline=None)
@given(half_regular_instances())
def test_legal_moves_and_kernel_match_pairwise_half_regular_property(inst):
    _assert_moves_and_kernel_match_pairwise(inst)


def test_legal_moves_and_kernel_match_pairwise_with_c6_moves(f2, f3, roadmap_4x4):
    """Fixed instances with many states and with 6-cycle moves, which small drawn ones rarely have."""
    half_regular_5x5 = core.bipartite_instance(  # 32 states, 198 c4 and 2 c6 moves
        [3] * 5, [3] * 5, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, 5)]
    )
    mixed = core.bipartite_instance(  # 7 states, 16 c4 and 4 c6 moves
        [2, 1, 1, 1], [1, 2, 1, 1], star_center=0, star_leaves=[0],
        matching=[(1, 1), (2, 2), (3, 3)],
    )
    for inst in (f2, f3, roadmap_4x4, half_regular_5x5, mixed):
        _assert_moves_and_kernel_match_pairwise(inst)


def test_exact_kernel_guard(f3):
    with pytest.raises(TooManyStates):
        chain.exact_kernel(f3, max_states=4)


def test_kernel_json_rationals(f2):
    blob = chain.exact_kernel(f2).to_json_dict()
    assert blob["matrix"][0] == ["3/4", "1/4"]
    assert blob["diagnostics"]["symmetry_residual"] == "0/1"


def test_sample_edge_frequency_counts(f2, f2_reals):
    ra, _ = f2_reals
    rng = np.random.Generator(np.random.Philox(9))
    hits, final = chain.sample_edge_frequency(
        f2, ra, (0, f2.w(1)), n_samples=4000, burn_in=200, thin=1, rng=rng
    )
    assert 0.4 <= hits / 4000 <= 0.6
    assert final.instance == f2


@pytest.mark.parametrize("n, r", [(2, 2), (3, 2), (3, 3), (4, 3), (7, 2), (7, 3)])
def test_distinct_draws_in_range(n, r):
    rng = np.random.Generator(np.random.Philox(1))
    draws = chain._distinct_draws(rng, n, 2000, r, 10)
    assert len(draws) == 2000
    for t in draws:
        assert len(t) == r and len(set(t)) == r
        assert all(isinstance(x, int) and 10 <= x < 10 + n for x in t)


@pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (4, 3), (5, 3)])
def test_distinct_draws_uniform_over_sets(n, r):
    rng = np.random.Generator(np.random.Philox(2024))
    sets = {c: 0 for c in combinations(range(n), r)}
    for t in chain._distinct_draws(rng, n, 20_000, r, 0):
        sets[tuple(sorted(t))] += 1
    assert stats.chisquare(list(sets.values())).pvalue >= 1e-4


def test_run_chain_memory_does_not_grow_with_n_cubed():
    n = 300
    inst = core.bipartite_instance(
        [3] * n, [3] * n, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, n)]
    )
    start = construct.greedy_construct(inst)
    for steps in (0, 20_000):
        tracemalloc.start()
        try:
            chain.run_chain(inst, start, steps, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"{steps} steps peaked at {peak} bytes"
