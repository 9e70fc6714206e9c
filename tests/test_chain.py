import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rds_kit import chain, construct, core
from rds_kit.errors import (
    InstanceTooSmall, NotAChord, NotAdjacent, PreconditionViolated, TooManyStates, ValidationError,
)
from rds_kit.oracle import enumerate_all

from conftest import half_regular_instances, star_matching_instances


def test_run_chain_reaches_both_states(f2, f2_reals):
    ra, rb = f2_reals
    seen = {
        chain.run_chain(f2, ra, steps, seed=seed)[0].key
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
    assert chain.run_chain(f2, ra, 0, seed=3)[0].key == ra.key


def test_run_chain_deterministic(f3):
    start = enumerate_all(f3)[0]
    [a] = chain.run_chain(f3, start, 500, seed=42)
    [b] = chain.run_chain(f3, start, 500, seed=42)
    [c] = chain.run_chain(f3, start, 500, seed=43)
    assert a.key == b.key
    assert isinstance(c.key, tuple)


def test_run_chain_f2_frequency(f2, f2_reals):
    # exact kernel is two-state symmetric: long-run frequency of Ra near 1/2
    ra, _ = f2_reals
    hits = 0
    n = 400
    for seed in range(n):
        [final] = chain.run_chain(f2, ra, 60, seed=seed)
        hits += final.key == ra.key
    assert 0.42 <= hits / n <= 0.58


def test_propose_step_single_state_instance(f4):
    # every single proposal on F4 is rejected, so one-step runs chained together never move
    r4 = core.make_realization(f4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)])
    state = r4
    for seed in range(50):
        [state] = chain.run_chain(f4, state, 1, seed=seed)
        assert state.key == r4.key


def test_run_chain_single_state(f4):
    r4 = core.make_realization(f4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)])
    for seed in range(5):
        for steps in (1, 50, 1000):
            assert chain.run_chain(f4, r4, steps, seed=seed)[0].key == r4.key


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


# fixed instances with many states and with 6-cycle moves, which small drawn ones rarely have
HALF_REGULAR_5X5 = core.bipartite_instance(  # 32 states, 198 c4 and 2 c6 moves
    [3] * 5, [3] * 5, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, 5)]
)
MIXED = core.bipartite_instance(  # 7 states, 16 c4 and 4 c6 moves
    [2, 1, 1, 1], [1, 2, 1, 1], star_center=0, star_leaves=[0],
    matching=[(1, 1), (2, 2), (3, 3)],
)


def test_legal_moves_and_kernel_match_pairwise_with_c6_moves(f2, f3, roadmap_4x4):
    for inst in (f2, f3, roadmap_4x4, HALF_REGULAR_5X5, MIXED):
        _assert_moves_and_kernel_match_pairwise(inst)


def _assert_cell_rule_matches_try_moves(inst):
    """Each ordered draw's row, run alone through the walker, moves as try_c4/try_c6 say.

    The rows of all draws of one kind are built as one block of one chain; a
    draw the builder drops must be illegal at every state.
    """
    states = enumerate_all(inst)
    n_u = inst.n_u
    for r, try_move in ((2, chain.try_c4), (3, chain.try_c6)):
        us = list(permutations(range(n_u), r))
        ws = list(permutations(range(inst.n_w), r))
        draws = [(u, w) for u in us for w in ws]
        u_arr = np.array([u for u, _ in draws]).reshape(-1, r)
        w_arr = np.array([w for _, w in draws]).reshape(-1, r)
        at = np.arange(len(draws))
        none = (at[:0], np.zeros((0, 5 - r), dtype=np.int64), np.zeros((0, 5 - r), dtype=np.int64))
        arrays = (at, u_arr, w_arr, *none) if r == 2 else (*none, at, u_arr, w_arr)
        rows, steps = chain._block_rows(inst, 1, *arrays)
        row_of = dict(zip(steps.tolist(), rows[:, None]))
        for state in states:
            start = bytearray(state.matrix.tobytes())
            for i, (utuple, wtuple) in enumerate(draws):
                wglobal = tuple(w + n_u for w in wtuple)
                toggle = try_move(inst.forbidden_partners, state.edges, utuple, wglobal)
                cells = bytearray(start)
                applied = chain._walk(cells, row_of[i]) if i in row_of else []
                if toggle is None:
                    assert applied == [] and cells == start, (state.key, utuple, wtuple)
                else:
                    assert applied == [0]
                    [after] = chain._from_cells(inst, cells)
                    assert after.edges == state.edges.symmetric_difference(toggle), (utuple, wtuple)


# 4 states; u0 has two forbidden partners and w0 two, so a 3x3 block can have
# one entry in every row but none in some column
TWO_LEAF_STAR = core.bipartite_instance(
    [2] * 4, [2] * 4, star_center=0, star_leaves=[0, 1], matching=[(2, 0), (3, 3)]
)


def test_cell_rule_matches_try_moves(f2, f3, roadmap_4x4):
    for inst in (f2, f3, roadmap_4x4, HALF_REGULAR_5X5, MIXED, TWO_LEAF_STAR):
        _assert_cell_rule_matches_try_moves(inst)


@settings(max_examples=30, deadline=None)
@given(half_regular_instances())
def test_cell_rule_matches_try_moves_half_regular_property(inst):
    _assert_cell_rule_matches_try_moves(inst)


@settings(max_examples=40, deadline=None)
@given(half_regular_instances(), st.integers(2, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_block_rows_keep_chains_apart_property(inst, chains, steps, seed):
    """Chain k's rows index only its own cells, keep its step order, and are
    the rows its own draws give as a block of one chain."""
    rng = np.random.Generator(np.random.Philox(seed))
    at4, u4, w4, at6, u6, w6 = chain._draw_block(inst, rng, steps, chains)
    rows, at = chain._block_rows(inst, chains, at4, u4, w4, at6, u6, w6)
    size = inst.n_u * inst.n_w
    owner = at % chains
    assert (rows // size == owner[:, None]).all()
    for k in range(chains):
        assert (np.diff(at[owner == k]) > 0).all()
        mine4, mine6 = at4 % chains == k, at6 % chains == k
        alone, alone_at = chain._block_rows(
            inst, 1, at4[mine4] // chains, u4[mine4], w4[mine4], at6[mine6] // chains, u6[mine6], w6[mine6]
        )
        assert (rows[owner == k] - k * size == alone).all()
        assert (at[owner == k] // chains == alone_at).all()


# SHA-256 of the end states of single chains (n = 5, 30 and 150, seeds 0-2),
# as the one-chain walker wrote them before run_chain walked many chains at once.
SINGLE_CHAIN_SHA256 = "c426e806be26fde34cc6b0a508d0fb8c944a4a36dcbb2c8736bd408240fddf07"


def test_single_chain_end_states_match_pinned_digest():
    digest = hashlib.sha256()
    for n, d, steps in ((5, 2, 3000), (30, 3, 20_000), (150, 10, 20_000)):
        inst = core.bipartite_instance(
            [d] * n, [d] * n, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, n)]
        )
        start = construct.greedy_construct(inst)
        for seed in (0, 1, 2):
            [end] = chain.run_chain(inst, start, steps, seed, chains=1)
            digest.update(repr(end.key).encode())
    assert digest.hexdigest() == SINGLE_CHAIN_SHA256


def test_run_chain_many_chains(f2, f2_reals):
    ra, rb = f2_reals
    ends = chain.run_chain(f2, ra, 60, seed=5, chains=400)
    assert ends == chain.run_chain(f2, ra, 60, seed=5, chains=400)
    assert {end.key for end in ends} == {ra.key, rb.key}
    assert 0.42 <= sum(end.key == ra.key for end in ends) / 400 <= 0.58
    with pytest.raises(PreconditionViolated):
        chain.run_chain(f2, ra, 60, seed=5, chains=0)


def test_from_cells_checks_every_state(f2, f2_reals):
    ra, rb = f2_reals
    good = ra.matrix.tobytes()
    assert chain._from_cells(f2, bytearray(good + rb.matrix.tobytes())) == [ra, rb]
    diagonal = bytes([1, 0, 0, 0, 1, 0, 0, 0, 1])  # right margins, every edge forbidden
    with pytest.raises(NotAChord):
        chain._from_cells(f2, bytearray(good + diagonal))
    short = bytearray(good)
    short[good.index(1)] = 0  # one edge missing
    with pytest.raises(ValidationError):
        chain._from_cells(f2, bytearray(good) + short)


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
    draws = chain._distinct_draws(rng, n, 2000, r)
    assert draws.shape == (2000, r) and np.issubdtype(draws.dtype, np.integer)
    for t in draws.tolist():
        assert len(set(t)) == r
        assert all(0 <= x < n for x in t)


@pytest.mark.parametrize("n, r", [(4, 2), (5, 2), (4, 3), (5, 3)])
def test_distinct_draws_uniform_over_sets(n, r):
    rng = np.random.Generator(np.random.Philox(2024))
    sets = {c: 0 for c in combinations(range(n), r)}
    for t in chain._distinct_draws(rng, n, 20_000, r).tolist():
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
