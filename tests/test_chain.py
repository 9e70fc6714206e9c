import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rds_kit import chain, construct, core
from rds_kit.core import Realization
from rds_kit.errors import (
    InstanceTooSmall, NotAChord, NotAdjacent, PreconditionViolated, TooManyStates, ValidationError,
)
from rds_kit.oracle import CHAIN_MOVES, build_realization_graph, enumerate_all

from conftest import MATCHED_CENTER, half_regular_instances, star_matching_instances


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


def test_run_chain_refuses_a_start_of_another_instance(f3, f2_reals):
    ra, _ = f2_reals
    with pytest.raises(PreconditionViolated, match="different instance"):
        chain.run_chain(f3, ra, 10, seed=0)


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


def _one_try(inst, state, try_, hexagons=()):
    """The edges after one try of the edge walker on `state`; its cells and slots must still agree."""
    cells, slots = chain._state(inst, state, 1)
    chain._walk(cells, slots, inst.n_u, [try_], list(hexagons))
    assert all(cells[c] == s for s, c in enumerate(slots))
    assert sum(v >= 0 for v in cells) == len(slots)
    [after] = chain._from_slots(inst, slots, 1)
    return after.edges


def _permutation_blocks(inst, utriple):
    """Every W-triple (global ids) whose forbidden block with `utriple` is a permutation."""
    partners = inst.forbidden_partners
    return {
        wtriple
        for wtriple in combinations(range(inst.n_u, inst.n_vertices), 3)
        if all(len(partners[u] & set(wtriple)) == 1 for u in utriple)
        and all(len(partners[w] & set(utriple)) == 1 for w in wtriple)
    }


def _assert_tries_match_moves(inst):
    """Every try of the edge walker at every state moves as try_c4/try_c6 say,
    and the one-step law it gives each legal move is exactly _move_probability.

    The 4-cycle tries are all ordered pairs of edge slots, the 6-cycle tries
    all sorted U-triples with every index below kappa.  The rule picks a
    hexagon at indices 0, 1, ... for each permutation block of a U-triple, in
    ascending order of the blocks, and at no other index.
    """
    theta4, theta6, kappa = chain.try_rates(inst)
    n_u, partners = inst.n_u, inst.forbidden_partners
    utriples = list(combinations(range(n_u), 3))
    grid = [(t, i) for t in utriples for i in range(kappa)]
    live, cells = chain._c6_cells(
        chain._partner_table(inst),
        np.array([t for t, _ in grid], dtype=np.int64).reshape(-1, 3),
        np.array([i for _, i in grid], dtype=np.int64),
    )
    hexagons = {t: [] for t in utriples}
    for (t, i), hexagon in zip([g for g, on in zip(grid, live) if on], cells.tolist()):
        assert i == len(hexagons[t])
        hexagons[t].append(hexagon)
    for t in utriples:
        picked = [tuple(sorted({c // n_u + n_u for c in h})) for h in hexagons[t]]
        assert picked == sorted(_permutation_blocks(inst, t))
    assert kappa == max((len(h) for h in hexagons.values()), default=0)
    for state in enumerate_all(inst):
        edges = state.edges
        n_edges = len(edges)
        law = {}
        cells, slots = chain._state(inst, state, 1)
        for e1, e2 in permutations(range(n_edges), 2):
            (u1, w1), (u2, w2) = [(c % n_u, c // n_u + n_u) for c in (slots[e1], slots[e2])]
            toggle = None
            if u1 != u2 and w1 != w2:
                toggle = chain.try_c4(partners, edges, (u1, u2), (w1, w2))
            after = _one_try(inst, state, (0, e1, e2))
            assert after == (edges if toggle is None else edges.symmetric_difference(toggle))
            if toggle is not None:
                law[after] = law.get(after, 0) + theta4 / (n_edges * (n_edges - 1))
        for utriple in utriples:
            for i in range(kappa):
                if i >= len(hexagons[utriple]):
                    continue  # a lazy step: the walker drops it unwalked
                hexagon = hexagons[utriple][i]
                wtriple = tuple(sorted({c // n_u + n_u for c in hexagon}))
                toggle = chain.try_c6(partners, edges, utriple, wtriple)
                after = _one_try(inst, state, (0, 0, -1), [hexagon])
                assert after == (edges if toggle is None else edges.symmetric_difference(toggle))
                if toggle is not None:
                    law[after] = law.get(after, 0) + theta6 / (len(utriples) * kappa)
        expected = {
            edges.symmetric_difference(toggle): chain._move_probability(inst, kind)
            for kind, toggle in chain.legal_moves(inst, edges)
        }
        assert law == expected, state.key


def test_c6_moves_reverse_directed_triangles():
    """On digraphs, the 6-cycle moves are Greenhill's triangle reversals.

    Through to_directed every c6 move turns a directed 3-cycle into its
    reverse, and every directed 3-cycle whose reverse arcs are all absent is
    reversed by exactly one c6 move.
    """
    inst = core.from_directed([2] * 5, [2] * 5)
    states = enumerate_all(inst)
    n_moves = n_triangles = 0
    for state in states:
        arcs = set(core.to_directed(state))
        reversed_by_moves = []
        for kind, toggle in chain.legal_moves(inst, state.edges):
            if kind != "c6":
                continue
            after_state = core.realization_from_global_edges(
                inst, state.edges.symmetric_difference(toggle)
            )
            after = set(core.to_directed(after_state))
            gone, new = arcs - after, after - arcs
            assert new == {(y, x) for x, y in gone}
            x, y = min(gone)
            [z] = {v for arc in gone for v in arc} - {x, y}
            assert gone == {(x, y), (y, z), (z, x)}
            reversed_by_moves.append(frozenset(gone))
        triangles = {
            frozenset({(x, y), (y, z), (z, x)})
            for x, y in arcs
            for z in range(inst.n_u)
            if (y, z) in arcs and (z, x) in arcs
            and not {(y, x), (z, y), (x, z)} & arcs
        }
        assert sorted(reversed_by_moves, key=sorted) == sorted(triangles, key=sorted)
        n_moves += len(reversed_by_moves)
        n_triangles += len(triangles)
    assert (len(states), n_moves, n_triangles) == (216, 360, 360)


def _component_count(inst, kinds):
    """Components of the state graph whose edges are the legal moves of the given kinds."""
    unseen = {state.edges for state in enumerate_all(inst)}
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            edges = stack.pop()
            for kind, toggle in chain.legal_moves(inst, edges):
                after = edges.symmetric_difference(toggle)
                if kind in kinds and after in unseen:
                    unseen.discard(after)
                    stack.append(after)
    return count


def test_f2_needs_its_6_cycle_moves(f2):
    """Without 6-cycle moves the two derangements of three cannot reach each other."""
    assert _component_count(f2, {"c4"}) == 2
    assert _component_count(f2, {"c4", "c6"}) == 1
    assert build_realization_graph(f2, CHAIN_MOVES).is_connected()


# 4 states; u0 has two forbidden partners and w0 two, so a 3x3 block can have
# one entry in every row but none in some column
TWO_LEAF_STAR = core.bipartite_instance(
    [2] * 4, [2] * 4, star_center=0, star_leaves=[0, 1], matching=[(2, 0), (3, 3)]
)
# 189 states, 216 c6 moves; kappa = 2, as each U-triple with u0 has a W-triple for either leaf
WIDE_STAR = core.bipartite_instance(
    [2] * 5, [2] * 5, star_center=0, star_leaves=[0, 1], matching=[(1, 2), (2, 3), (3, 4)]
)


def test_cell_rule_matches_try_moves(f2, f3, roadmap_4x4):
    for inst in (f2, f3, roadmap_4x4, HALF_REGULAR_5X5, MIXED, TWO_LEAF_STAR, WIDE_STAR, MATCHED_CENTER):
        _assert_tries_match_moves(inst)
    assert [chain.try_rates(inst)[2] for inst in (TWO_LEAF_STAR, WIDE_STAR, MATCHED_CENTER)] == [0, 2, 3]


@settings(max_examples=30, deadline=None)
@given(half_regular_instances())
def test_cell_rule_matches_try_moves_half_regular_property(inst):
    _assert_tries_match_moves(inst)


def _assert_try_rates_at_most_one(inst):
    theta4, theta6, kappa = chain.try_rates(inst)
    utriples = combinations(range(inst.n_u), 3)
    assert kappa == max((len(_permutation_blocks(inst, t)) for t in utriples), default=0)
    states = enumerate_all(inst)
    if theta4 + theta6 > 1:  # then the walker stays put, which is exact only without moves
        assert not any(next(chain.legal_moves(inst, s.edges), None) for s in states)
    if len(states) >= 2:
        assert theta4 + theta6 <= 1


@settings(max_examples=150, deadline=None)
@given(star_matching_instances())
def test_try_rates_at_most_one_property(inst):
    _assert_try_rates_at_most_one(inst)


@settings(max_examples=60, deadline=None)
@given(half_regular_instances())
def test_try_rates_at_most_one_half_regular_property(inst):
    _assert_try_rates_at_most_one(inst)


@pytest.mark.parametrize("u, w", [([2, 2], [2, 2]), ([3, 3], [2, 2, 2])])
def test_walker_stays_where_rates_exceed_one(u, w):
    """Complete 2x2 and 2x3 graphs: theta4 > 1, one state, and no step is tried."""
    inst = core.bipartite_instance(u, w)
    theta4, theta6, _ = chain.try_rates(inst)
    assert theta4 > 1 and theta6 == 0 and len(enumerate_all(inst)) == 1
    start = construct.greedy_construct(inst)
    assert chain.walk_chains(inst, start, 1000, seed=0, chains=3) == ([start] * 3, 0)


def test_no_forbidden_pair_has_no_hexagon_and_an_exact_kernel():
    """2-regular 4x4 bipartite graphs with no star and no matching: KTV's plain case."""
    inst = core.bipartite_instance([2] * 4, [2] * 4)
    _, theta6, kappa = chain.try_rates(inst)
    assert kappa == 0 and theta6 == 0
    report = chain.exact_kernel(inst)
    assert report.size == 90
    diag = report.diagnostics()
    assert diag["symmetry_residual"] == 0 and diag["row_sum_residual"] == 0
    assert diag["min_diagonal"] >= Fraction(1, 2) and diag["uniform_stationary"]


def _chi_square_against_kernel(inst, steps, chains, seed):
    """p-value of the end states of `chains` walks of `steps` steps from the greedy
    state against the exact row of P^steps; bins expecting fewer than 5 are pooled."""
    report = chain.exact_kernel(inst)
    start = construct.greedy_construct(inst)
    row = np.linalg.matrix_power(report.dense(), steps)[report.states.index(start)]
    index = {s.edges: i for i, s in enumerate(report.states)}
    counts = np.zeros(len(row))
    for end in chain.run_chain(inst, start, steps, seed, chains=chains):
        counts[index[end.edges]] += 1
    expected = row * chains
    small = expected < 5
    observed = np.append(counts[~small], counts[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    keep = expected > 0
    return stats.chisquare(observed[keep], expected[keep] * observed.sum() / expected[keep].sum()).pvalue


@pytest.mark.parametrize("name, steps, seed", [
    ("MIXED", 5, 101), ("HALF_REGULAR_5X5", 30, 102), ("WIDE_STAR", 10, 103), ("WIDE_STAR", 60, 104),
])
def test_end_states_follow_exact_kernel_power(name, steps, seed):
    """Criterion 7 in the small: T-step end states against the exact P^T row."""
    inst = {"MIXED": MIXED, "HALF_REGULAR_5X5": HALF_REGULAR_5X5, "WIDE_STAR": WIDE_STAR}[name]
    assert _chi_square_against_kernel(inst, steps, chains=20_000, seed=seed) >= 1e-4


@settings(max_examples=40, deadline=None)
@given(half_regular_instances(), st.integers(1, 6), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_walk_keeps_chains_apart_property(inst, chains, steps, seed):
    """The start's slots read back as the start; each chain's slots stay in its
    own cells, every slot's cell names it back, and every chain ends in a
    realization."""
    start = construct.greedy_construct(inst)
    cells, slots = chain._state(inst, start, chains)
    assert chain._from_slots(inst, slots, chains) == [start] * chains
    chain._advance(inst, cells, slots, steps, np.random.Generator(np.random.Philox(seed)))
    size, per = inst.n_u * inst.n_w, len(slots) // chains
    assert all(c // size == s // per for s, c in enumerate(slots))
    assert all(cells[c] == s for s, c in enumerate(slots))
    assert sum(v >= 0 for v in cells) == len(slots)
    assert all(v == -2 for v, f in zip(cells, np.tile(inst.forbidden_mask.ravel(), chains)) if f)
    assert len(chain._from_slots(inst, slots, chains)) == chains


def test_probe_reads_the_walked_states(f3):
    """Probing every cell of the same walk rebuilds a path of states, each one
    legal move or none from the last; thinning keeps every thin-th read."""
    start = construct.greedy_construct(f3)
    size, steps = f3.n_u * f3.n_w, 600

    def reads(probe, every):
        cells, slots = chain._state(f3, start, 1)
        rng = np.random.Generator(np.random.Philox(77))
        at = np.arange(every - 1, steps, every)
        tries, seen = chain._advance(f3, cells, slots, steps, rng, probe, at)
        return tries, seen, slots

    per_cell = [reads(c, 1)[1] for c in range(size)]
    states = [
        frozenset((c % f3.n_u, c // f3.n_u + f3.n_u) for c in range(size) if per_cell[c][t])
        for t in range(steps)
    ]
    known = {s.edges for s in enumerate_all(f3)}
    moves = 0
    for before, after in zip([start.edges, *states], states):
        assert after in known
        if after != before:
            assert chain.classify_move(Realization(f3, before), Realization(f3, after)) is not None
            moves += 1
    tries, _, slots = reads(0, 1)
    assert 0 < moves <= tries
    assert states[-1] == chain._from_slots(f3, slots, 1)[0].edges
    assert reads(5, 3)[1] == per_cell[5][2::3]


# SHA-256 of the end states of single chains (n = 5, 30 and 150, seeds 0-2),
# as the edge walker writes them.
SINGLE_CHAIN_SHA256 = "93043c5323265038fe45af863cabc829c0a8c3715f600bf543029f53ff086d6b"


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


# SHA-256 of the end states of 50 chains of 400 steps (seeds 0-2) on instances
# with kappa > 1, where the order of a U-triple's hexagons decides the trajectory.
@pytest.mark.parametrize("inst, expected", [
    (WIDE_STAR, "464a96a58331ef9d58942c44f42abab535171fa5fb2641de61d479de9af034c1"),
    (MATCHED_CENTER, "d9cab4600e8fe79efffce0b50aefeccaa24d7918049a85997684425146ff9a7f"),
], ids=["WIDE_STAR", "MATCHED_CENTER"])
def test_walker_index_order_matches_pinned_digest(inst, expected):
    start = construct.greedy_construct(inst)
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        for end in chain.run_chain(inst, start, 400, seed, chains=50):
            digest.update(repr(end.key).encode())
    assert digest.hexdigest() == expected


def test_run_chain_many_chains(f2, f2_reals):
    ra, rb = f2_reals
    ends = chain.run_chain(f2, ra, 60, seed=5, chains=400)
    assert ends == chain.run_chain(f2, ra, 60, seed=5, chains=400)
    assert {end.key for end in ends} == {ra.key, rb.key}
    assert 0.42 <= sum(end.key == ra.key for end in ends) / 400 <= 0.58
    with pytest.raises(PreconditionViolated):
        chain.run_chain(f2, ra, 60, seed=5, chains=0)


def test_from_slots_checks_every_state(f2, f2_reals):
    """A slot of the second chain moved onto a forbidden cell, to a free cell in
    another row or column, or onto another slot raises as the dense check did."""
    ra, rb = f2_reals
    size = f2.n_u * f2.n_w
    slots = chain._state(f2, ra, 1)[1] + [size + c for c in chain._state(f2, rb, 1)[1]]
    assert chain._from_slots(f2, slots, 2) == [ra, rb]
    assert slots[3:] == [size + 1, size + 5, size + 6]  # rb: u1-w0, u2-w1, u0-w2
    for cell, error, message in (
        (0, NotAChord, "pair (0, 3) is not a chord"),  # onto the forbidden u0-w0
        (2, ValidationError, "vertex 1 has degree 0, instance demands 1"),  # to u2, same row
        (7, ValidationError, "vertex 3 has degree 0, instance demands 1"),  # to w2, same column
        (5, ValidationError, "vertex 1 has degree 0, instance demands 1"),  # onto another slot
    ):
        moved = slots[:3] + [size + cell] + slots[4:]
        with pytest.raises(error) as raised:
            chain._from_slots(f2, moved, 2)
        assert str(raised.value) == message


@settings(max_examples=60, deadline=None)
@given(star_matching_instances(), st.integers(1, 6))
@example(core.bipartite_instance([0, 0], [0, 0]), 3)
def test_state_round_trip_property(inst, chains):
    """The slots of K copies of a realization read back as K copies of it."""
    for start in enumerate_all(inst):
        assert chain._from_slots(inst, chain._state(inst, start, chains)[1], chains) == [start] * chains


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
