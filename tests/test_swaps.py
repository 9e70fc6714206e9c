import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rds_kit import chain, core, swaps
from rds_kit.errors import (
    InvalidCircuit,
    NotAChord,
    NotAlternating,
    PreconditionViolated,
    TooLarge,
)
from rds_kit.oracle import build_realization_graph, enumerate_all, ALL_FSWAPS

from conftest import (
    ROADMAP_4X4,
    general_instances,
    half_regular_instances,
    star_matching_instances,
)


@pytest.fixture
def open2x2():
    """Unrestricted 2x2 instance, both perfect matchings realizable."""
    return core.bipartite_instance([1, 1], [1, 1])


# -- circuits and PV pairs --------------------------------------------------


def test_make_circuit_validates(f2):
    with pytest.raises(NotAChord):
        swaps.make_circuit(f2, (0, f2.w(0), 1, f2.w(2)))  # (0, w0) forbidden
    with pytest.raises(InvalidCircuit):
        swaps.make_circuit(f2, (0, f2.w(1)))  # too short
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    assert circ.is_elementary


def test_pv_pairs_c4_empty(open2x2):
    circ = swaps.make_circuit(open2x2, (0, 2, 1, 3))
    assert swaps.pv_pairs(circ) == []
    assert swaps.is_f_compatible(open2x2, circ)  # vacuously


def test_pv_pairs_c6_matches_forbidden_diagonal(f2):
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    got = swaps.pv_pairs(circ)
    assert got == sorted([(0, f2.w(0)), (1, f2.w(1)), (2, f2.w(2))])
    assert swaps.is_f_compatible(f2, circ)


def test_pv_pairs_c8_has_eight():
    inst = core.bipartite_instance([2, 2, 2, 2], [2, 2, 2, 2])
    ws = [inst.w(j) for j in range(4)]
    circ = swaps.make_circuit(inst, (0, ws[0], 1, ws[1], 2, ws[2], 3, ws[3]))
    # independent count: all vertex pairs at odd circular distance > 1
    vs = circ.vertices
    expect = set()
    n = len(vs)
    for p in range(n):
        for q in range(p + 1, n):
            d = min(q - p, n - (q - p))
            if d > 1 and d % 2 == 1:
                expect.add(core.norm_pair(vs[p], vs[q]))
    assert set(swaps.pv_pairs(circ)) == expect
    assert len(swaps.pv_pairs(circ)) == 8


def test_f_compatibility_needs_forbidden_pv(f2):
    open3 = core.bipartite_instance([1, 1, 1], [1, 1, 1])
    circ = swaps.make_circuit(open3, (0, open3.w(1), 2, open3.w(0), 1, open3.w(2)))
    assert not swaps.is_f_compatible(open3, circ)


# -- applying swaps ---------------------------------------------------------


def test_apply_swap_defining_example(open2x2):
    real = core.make_realization(open2x2, [(0, 0), (1, 1)])
    circ = swaps.make_circuit(open2x2, (0, 2, 1, 3))
    after = swaps.apply_circuit(real, circ)
    assert after.to_pairs() == [[0, 1], [1, 0]]
    # involution
    again = swaps.apply_circuit(after, circ)
    assert again.key == real.key


def test_apply_swap_f2_c6(f2, f2_reals):
    ra, rb = f2_reals
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    assert circ.weight == 2
    assert swaps.apply_circuit(ra, circ).key == rb.key


def test_apply_swap_rejects_wrong_phase(f2, f2_reals):
    # the phase is read off the realization: the same circuit leads back from rb
    ra, rb = f2_reals
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    assert swaps.apply_circuit(rb, circ).key == ra.key
    # in the complete 2x2 instance all four chords of the circuit are edges
    full = core.bipartite_instance([2, 2], [2, 2])
    real = core.make_realization(full, [(0, 0), (0, 1), (1, 0), (1, 1)])
    circ = swaps.make_circuit(full, (0, 2, 1, 3))
    with pytest.raises(NotAlternating):
        swaps.check_alternating(real, circ)
    with pytest.raises(NotAlternating):
        swaps.apply_circuit(real, circ)


def test_apply_swap_preserves_degrees_everywhere(f3):
    for real in enumerate_all(f3):
        from rds_kit.oracle import enumerate_fswaps

        for circ in enumerate_fswaps(real):
            after = swaps.apply_circuit(real, circ)
            for v in range(f3.n_vertices):
                assert sum(1 for e in after.edges if v in e) == f3.degree(v)
            assert not after.matrix[f3.forbidden_mask].any()
            assert swaps.apply_circuit(after, circ).key == real.key  # a swap undoes itself


def test_alternating_circuits_are_elementary_and_use_each_chord_once():
    """Over every chord of a general instance a circuit may revisit a vertex, never a chord."""
    inst = core.general_instance(
        [2, 2, 2, 1, 1, 2], star_center=0, star_leaves=[1], matching=[(2, 3), (4, 5)]
    )
    chords_of = [inst.chords_at(v) for v in range(inst.n_vertices)]
    revisits = 0
    for real in enumerate_all(inst):
        for circ in swaps.alternating_circuits(real, chords_of):
            swaps.make_circuit(inst, circ.vertices)  # raises on a repeated chord
            swaps.check_alternating(real, circ)
            assert circ.is_elementary
            revisits += len(set(circ.vertices)) < circ.length
    assert revisits > 0


# -- chain moves as toggles --------------------------------------------------


def test_find_c4_absent_on_forbidden(f2, f2_reals):
    ra, _ = f2_reals
    assert chain.try_c4(f2.forbidden_partners, ra.edges, (0, 1), (f2.w(1), f2.w(2))) is None


def test_find_c4_absent_on_f3(f3):
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert chain.try_c4(f3.forbidden_partners, real.edges, (0, 1), (f3.w(0), f3.w(1))) is None


def test_find_c4_unrestricted(open2x2):
    real = core.make_realization(open2x2, [(0, 0), (1, 1)])
    toggle = chain.try_c4(open2x2.forbidden_partners, real.edges, (0, 1), (2, 3))
    assert toggle is not None and len(toggle) // 2 - 1 == 1
    after = core.realization_from_global_edges(open2x2, real.edges.symmetric_difference(toggle))
    assert after.to_pairs() == [[0, 1], [1, 0]]


def test_find_c6_fswap_f2(f2, f2_reals):
    ra, rb = f2_reals
    toggle = chain.try_c6(f2.forbidden_partners, ra.edges, (0, 1, 2), (f2.w(0), f2.w(1), f2.w(2)))
    assert toggle is not None
    assert ra.edges.symmetric_difference(toggle) == rb.edges


def test_find_c6_fswap_needs_perfect_forbidden_matching(f3):
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    got = chain.try_c6(f3.forbidden_partners, real.edges, (0, 1, 2), (f3.w(0), f3.w(1), f3.w(3)))
    assert got is None


def test_find_c6_fswap_needs_alternation():
    inst = core.bipartite_instance([2, 2, 2], [2, 2, 2], matching=[(0, 0), (1, 1), (2, 2)])
    real = core.make_realization(inst, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    # hexagon chords are all edges: no alternation
    wtriple = (inst.w(0), inst.w(1), inst.w(2))
    assert chain.try_c6(inst.forbidden_partners, real.edges, (0, 1, 2), wtriple) is None


def test_move_finders_against_pattern_bruteforce(f2, f3, roadmap_4x4):
    """try_c4/try_c6 refuse exactly when no legal move exists on those vertices."""
    from itertools import combinations

    for inst in (f2, f3, roadmap_4x4):
        for real in enumerate_all(inst):
            for upair in combinations(range(inst.n_u), 2):
                for wpair in combinations(range(inst.n_u, inst.n_vertices), 2):
                    toggle = chain.try_c4(inst.forbidden_partners, real.edges, upair, wpair)
                    pairs = [(u, w) for u in upair for w in wpair]
                    legal = all(inst.is_chord(*p) for p in pairs) and sorted(
                        p in real.edges for p in pairs
                    ) == [False, False, True, True]
                    if legal:
                        es = {p for p in pairs if p in real.edges}
                        legal = len({v for e in es for v in e}) == 4
                    assert (toggle is not None) == legal
                    if toggle is not None:
                        assert set(toggle) == set(pairs)
            for utr in combinations(range(inst.n_u), 3):
                for wtr in combinations(range(inst.n_u, inst.n_vertices), 3):
                    toggle = chain.try_c6(inst.forbidden_partners, real.edges, utr, wtr)
                    pairs = [(u, w) for u in utr for w in wtr]
                    forbidden = [p for p in pairs if not inst.is_chord(*p)]
                    hexagon = [p for p in pairs if inst.is_chord(*p)]
                    es = [p for p in hexagon if p in real.edges]
                    # the forbidden pairs, and the edges among the other six
                    # chords, each form a perfect matching of the six vertices
                    legal = all(
                        len(ms) == 3 and len({v for e in ms for v in e}) == 6
                        for ms in (forbidden, es)
                    )
                    assert (toggle is not None) == legal
                    if toggle is not None:
                        assert set(toggle) == set(hexagon)
                        after = core.realization_from_global_edges(
                            inst, real.edges.symmetric_difference(toggle)
                        )
                        assert after.edges ^ real.edges == set(hexagon)


# -- symmetric difference ----------------------------------------------------


def test_decompose_equal_realizations(f2, f2_reals):
    ra, _ = f2_reals
    assert swaps.decompose_symmetric_difference(ra, ra) == []


def test_decompose_f2_single_c6(f2, f2_reals):
    ra, rb = f2_reals
    circuits = swaps.decompose_symmetric_difference(ra, rb)
    assert len(circuits) == 1 and circuits[0].length == 6


def test_decompose_partition_and_alternation(f3):
    reals = enumerate_all(f3)
    for G in reals:
        for H in reals:
            circuits = swaps.decompose_symmetric_difference(G, H)
            covered = set()
            for c in circuits:
                assert c.is_elementary
                swaps.check_alternating(G, c)  # raises if not alternating in G
                for ch in c.chords:
                    assert ch not in covered
                    covered.add(ch)
            assert covered == G.edges ^ H.edges


def test_decompose_figure_eight_splits():
    # two 4-cycles sharing only u0: the Euler walk must split at the repeat
    inst = core.bipartite_instance([2, 1, 1], [1, 1, 1, 1])
    G = core.make_realization(inst, [(0, 0), (0, 2), (1, 1), (2, 3)])
    H = core.make_realization(inst, [(0, 1), (0, 3), (1, 0), (2, 2)])
    delta = G.edges ^ H.edges
    assert len(delta) == 8
    circuits = swaps.decompose_symmetric_difference(G, H)
    assert len(circuits) == 2
    assert {ch for c in circuits for ch in c.chords} == delta
    for c in circuits:
        assert c.length == 4
        assert len(set(c.vertices)) == len(c.vertices)  # simple cycles


# -- mc and distance ---------------------------------------------------------


def test_general_kind_full_swap_pipeline():
    """Every realization pair of a general instance is joined by the decomposition."""
    instances = [
        core.general_instance([1, 1, 1, 1]),
        core.general_instance([1, 1, 1, 1], matching=[(0, 1)]),
        core.general_instance([2, 2, 1, 1]),
        core.general_instance([2, 1, 1, 1, 1], star_center=0, star_leaves=[1]),
        core.general_instance([2, 2, 2, 2]),
    ]
    pairs = 0
    for inst in instances:
        reals = enumerate_all(inst)
        for G in reals:
            for H in reals:
                circuits = swaps.decompose_symmetric_difference(G, H)
                cur = G
                total_weight = 0
                for circ in circuits:
                    assert circ.is_elementary
                    total_weight += circ.weight
                    cur = swaps.apply_circuit(cur, circ)
                assert cur.key == H.key
                delta = len(G.edges ^ H.edges)
                assert total_weight == delta // 2 - len(circuits)
                pairs += 1
    assert pairs > 30


def test_general_repeated_vertex_circuit():
    """A length-6 circuit through vertex 0 twice at odd distance is elementary."""
    inst = core.general_instance([2, 1, 1, 1, 1])
    G = core.make_realization(inst, [(0, 1), (0, 2), (3, 4)])
    H = core.make_realization(inst, [(0, 3), (0, 4), (1, 2)])
    circuits = swaps.decompose_symmetric_difference(G, H)
    assert len(circuits) == 1
    circ = circuits[0]
    assert circ.length == 6 and circ.is_elementary
    assert len(set(circ.vertices)) == 5  # one vertex appears twice
    assert circ.weight == 2
    assert swaps.apply_circuit(G, circ).key == H.key


def test_general_kind_distance_against_fswap_graph():
    inst = core.general_instance([2, 2, 2, 2])
    graph = build_realization_graph(inst, ALL_FSWAPS)
    assert graph.size >= 2
    for i, G in enumerate(graph.states):
        dist = graph.shortest_weights_from(i)
        for j, H in enumerate(graph.states):
            assert swaps.swap_distance(G, H) == dist[j]


def test_mc_examples(f2, f2_reals, open2x2):
    ra, rb = f2_reals
    assert swaps.max_alternating_circuit_count(ra, ra) == 0
    assert swaps.max_alternating_circuit_count(ra, rb) == 1
    # disjoint union of two alternating 4-cycles
    inst = core.bipartite_instance([1, 1, 1, 1], [1, 1, 1, 1])
    G = core.make_realization(inst, [(0, 0), (1, 1), (2, 2), (3, 3)])
    H = core.make_realization(inst, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert swaps.max_alternating_circuit_count(G, H) == 2


def test_swap_distance_examples(f2, f2_reals, open2x2):
    ra, rb = f2_reals
    assert swaps.swap_distance(ra, ra) == 0
    assert swaps.swap_distance(ra, rb) == 2
    G = core.make_realization(open2x2, [(0, 0), (1, 1)])
    H = core.make_realization(open2x2, [(0, 1), (1, 0)])
    assert swaps.swap_distance(G, H) == 1


def test_distance_refuses_realizations_of_two_instances(open2x2):
    matched = core.bipartite_instance([1, 1], [1, 1], matching=[(0, 0)])
    crossed = core.bipartite_instance([1, 1], [1, 1], matching=[(0, 1)])
    G = core.make_realization(open2x2, [(0, 0), (1, 1)])
    others = [
        core.make_realization(matched, [(0, 1), (1, 0)]),  # 4 chords apart
        core.make_realization(crossed, [(0, 0), (1, 1)]),  # the same edges
    ]
    for H in others:
        for measure in (swaps.max_alternating_circuit_count, swaps.swap_distance):
            with pytest.raises(PreconditionViolated):
                measure(G, H)


def test_swap_distance_guard(f3):
    reals = enumerate_all(f3)
    G, H = reals[0], reals[-1]
    if len(G.edges ^ H.edges) > 2:
        with pytest.raises(TooLarge):
            swaps.swap_distance(G, H, max_delta=2)


@given(
    st.integers(0, 7),  # matching bitmask over the diagonal
    st.integers(0, 7),  # star-leaf bitmask at u0
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_swap_distance_symmetry_property(m_bits, s_bits, data):
    matching = [(i, i) for i in range(3) if m_bits >> i & 1]
    leaves = [j for j in range(3) if s_bits >> j & 1]
    assume(len(set(leaves) | {j for i, j in matching if i == 0}) < 3)  # u0 keeps a chord
    inst = core.bipartite_instance(
        [1, 1, 1], [1, 1, 1], star_center=0, star_leaves=leaves, matching=matching
    )
    reals = enumerate_all(inst)
    if len(reals) < 2:
        return
    G = data.draw(st.sampled_from(reals))
    H = data.draw(st.sampled_from(reals))
    d = swaps.swap_distance(G, H)
    assert d == swaps.swap_distance(H, G)
    assert d <= len(G.edges ^ H.edges) // 2
    assert (d == 0) == (G.key == H.key)


def test_swap_distance_equals_weighted_shortest_path(f2, f3):
    """The closed-form distance matches Dijkstra over every F-swap edge."""
    for inst in (f2, f3):
        graph = build_realization_graph(inst, ALL_FSWAPS)
        for i, G in enumerate(graph.states):
            dist = graph.shortest_weights_from(i)
            for j, H in enumerate(graph.states):
                assert swaps.swap_distance(G, H) == dist[j]


# -- the circuit count against a closed-trail search ---------------------------


def _closed_trails_through(e0, remaining, colors):
    """Every alternating closed trail within `remaining` through e0, as chord sets.

    A trail may revisit vertices without limit; this is the reference the
    elementary-circuit search of :mod:`rds_kit.swaps` is checked against.
    """
    found = set()
    a, b = e0
    c0 = colors[e0]

    def dfs(cur, used, last_color):
        for other in remaining:
            if other in used or cur not in other or colors[other] == last_color:
                continue
            nxt = other[0] if other[1] == cur else other[1]
            used.add(other)
            if nxt == a and colors[other] != c0:
                found.add(frozenset(used))
            dfs(nxt, used, colors[other])
            used.discard(other)

    dfs(b, {e0}, c0)
    return found


def _reference_circuit_count(G, H):
    """Most closed trails in a partition of E(G) ^ E(H) into alternating closed trails."""
    delta = G.edges ^ H.edges
    colors = {e: e in G.edges for e in delta}
    memo = {}

    def best(remaining):
        if not remaining:
            return 0
        if remaining not in memo:
            memo[remaining] = max(
                1 + best(remaining - trail)
                for trail in _closed_trails_through(min(remaining), remaining, colors)
            )
        return memo[remaining]

    return best(frozenset(delta))


def test_circuit_counts_match_pinned_digest():
    """The count on every ordered pair at most 16 chords apart, on all three kinds."""
    instances = [
        ROADMAP_4X4,
        core.from_directed([2, 1, 1, 1], [1, 2, 1, 1]),
        core.general_instance(
            [2, 2, 2, 1, 1, 2], star_center=0, star_leaves=[1], matching=[(2, 3), (4, 5)]
        ),
    ]
    counts = [
        [
            swaps.max_alternating_circuit_count(G, H)
            for G in states
            for H in states
            if len(G.edges ^ H.edges) <= 16
        ]
        for states in map(enumerate_all, instances)
    ]
    assert [(len(c), sum(c)) for c in counts] == [(225, 282), (49, 46), (121, 132)]
    assert (
        hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        == "e9772f0278bf21b59215e72a4ffd0583ffe1d7c72c477da80a3249394f57e16a"
    )


@pytest.mark.parametrize(
    "instances",
    [star_matching_instances(), half_regular_instances(), general_instances()],
    ids=["star-matching", "half-regular", "general"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_circuit_count_matches_closed_trail_reference(instances, data):
    """Elementary circuits reach the largest closed-trail decomposition."""
    states = enumerate_all(data.draw(instances))
    assume(states)
    G = data.draw(st.sampled_from(states))
    H = data.draw(st.sampled_from(states))
    assume(len(G.edges ^ H.edges) <= 16)
    assert swaps.max_alternating_circuit_count(G, H) == _reference_circuit_count(G, H)
