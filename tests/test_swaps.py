import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rds_kit import chain, core, swaps
from rds_kit.errors import (
    InvalidCircuit,
    NotAChord,
    NotAlternating,
    NotElementary,
    TooLarge,
)
from rds_kit.oracle import build_realization_graph, enumerate_all, ALL_FSWAPS


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
    sw = swaps.swap_from_circuit(real, circ)
    after = swaps.apply_swap(real, sw)
    assert after.to_pairs() == [[0, 1], [1, 0]]
    # involution
    again = swaps.apply_swap(after, sw.inverse())
    assert again.key == real.key


def test_apply_swap_f2_c6(f2, f2_reals):
    ra, rb = f2_reals
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    sw = swaps.swap_from_circuit(ra, circ)
    assert sw.weight == 2
    assert swaps.apply_swap(ra, sw).key == rb.key


def test_apply_swap_rejects_wrong_phase(f2, f2_reals):
    ra, rb = f2_reals
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    sw = swaps.swap_from_circuit(ra, circ)
    with pytest.raises(NotAlternating):
        swaps.apply_swap(rb, sw)


def test_apply_swap_preserves_degrees_everywhere(f3):
    for real in enumerate_all(f3):
        from rds_kit.oracle import enumerate_fswaps

        for sw in enumerate_fswaps(real):
            after = swaps.apply_swap(real, sw)
            for v in range(f3.n_vertices):
                assert sum(1 for e in after.edges if v in e) == f3.degree(v)
            assert not (after.edges & f3.forbidden)


# -- chain moves as toggles --------------------------------------------------


def test_find_c4_absent_on_forbidden(f2, f2_reals):
    ra, _ = f2_reals
    assert chain.try_c4(f2.forbidden, ra.edges, (0, 1), (f2.w(1), f2.w(2))) is None


def test_find_c4_absent_on_f3(f3):
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert chain.try_c4(f3.forbidden, real.edges, (0, 1), (f3.w(0), f3.w(1))) is None


def test_find_c4_unrestricted(open2x2):
    real = core.make_realization(open2x2, [(0, 0), (1, 1)])
    toggle = chain.try_c4(open2x2.forbidden, real.edges, (0, 1), (2, 3))
    assert toggle is not None and len(toggle) // 2 - 1 == 1
    after = core.realization_from_global_edges(open2x2, real.edges.symmetric_difference(toggle))
    assert after.to_pairs() == [[0, 1], [1, 0]]


def test_find_c6_fswap_f2(f2, f2_reals):
    ra, rb = f2_reals
    toggle = chain.try_c6(f2.forbidden, ra.edges, (0, 1, 2), (f2.w(0), f2.w(1), f2.w(2)))
    assert toggle is not None
    assert ra.edges.symmetric_difference(toggle) == rb.edges


def test_find_c6_fswap_needs_perfect_forbidden_matching(f3):
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    got = chain.try_c6(f3.forbidden, real.edges, (0, 1, 2), (f3.w(0), f3.w(1), f3.w(3)))
    assert got is None


def test_find_c6_fswap_needs_alternation():
    inst = core.bipartite_instance([2, 2, 2], [2, 2, 2], matching=[(0, 0), (1, 1), (2, 2)])
    real = core.make_realization(inst, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    # hexagon chords are all edges: no alternation
    wtriple = (inst.w(0), inst.w(1), inst.w(2))
    assert chain.try_c6(inst.forbidden, real.edges, (0, 1, 2), wtriple) is None


def test_move_finders_against_pattern_bruteforce(f2, f3, roadmap_4x4):
    """try_c4/try_c6 refuse exactly when no legal move exists on those vertices."""
    from itertools import combinations

    for inst in (f2, f3, roadmap_4x4):
        for real in enumerate_all(inst):
            for upair in combinations(range(inst.n_u), 2):
                for wpair in combinations(range(inst.n_u, inst.n_vertices), 2):
                    toggle = chain.try_c4(inst.forbidden, real.edges, upair, wpair)
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
                    toggle = chain.try_c6(inst.forbidden, real.edges, utr, wtr)
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


# -- circuit decomposition into F-swaps --------------------------------------


def test_circuit_to_fswaps_c4_base(open2x2):
    real = core.make_realization(open2x2, [(0, 0), (1, 1)])
    circ = swaps.make_circuit(open2x2, (0, 2, 1, 3))
    seq = swaps.elementary_circuit_to_fswaps(real, circ)
    assert len(seq) == 1 and seq[0].weight == 1


def test_circuit_to_fswaps_f2_single(f2, f2_reals):
    ra, _ = f2_reals
    circ = swaps.make_circuit(f2, (0, f2.w(1), 2, f2.w(0), 1, f2.w(2)))
    seq = swaps.elementary_circuit_to_fswaps(ra, circ)
    assert len(seq) == 1 and seq[0].weight == 2


def test_circuit_to_fswaps_unrestricted_c6_splits():
    inst = core.bipartite_instance([1, 1, 1], [1, 1, 1])
    real = core.make_realization(inst, [(0, 0), (1, 1), (2, 2)])
    circ = swaps.make_circuit(inst, (0, inst.w(0), 1, inst.w(1), 2, inst.w(2)))
    seq = swaps.elementary_circuit_to_fswaps(real, circ)
    assert [sw.weight for sw in seq] == [1, 1]
    cur = real
    for sw in seq:
        assert sw.f_compatible
        cur = swaps.apply_swap(cur, sw)
    assert cur.edges == real.edges ^ set(circ.chords)


def test_circuit_to_fswaps_weight_always_half_minus_one(f3):
    from rds_kit.oracle import _alternating_elementary_circuits

    for real in enumerate_all(f3)[:4]:
        for circ in _alternating_elementary_circuits(real, 8):
            seq = swaps.elementary_circuit_to_fswaps(real, circ)
            assert sum(sw.weight for sw in seq) == circ.length // 2 - 1
            cur = real
            for sw in seq:
                cur = swaps.apply_swap(cur, sw)
            assert cur.edges == real.edges ^ set(circ.chords)


def test_circuit_to_fswaps_rejects_non_elementary():
    # figure-eight through u0: the repeat sits at even circuit distance
    inst = core.bipartite_instance([2, 1, 1], [1, 1, 1, 1])
    G = core.make_realization(inst, [(0, 0), (0, 2), (1, 1), (2, 3)])
    w = inst.w
    circ = swaps.make_circuit(inst, (0, w(0), 1, w(1), 0, w(2), 2, w(3)))
    assert not circ.is_elementary
    with pytest.raises(NotElementary):
        swaps.elementary_circuit_to_fswaps(G, circ)


def test_circuit_to_fswaps_rejects_non_alternating(f2, f2_reals):
    ra, _ = f2_reals
    inst = core.bipartite_instance([2, 1, 1], [2, 1, 1])
    real = core.make_realization(inst, [(0, 0), (0, 1), (1, 2), (2, 0)])
    circ = swaps.make_circuit(inst, (0, inst.w(0), 1, inst.w(2)))
    try:
        swaps.swap_from_circuit(real, circ)
        alternating = True
    except NotAlternating:
        alternating = False
    if not alternating:
        with pytest.raises(NotAlternating):
            swaps.elementary_circuit_to_fswaps(real, circ)


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
                swaps.swap_from_circuit(G, c)  # raises if not alternating in G
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
                    seq = swaps.elementary_circuit_to_fswaps(cur, circ)
                    assert sum(sw.weight for sw in seq) == circ.length // 2 - 1
                    total_weight += sum(sw.weight for sw in seq)
                    for sw in seq:
                        assert sw.f_compatible
                        cur = swaps.apply_swap(cur, sw)
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
    seq = swaps.elementary_circuit_to_fswaps(G, circ)
    assert sum(sw.weight for sw in seq) == 2
    cur = G
    for sw in seq:
        cur = swaps.apply_swap(cur, sw)
    assert cur.key == H.key


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
