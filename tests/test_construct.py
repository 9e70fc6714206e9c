import sys

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from rds_kit import construct, core, swaps
from rds_kit.errors import NotNormal, PreconditionViolated
from rds_kit.oracle import enumerate_all

from conftest import half_regular_instances, subset_bruteforce


# -- neighbor_order ---------------------------------------------------------


def _vertices(order):
    """The vertices of a neighbour order, in order."""
    return [v for _, _, v, _ in order]


def test_neighbor_order_partner_tiebreak(f2):
    # after u0-w1 is placed and u0 deleted: w2 must come before w0
    residuals = {1: 1, 2: 1, f2.w(0): 1, f2.w(1): 0, f2.w(2): 1}
    order = construct.neighbor_order(f2, 1, residuals)
    assert _vertices(order) == [f2.w(2), f2.w(0)]
    entries = {v: (p, -neg_pdeg) for _, neg_pdeg, v, p in order}
    partner, partner_degree = entries[f2.w(0)]
    assert partner is None  # deleted u0 counts as absent
    assert partner_degree == construct.ABSENT_PARTNER_DEGREE
    assert entries[f2.w(2)][0] == 2


def test_neighbor_order_degree_descending():
    inst = core.bipartite_instance([2, 1, 1], [3, 1], matching=[])
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    order = construct.neighbor_order(inst, 0, residuals)
    assert _vertices(order) == [inst.w(0), inst.w(1)]  # degrees 3 > 1


def test_neighbor_order_f4_star_center(f4):
    residuals = {v: f4.degree(v) for v in range(f4.n_vertices)}
    order = construct.neighbor_order(f4, 0, residuals)
    assert _vertices(order) == [f4.w(1), f4.w(2)]


def test_neighbor_order_not_normal():
    # star not yet deleted: w1 pairs with both its matching partner and the center
    inst = core.bipartite_instance(
        [2, 1, 1], [2, 1, 1], star_center=0, star_leaves=[1], matching=[(1, 1)]
    )
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    with pytest.raises(NotNormal):
        construct.neighbor_order(inst, 2, residuals)


def test_neighbor_order_shared_partner_not_normal():
    # two leaves of the same star share the center as forbidden partner
    inst = core.bipartite_instance(
        [1, 1, 1], [1, 1, 1], star_center=0, star_leaves=[0, 1]
    )
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    with pytest.raises(NotNormal):
        construct.neighbor_order(inst, 1, residuals)
    # the center itself sees a normal neighbourhood
    order = construct.neighbor_order(inst, 0, residuals)
    assert _vertices(order) == [inst.w(2)]


# -- greedy_construct -------------------------------------------------------


def test_greedy_f2_returns_ra(f2, f2_reals):
    ra, _ = f2_reals
    assert construct.greedy_construct(f2).key == ra.key


def test_greedy_f5_absent(f5):
    assert construct.greedy_construct(f5) is None


def test_greedy_f4_unique(f4):
    real = construct.greedy_construct(f4)
    assert real.to_pairs() == [[0, 1], [1, 0], [1, 2], [2, 0], [2, 1]]


def test_greedy_respects_explicit_star_center():
    inst = core.bipartite_instance(
        [1, 1, 1], [1, 1, 1], star_center=2, star_leaves=[0, 2], matching=[]
    )
    real = construct.greedy_construct(inst)
    assert real is not None
    assert not real.has_edge(inst.u(2), inst.w(0))
    assert not real.has_edge(inst.u(2), inst.w(2))


def _all_small_instances(k, l, max_degree=2):
    """Every degree pair with equal sums, diagonal sub-matching, star subset at u0."""
    from itertools import product

    diag = list(range(min(k, l)))
    for u_deg in product(range(max_degree + 1), repeat=k):
        for w_deg in product(range(max_degree + 1), repeat=l):
            if sum(u_deg) != sum(w_deg):
                continue
            for m_bits in range(1 << len(diag)):
                matching = [(i, i) for i in diag if m_bits >> i & 1]
                for s_bits in range(1 << l):
                    leaves = [j for j in range(l) if s_bits >> j & 1]
                    try:
                        yield core.bipartite_instance(
                            u_deg, w_deg, star_center=0, star_leaves=leaves, matching=matching
                        )
                    except core.ValidationError:
                        continue


def test_greedy_completeness_small_bipartite():
    checked = 0
    for inst in _all_small_instances(2, 3):
        expected = len(subset_bruteforce(inst)) > 0
        assert (construct.greedy_construct(inst) is not None) == expected
        checked += 1
    assert checked > 400


def test_greedy_general_avoids_spending_both_pair_endpoints():
    # degrees tie completely; taking both of one forbidden pair strands the other
    inst = core.general_instance([1, 1, 1, 1, 2], star_center=4, matching=[(0, 1), (2, 3)])
    assert len(subset_bruteforce(inst)) == 4
    real = construct.greedy_construct(inst)
    assert real is not None
    picked = {a if b == 4 else b for (a, b) in real.edges if 4 in (a, b)}
    assert picked not in ({0, 1}, {2, 3})


def test_greedy_completeness_small_general():
    from itertools import product

    checked = 0
    for degs in product(range(3), repeat=4):
        if sum(degs) % 2:
            continue
        for matching in ([], [(1, 2)], [(1, 2), (0, 3)]):
            for leaves in ([], [1], [1, 3]):
                try:
                    inst = core.general_instance(
                        degs, star_center=0, star_leaves=leaves, matching=matching
                    )
                except core.ValidationError:
                    continue
                expected = len(subset_bruteforce(inst)) > 0
                got = construct.greedy_construct(inst)
                assert (got is not None) == expected, core.instance_to_json(inst)
                if got is not None:
                    assert len(enumerate_all(inst)) > 0
                checked += 1
    assert checked > 100


def _alive_partner_by_scan(inst, y, residuals):
    """Reference: scan the raw star and matching fields for the alive partners of y."""
    pairs = set(inst.matching)
    if inst.star_center is not None:
        pairs |= {core.norm_pair(inst.star_center, leaf) for leaf in inst.star_leaves}
    partners = [
        (b if a == y else a)
        for a, b in pairs
        if y in (a, b) and (b if a == y else a) in residuals
    ]
    if len(partners) > 1:
        raise NotNormal(f"vertex {y} has forbidden partners {sorted(partners)}")
    return partners[0] if partners else None


def _select_by_min(order, need):
    """Reference: re-rank the whole pool before every pick."""
    pool = list(order)
    chosen = []
    while len(chosen) < need:
        if not pool:
            return None
        neg_deg, _, v, _ = pool.pop(
            min(
                range(len(pool)),
                key=lambda i: (pool[i][0], pool[i][1], pool[i][3] in chosen, pool[i][2]),
            )
        )
        if -neg_deg <= 0:
            return None
        chosen.append(v)
    return chosen


def _half_regular(n, d):
    return core.bipartite_instance(
        [d] * n, [d] * n, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, n)]
    )


def test_alive_partner_matches_forbidden_scan():
    import random

    rng = random.Random(3)
    instances = [
        _half_regular(6, 2),
        core.bipartite_instance([2, 1, 1], [2, 1, 1], star_center=0, star_leaves=[1], matching=[(1, 1)]),
        core.general_instance([1, 1, 1, 1, 2], star_center=4, matching=[(0, 1), (2, 3)]),
        core.general_instance([2, 2, 1, 1, 2], star_center=0, star_leaves=[1, 3], matching=[(1, 2), (3, 4)]),
    ]
    checked = 0
    for inst in instances:
        for _ in range(100):
            residuals = {
                v: rng.randrange(3) for v in range(inst.n_vertices) if rng.random() < 0.7
            }
            for y in range(inst.n_vertices):
                try:
                    expected = _alive_partner_by_scan(inst, y, residuals)
                except NotNormal:
                    with pytest.raises(NotNormal):
                        construct._alive_partner(inst, y, residuals)
                    continue
                assert construct._alive_partner(inst, y, residuals) == expected
                checked += 1
    assert checked > 1000


def _select_neighbors(order, need):
    """Reference: the first `need` vertices of the order, re-breaking exact ties away from spent pairs.

    On general instances both endpoints of a forbidden pair can sit in one
    neighbourhood; taking both wastes the exclusion and can strand the other
    pairs, so within a (degree, partner-degree) tie the first candidate whose
    partner is not yet chosen goes first.  Bipartite neighbourhoods never
    contain a partner, so there the result is exactly the order prefix.
    """
    pool = list(order)
    chosen: list[int] = []
    while len(chosen) < need:
        if not pool:
            return None
        best = 0
        for i, (neg_deg, neg_pdeg, _, partner) in enumerate(pool):
            if (neg_deg, neg_pdeg) != pool[0][:2]:
                break
            if partner not in chosen:
                best = i
                break
        neg_deg, _, y, _ = pool.pop(best)
        if neg_deg >= 0:
            return None
        chosen.append(y)
    return chosen


def _reference_greedy(inst):
    """Reference: the greedy that sorts the whole neighbour order of every processed vertex."""
    center = inst.effective_star_center
    last = inst.n_u if inst.is_bipartite_like else inst.n_vertices
    process = [center] + [v for v in range(last) if v != center]
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    edges: set[tuple[int, int]] = set()
    for x in process:
        chosen = _select_neighbors(construct.neighbor_order(inst, x, residuals), residuals[x])
        if chosen is None:
            return None
        for y in chosen:
            edges.add(core.norm_pair(x, y))
            residuals[y] -= 1
        del residuals[x]
    if any(residuals.values()):
        return None
    return core.realization_from_global_edges(inst, edges)


def _outcome(greedy, inst):
    """The edge set or None a greedy returns, or the class and message of what it raises."""
    try:
        real = greedy(inst)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return None if real is None else real.edges


def _assert_matches_reference(inst):
    expected = _outcome(_reference_greedy, inst)
    assert _outcome(construct.greedy_construct, inst) == expected, inst
    return expected


@pytest.mark.parametrize("n", [10, 30, 100])
def test_greedy_matches_reference_greedy(monkeypatch, n):
    # the reference, itself run with a scanning partner lookup and a
    # re-ranking selection, against the heap greedy
    for d in (2, n // 3):
        inst = _half_regular(n, d)
        got = construct.greedy_construct(inst)
        with monkeypatch.context() as m:
            m.setattr(construct, "_alive_partner", _alive_partner_by_scan)
            m.setattr(sys.modules[__name__], "_select_neighbors", _select_by_min)
            expected = _reference_greedy(inst)
        assert got is not None and got.edges == expected.edges


@settings(max_examples=150, deadline=None)
@given(half_regular_instances())
def test_greedy_matches_reference_half_regular_property(inst):
    assert _assert_matches_reference(inst) is not None


@st.composite
def _general_instances(draw):
    """Valid general instances with near-regular degrees, a star and a matching."""
    n = draw(st.integers(3, 8))
    d = draw(st.integers(1, 3))
    degrees = [d + draw(st.integers(0, 1)) for _ in range(n)]
    degrees[0] += sum(degrees) % 2
    order = draw(st.permutations(range(n)))
    center = order[0]
    leaves = order[1: 1 + draw(st.integers(0, 2))]
    shuffled = draw(st.permutations(range(n)))
    matching = [shuffled[2 * i: 2 * i + 2] for i in range(draw(st.integers(0, n // 2)))]
    try:
        return core.general_instance(degrees, center, leaves, matching)
    except core.ValidationError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_general_instances())
def test_greedy_matches_reference_general_property(inst):
    _assert_matches_reference(inst)


@st.composite
def _directed_instances(draw):
    n = draw(st.integers(2, 7))
    out_degrees = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    in_degrees = draw(st.permutations(out_degrees))
    return core.from_directed(out_degrees, in_degrees)


@settings(max_examples=150, deadline=None)
@given(_directed_instances())
def test_greedy_matches_reference_directed_property(inst):
    _assert_matches_reference(inst)


@st.composite
def _raw_instances(draw):
    """Unvalidated instances: overlapping matchings, odd sums, leaves on either side.

    Bipartite kinds keep their star center in U, as the greedy requires.
    """
    kind = draw(st.sampled_from([core.KIND_BIPARTITE, core.KIND_GENERAL, core.KIND_DIRECTED]))
    if kind == core.KIND_GENERAL:
        n_u = draw(st.integers(2, 7))
        n, w_degrees = n_u, ()
    else:
        n_u = draw(st.integers(1, 5))
        n = n_u + draw(st.integers(1, 5))
        w_degrees = tuple(draw(st.lists(st.integers(0, 3), min_size=n - n_u, max_size=n - n_u)))
    u_degrees = tuple(draw(st.lists(st.integers(0, 3), min_size=n_u, max_size=n_u)))
    center = draw(st.none() | st.integers(0, n_u - 1))
    leaves = draw(st.frozensets(st.integers(0, n - 1).filter(lambda v: v != center)))
    pairs = draw(st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    matching = frozenset(core.norm_pair(a, b) for a, b in pairs if a != b)
    return core.ProblemInstance(kind, u_degrees, w_degrees, center, leaves, matching)


@settings(max_examples=500, deadline=None)
@given(_raw_instances())
def test_greedy_matches_reference_raw_property(inst):
    _assert_matches_reference(inst)


def test_greedy_raises_reference_not_normal_on_raw_instances():
    # w1 is matched to u1 and u2, so it has two alive forbidden partners at u0;
    # w0 and w2 share the partner u1 at u2
    bipartite = core.ProblemInstance(
        core.KIND_BIPARTITE, (1, 1, 1), (1, 1, 1), None, frozenset(), frozenset({(1, 4), (2, 4)})
    )
    shared = core.ProblemInstance(
        core.KIND_BIPARTITE, (0, 1, 1), (1, 0, 1), None, frozenset(), frozenset({(1, 3), (1, 5)})
    )
    general = core.ProblemInstance(
        core.KIND_GENERAL, (1, 1, 1, 1), (), 0, frozenset({1}), frozenset({(1, 2), (2, 3)})
    )
    messages = []
    for inst in (bipartite, shared, general):
        expected = _assert_matches_reference(inst)
        assert expected[0] is NotNormal
        messages.append(expected[1])
    assert messages[0] == "vertex 4 has forbidden partners [1, 2]"
    assert messages[1] == "vertices 3 and 5 share forbidden partner 1"
    assert messages[2] == "vertex 2 has forbidden partners [1, 3]"


# -- graphicality against max-flow ---------------------------------------------


def _flow_graphical(inst):
    """Graphicality of a bipartite-kind instance by max-flow, independent of the greedy.

    The network runs source -> u with capacity d(u), u -> w on every chord
    with capacity 1 and w -> sink with capacity d(w); the instance is
    graphical exactly when the flow saturates every U-degree.  The chords are
    read off the star and the matching here, not off the instance's own index.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    n_u, n = inst.n_u, inst.n_vertices
    chord = np.ones((n_u, inst.n_w), dtype=bool)
    for u, w in inst.matching | {(inst.star_center, leaf) for leaf in inst.star_leaves}:
        chord[u, w - n_u] = False
    us, ws = np.nonzero(chord)
    source, sink = n, n + 1
    rows = np.concatenate([np.full(n_u, source), us, np.arange(n_u, n)])
    cols = np.concatenate([np.arange(n_u), ws + n_u, np.full(n - n_u, sink)])
    caps = np.concatenate([inst.u_degrees, np.ones(len(us)), inst.w_degrees]).astype(np.int32)
    network = csr_matrix((caps, (rows, cols)), shape=(n + 2, n + 2))
    return maximum_flow(network, source, sink).flow_value == sum(inst.u_degrees)


@st.composite
def _irregular_star_matching_instances(draw):
    """Bipartite and directed instances, up to 60 vertices a side, with a star of any size.

    Each U-degree is drawn up to its chord count and the W-degrees share the
    same total within theirs, so every draw is valid.  Drawn W-degrees are
    mostly not graphical, and W-degrees dealt out evenly mostly are.
    """
    directed = draw(st.booleans())
    n_u = draw(st.integers(1, 60))
    n_w = n_u if directed else draw(st.integers(1, 60))
    center = draw(st.integers(0, n_u - 1))
    leaves = draw(st.sets(st.integers(0, n_w - 1), max_size=n_w))
    if directed:
        matching = [(i, i) for i in range(n_u)]
    else:
        u_perm = draw(st.permutations(range(n_u)))
        w_perm = draw(st.permutations(range(n_w)))
        matching = list(zip(u_perm, w_perm))[: draw(st.integers(0, min(n_u, n_w)))]
    forbidden = set(matching) | {(center, j) for j in leaves}
    u_caps = [sum((i, j) not in forbidden for j in range(n_w)) for i in range(n_u)]
    w_caps = [sum((i, j) not in forbidden for i in range(n_u)) for j in range(n_w)]
    u_deg = [draw(st.integers(0, cap)) for cap in u_caps]
    left, w_deg = sum(u_deg), [0] * n_w
    if draw(st.booleans()):
        # deal the total out round robin, so the W-degrees differ by one off full vertices
        while left:
            for j in range(n_w):
                if left and w_deg[j] < w_caps[j]:
                    w_deg[j] += 1
                    left -= 1
    else:
        for j in range(n_w - 1, -1, -1):
            w_deg[j] = draw(st.integers(max(0, left - sum(w_caps[:j])), min(w_caps[j], left)))
            left -= w_deg[j]
    kind = core.KIND_DIRECTED if directed else core.KIND_BIPARTITE
    return core.bipartite_instance(u_deg, w_deg, center, sorted(leaves), matching, kind)


@settings(max_examples=100, deadline=None)
@given(_irregular_star_matching_instances())
def test_greedy_decides_graphicality_as_max_flow_does(inst):
    graphical = _flow_graphical(inst)
    event("graphical" if graphical else "not graphical")
    assert (construct.greedy_construct(inst) is not None) == graphical


def test_greedy_and_max_flow_agree_at_n_1000():
    inst = _half_regular(1000, 5)
    assert _flow_graphical(inst)
    assert construct.greedy_construct(inst) is not None


# -- repair_swap ------------------------------------------------------------


def test_repair_swap_c4_case(f3):
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    circ = construct.repair_swap(real, 0, f3.w(2), f3.w(1))
    assert circ.length == 4
    after = swaps.apply_circuit(real, circ)
    assert after.has_edge(0, f3.w(2)) and not after.has_edge(0, f3.w(1))
    # only the neighbourhood of x changed by {z} -> {y}
    assert {w for (u, w) in after.edges if u == 0} == {f3.w(2)}


def test_repair_swap_degenerate_c6_case():
    # matching pairs (u1,w0) and (u2,w1); x=u0, y=w0, z=w1
    inst = core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(1, 0), (2, 1)])
    real = core.make_realization(inst, [(0, 1), (1, 2), (2, 0)])
    x, y, z = 0, inst.w(0), inst.w(1)
    circ = construct.repair_swap(real, x, y, z)
    assert circ.length == 6
    # circuit w0-u0-w1-u1-w2-u2: its potential pair (u0, w2) is a chord, since u0
    # has no forbidden partner, so the swap is not F-compatible
    assert not swaps.is_f_compatible(inst, circ)
    after = swaps.apply_circuit(real, circ)
    assert after.has_edge(x, y) and not after.has_edge(x, z)
    assert {w for (u, w) in after.edges if u == 0} == {y}


def test_repair_swap_precondition_violations(f3):
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    with pytest.raises(PreconditionViolated):
        construct.repair_swap(real, 0, f3.w(1), f3.w(2))  # xz not an edge
    with pytest.raises(PreconditionViolated):
        construct.repair_swap(real, 0, f3.w(0), f3.w(1))  # xy is forbidden
    # w0's partner u1 is alive and w2 has none, so w0 ranks first at u0 and u2
    inst = core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(1, 0), (2, 1)])
    real = core.make_realization(inst, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(PreconditionViolated, match="strictly precedes"):
        construct.repair_swap(real, 0, inst.w(2), inst.w(0))
    circ = construct.repair_swap(real, 2, inst.w(0), inst.w(2))
    assert set(circ.chords) & real.edges == {(0, inst.w(0)), (2, inst.w(2))}


def test_repair_swap_lemma_exhaustive():
    """Whenever the preconditions hold on a small instance, a repair circuit exists."""
    instances = [
        core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(0, 0), (1, 1), (2, 2)]),
        core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(1, 0), (2, 1)]),
        core.bipartite_instance([2, 1, 1], [2, 1, 1], matching=[(0, 0), (1, 1), (2, 2)]),
        core.bipartite_instance(
            [1, 2, 2], [2, 2, 1], star_center=0, star_leaves=[0], matching=[(1, 1), (2, 2)]
        ),
        core.bipartite_instance([2, 2, 1], [2, 2, 1], matching=[(0, 1), (1, 0)]),
        core.bipartite_instance([1, 1], [1, 1]),
        core.bipartite_instance([2, 1, 1], [1, 1, 1, 1], matching=[(0, 0)]),
        core.general_instance([1, 1, 1, 1], matching=[(0, 1)]),
        core.general_instance([2, 1, 1, 1, 1], star_center=0, star_leaves=[1]),
    ]
    tried = 0
    for inst in instances:
        for real in enumerate_all(inst):
            for x in range(inst.n_u):
                for y in inst.chords_at(x):
                    for z in inst.chords_at(x):
                        if y == z:
                            continue
                        try:
                            circ = construct.repair_swap(real, x, y, z)
                        except PreconditionViolated:
                            continue
                        tried += 1
                        assert circ.length in (4, 6)
                        after = swaps.apply_circuit(real, circ)
                        gamma_before = {a if b == x else b for (a, b) in real.edges if x in (a, b)}
                        gamma_after = {a if b == x else b for (a, b) in after.edges if x in (a, b)}
                        assert gamma_after == (gamma_before - {z}) | {y}
    assert tried > 20
