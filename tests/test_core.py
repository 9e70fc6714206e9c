import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rds_kit import core
from rds_kit.chain import run_chain
from rds_kit.construct import greedy_construct, neighbor_order
from rds_kit.errors import (
    DegreeExceedsChords,
    DegreeSumMismatch,
    ForbiddenSetNotBipartite,
    IndexOutOfRange,
    LengthMismatch,
    NotAChord,
    NotDirectedKind,
    OverlappingMatching,
    PreconditionViolated,
    StarCenterOutOfRange,
    SumMismatch,
    ValidationError,
)
from rds_kit.oracle import enumerate_all
from rds_kit.swaps import make_circuit

from conftest import (
    digraph_bruteforce,
    general_instances,
    half_regular_instances,
    star_matching_instances,
    subset_bruteforce,
)


# -- validate_instance ------------------------------------------------------


def test_validate_f2_description(f2):
    raw = {
        "kind": "bipartite",
        "u_degrees": [1, 1, 1],
        "w_degrees": [1, 1, 1],
        "star_center": None,
        "star_leaves": [],
        "matching": [[0, 0], [1, 1], [2, 2]],
    }
    inst = core.validate_instance(raw)
    assert inst == f2
    assert inst.half_regular


def test_validate_rejects_overlapping_matching():
    with pytest.raises(OverlappingMatching):
        core.bipartite_instance([1, 1], [1, 1], matching=[(0, 0), (0, 1)])


def test_validate_f5_passes_despite_not_graphical(f5):
    # structural validation succeeds; graphicality is a separate question
    assert subset_bruteforce(f5) == []
    assert f5.degree(0) == 2


def test_validate_degree_sum_mismatch():
    with pytest.raises(DegreeSumMismatch):
        core.bipartite_instance([2, 1], [1, 1])


def test_validate_degree_exceeds_class():
    with pytest.raises(DegreeExceedsChords):
        core.bipartite_instance([3, 0], [2, 1])  # u0 demands 3 of 2 slots


def test_validate_degree_exceeds_chords():
    # w0 has two U-neighbours, but u0 is the star's center and w0 its leaf
    with pytest.raises(DegreeExceedsChords, match="vertex 2 demands 2 of 1"):
        core.bipartite_instance([1, 1], [2, 0], star_center=0, star_leaves=[0])
    with pytest.raises(DegreeExceedsChords):
        core.bipartite_instance([3, 0], [1, 1, 1], matching=[(0, 0)])
    with pytest.raises(DegreeExceedsChords):
        core.general_instance([2, 1, 1], matching=[(0, 1)])


def test_validate_star_center_range():
    with pytest.raises(StarCenterOutOfRange):
        core.bipartite_instance([1, 1], [1, 1], star_center=5, star_leaves=[0])
    with pytest.raises(StarCenterOutOfRange):
        core.bipartite_instance([1, 1], [1, 1], star_center=None, star_leaves=[0])


def test_general_forbidden_set_must_be_bipartite():
    # a matching pair between two star leaves closes a triangle
    with pytest.raises(ForbiddenSetNotBipartite):
        core.general_instance([1, 1, 2], star_center=2, star_leaves=[0, 1], matching=[(0, 1)])
    # the same matching pair without the star is fine
    core.general_instance([1, 1, 2, 2], star_center=2, star_leaves=[], matching=[(0, 1)])


def test_star_center_may_also_be_matched():
    inst = core.bipartite_instance(
        [1, 1], [1, 1], star_center=0, star_leaves=[0], matching=[(0, 0)]
    )
    # the leaf w0 is also u0's matching partner: one forbidden pair, held once
    assert inst.forbidden_partners == (frozenset({2}), frozenset(), frozenset({0}), frozenset())
    assert inst.forbidden_mask.sum() == 1
    # a partner held twice would look like two alive partners and raise NotNormal
    alive = {v: inst.degree(v) for v in range(inst.n_vertices)}
    assert [y for _, _, y, _ in neighbor_order(inst, 1, alive)] == [2, 3]
    assert greedy_construct(inst) is not None


# -- chord queries ----------------------------------------------------------


def test_is_chord_examples(f1, f2):
    assert not f2.is_chord(f2.u(1), f2.w(1))  # forbidden
    assert f2.is_chord(f2.u(0), f2.w(1))
    assert not f1.is_chord(f1.u(0), f1.u(1))  # same class
    n = f2.n_vertices
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    assert sum(f2.is_chord(a, b) for a, b in pairs) == f2.chord_count == 6
    assert sum(f2.same_class(a, b) for a, b in pairs) == 6
    assert f2.forbidden_mask.sum() == 3


def test_chord_queries_reject_out_of_range_vertices():
    inst = core.bipartite_instance([1, 1], [1, 1], matching=[(0, 0)])
    for a, b in ((0, 99), (-1, 2), (99, 0), (2, -1)):
        with pytest.raises(IndexOutOfRange):
            inst.is_chord(a, b)
    for v in (99, 4, -1):
        with pytest.raises(IndexOutOfRange):
            inst.chords_at(v)
    with pytest.raises(IndexOutOfRange):
        make_circuit(inst, (0, 99, 1, 98))
    general = core.general_instance([1, 1, 1, 1])
    with pytest.raises(IndexOutOfRange):
        general.is_chord(0, 7)
    with pytest.raises(IndexOutOfRange):
        general.chords_at(7)


# -- directed translation ---------------------------------------------------


def test_from_directed_matches_f2(f2):
    inst = core.from_directed([1, 1, 1], [1, 1, 1])
    assert inst.u_degrees == f2.u_degrees
    assert inst.matching == f2.matching


def test_from_directed_zero_degrees_kept():
    inst = core.from_directed([0, 0], [0, 0])
    assert inst.n_u == inst.n_w == 2
    reals = enumerate_all(inst)
    assert len(reals) == 1 and reals[0].edges == frozenset()


def test_from_directed_two_zero_validates_but_not_graphical():
    # vertex 0 needs arcs from 1 and 2, but 2 sends none
    inst = core.from_directed([2, 2, 0], [2, 2, 0])
    assert subset_bruteforce(inst) == []


def test_from_directed_errors():
    with pytest.raises(LengthMismatch):
        core.from_directed([1], [1, 0])
    with pytest.raises(SumMismatch):
        core.from_directed([1, 1], [1, 0])


def test_to_directed_roundtrip_examples():
    inst = core.from_directed([1, 1, 1], [1, 1, 1])
    ra = core.make_realization(inst, [(0, 1), (1, 2), (2, 0)])
    assert core.to_directed(ra) == [(0, 1), (1, 2), (2, 0)]
    empty = core.make_realization(core.from_directed([0], [0]), [])
    assert core.to_directed(empty) == []
    # opposite 2-cycles are legal digraphs
    inst4 = core.from_directed([1, 1, 1, 1], [1, 1, 1, 1])
    r = core.make_realization(inst4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert core.to_directed(r) == [(0, 1), (1, 0), (2, 3), (3, 2)]


def test_to_directed_requires_directed_kind(f2, f2_reals):
    with pytest.raises(NotDirectedKind):
        core.to_directed(f2_reals[0])


@pytest.mark.parametrize(
    "out_deg,in_deg",
    [
        ((1, 1), (1, 1)),
        ((2, 2, 0), (2, 2, 0)),
        ((1, 2, 1), (2, 1, 1)),
        ((2, 2, 0), (1, 1, 2)),
        ((0, 1, 1), (1, 1, 0)),
        ((2, 1, 1, 1), (1, 2, 1, 1)),
    ],
)
def test_directed_bijection_against_double_bruteforce(out_deg, in_deg):
    inst = core.from_directed(out_deg, in_deg)
    via_bipartite = {
        frozenset(core.to_directed(r)) for r in enumerate_all(inst)
    }
    assert via_bipartite == digraph_bruteforce(out_deg, in_deg)


# -- adjacency matrix -------------------------------------------------------


def test_adjacency_matrix_f1(f1):
    r1 = core.make_realization(f1, [(0, 1), (1, 0)])
    m = core.adjacency_matrix(r1)
    # rows w0, w1; columns u0, u1
    assert f1.forbidden_mask[0, 0] and f1.forbidden_mask[1, 1]
    assert m[0, 1] == 1 and m[1, 0] == 1
    assert list(m.sum(axis=0)) == [1, 1]
    assert list(m.sum(axis=1)) == [1, 1]


def test_adjacency_matrix_f4(f4):
    r4 = core.make_realization(f4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 1)])
    m = core.adjacency_matrix(r4)
    assert list(m.sum(axis=0)) == [1, 2, 2]
    assert list(m.sum(axis=1)) == [2, 2, 1]
    assert f4.forbidden_mask[0, 0] and f4.forbidden_mask[1, 1] and f4.forbidden_mask[2, 2]


def test_adjacency_matrix_sums_for_every_enumerated_realization(f2, f3, f4):
    for inst in (f2, f3, f4):
        for r in enumerate_all(inst):
            m = core.adjacency_matrix(r)
            assert list(m.sum(axis=0)) == list(inst.u_degrees)
            assert list(m.sum(axis=1)) == list(inst.w_degrees)


def test_adjacency_matrix_copies_are_independent_and_writable(f3):
    real = enumerate_all(f3)[0]
    first = core.adjacency_matrix(real)
    assert first.flags.writeable
    original = first.copy()
    first[:] = 7
    second = core.adjacency_matrix(real)
    assert second is not first
    assert np.array_equal(second, original)
    assert np.array_equal(real.matrix, original)


def test_realization_matrix_and_forbidden_mask_are_read_only(f3):
    real = enumerate_all(f3)[0]
    assert real.matrix is real.matrix  # built once
    mask = f3.forbidden_mask
    assert mask is f3.forbidden_mask
    assert not real.matrix.flags.writeable and not mask.flags.writeable
    with pytest.raises(ValueError):
        real.matrix[0, 0] = 1
    with pytest.raises(ValueError):
        mask[0, 1] = True
    assert np.array_equal(mask, core._forbidden_mask(f3))


def test_matrices_refuse_general_instances():
    inst = core.general_instance([1, 1])
    real = core.make_realization(inst, [(0, 1)])
    with pytest.raises(PreconditionViolated):
        real.matrix
    with pytest.raises(PreconditionViolated):
        core.adjacency_matrix(real)
    with pytest.raises(PreconditionViolated):
        inst.forbidden_mask


def test_known_edge_set_returns_the_enumerated_object(f3):
    states = enumerate_all(f3)
    for state in states:
        assert core.realization_from_global_edges(f3, set(state.edges)) is state
        # either pair order, any iterable
        flipped = [(w, u) for u, w in state.edges]
        assert core.realization_from_global_edges(f3, iter(flipped)) is state
    assert set(f3.known_realizations.values()) == set(states)


def test_unknown_edge_sets_are_still_validated(f3):
    enumerate_all(f3)  # fills the index
    real = core.make_realization(f3, [(0, 1), (1, 0), (2, 3), (3, 2)])
    u0, u1, w0, w1 = f3.u(0), f3.u(1), f3.w(0), f3.w(1)
    forbidden = (real.edges - {(u0, w1), (u1, w0)}) | {(u0, w0), (u1, w1)}
    with pytest.raises(NotAChord):
        core.realization_from_global_edges(f3, forbidden)
    same_class = (real.edges - {(u0, w1), (u1, w0)}) | {(u0, u1), (w0, w1)}
    with pytest.raises(NotAChord):
        core.realization_from_global_edges(f3, same_class)
    with pytest.raises(ValidationError):
        core.realization_from_global_edges(f3, real.edges - {(u0, w1)})
    assert len(f3.known_realizations) == 9


def test_sampling_leaves_the_realization_index_empty():
    inst = core.bipartite_instance(
        [3] * 5, [3] * 5, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, 5)]
    )
    start = greedy_construct(inst)
    run_chain(inst, start, 500, seed=1, chains=3)
    assert inst.known_realizations == {}


# -- JSON round trip --------------------------------------------------------


@st.composite
def _instances(draw):
    k = draw(st.integers(1, 3))
    l = draw(st.integers(1, 3))
    u_deg = draw(st.lists(st.integers(0, l), min_size=k, max_size=k))
    total = sum(u_deg)
    # adjust w degrees to match the total where possible
    w_deg = []
    rem = total
    for j in range(l):
        hi = min(k, rem)
        lo = max(0, rem - k * (l - j - 1))
        if lo > hi:
            w_deg = None
            break
        v = draw(st.integers(lo, hi))
        w_deg.append(v)
        rem -= v
    if w_deg is None or rem != 0:
        return None
    m_size = draw(st.integers(0, min(k, l)))
    matching = [(i, i) for i in range(m_size)]
    center = draw(st.none() | st.integers(0, k - 1))
    leaves = []
    if center is not None:
        leaves = draw(st.lists(st.integers(0, l - 1), max_size=l, unique=True))
    try:
        return core.bipartite_instance(u_deg, w_deg, center, leaves, matching)
    except core.ValidationError:
        return None


@given(_instances())
@settings(max_examples=60, deadline=None)
def test_instance_json_roundtrip(inst):
    if inst is None:
        return
    blob = json.dumps(core.instance_to_json(inst), sort_keys=True)
    again = core.validate_instance(json.loads(blob))
    assert again == inst


@st.composite
def _directed_instances(draw, star: bool):
    """Directed instances; with ``star``, the out-copy of one vertex is a star center."""
    n = draw(st.integers(2, 5))
    out_deg = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    in_deg = draw(st.permutations(out_deg))
    if not star:
        return core.from_directed(out_deg, in_deg)
    center = draw(st.integers(0, n - 1))
    leaves = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2)))
    diagonal = [(i, i) for i in range(n)]
    try:
        return core.bipartite_instance(out_deg, in_deg, center, leaves, diagonal, core.KIND_DIRECTED)
    except core.ValidationError:
        assume(False)


@pytest.mark.parametrize(
    "instances",
    [
        half_regular_instances(),
        star_matching_instances(),
        _directed_instances(star=False),
        _directed_instances(star=True),
        general_instances(),
    ],
    ids=["half-regular", "star-matching", "directed", "directed-star", "general"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_instance_json_roundtrip_every_kind(instances, data):
    inst = data.draw(instances)
    assert core.validate_instance(core.instance_to_json(inst)) == inst
    blob = json.dumps(core.instance_to_json(inst))
    assert core.validate_instance(json.loads(blob)) == inst


def test_realization_json_sorted(f2, f2_reals):
    ra, _ = f2_reals
    assert ra.to_json_dict() == {"edges": [[0, 1], [1, 2], [2, 0]]}


def test_every_error_class_is_raised_or_caught_elsewhere():
    """An exception class that no other module of the package names is dead code."""
    import inspect
    import re
    from pathlib import Path

    from rds_kit import errors

    package = Path(errors.__file__).parent
    others = "".join(
        p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py")) if p.name != "errors.py"
    )
    classes = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    ]
    assert len(classes) > 20
    assert [n for n in classes if not re.search(rf"\b{n}\b", others)] == []
