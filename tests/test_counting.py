import pytest
from hypothesis import given, settings

from rds_kit import core, counting
from rds_kit.errors import Exhausted
from rds_kit.oracle import enumerate_all

from conftest import star_matching_instances, subset_bruteforce


# -- branch_split -------------------------------------------------------------


def test_branch_split_f2(f2):
    (s, v), absent, present = counting.branch_split(f2)
    assert (s, v) == (0, f2.w(1))  # w0 is forbidden, w1 is the least chord
    assert absent.star_leaves == frozenset({f2.w(1)})
    assert present.u_degrees == (0, 1, 1)
    assert present.w_degrees == (1, 0, 1)
    assert present.star_leaves == frozenset({f2.w(1)})


def test_branch_split_f4(f4):
    (s, v), absent, present = counting.branch_split(f4)
    assert (s, v) == (0, f4.w(1))  # w0 is a star leaf already
    assert len(enumerate_all(absent)) == 0
    assert len(enumerate_all(present)) == 1


def test_branch_split_retires_zero_degree_center():
    inst = core.bipartite_instance([0, 1], [1, 0], star_center=0, star_leaves=[])
    (s, v), absent, present = counting.branch_split(inst)
    assert s == 0 and v == 1  # the retired center is gone, u1 is the new u0
    assert absent.n_u == 1


def test_branch_split_exhausted():
    inst = core.bipartite_instance([0, 0], [0, 0])
    with pytest.raises(Exhausted):
        counting.branch_split(inst)


def test_branch_split_present_none_when_w_is_full():
    inst = core.bipartite_instance([1, 1], [0, 2])
    (s, v), absent, present = counting.branch_split(inst)
    assert v == inst.w(0) and present is None


def test_branch_instances_stay_star_plus_matching(f2):
    # both branches revalidate and the present branch stays half-regular
    work = f2
    for _ in range(6):
        try:
            (s, v), absent, present = counting.branch_split(work)
        except Exhausted:
            break
        for branch in (absent, present):
            if branch is None:
                continue
            assert core.validate_instance(core.instance_to_json(branch)) == branch
        if present is not None:
            assert present.half_regular
            work = present
        else:
            work = absent


# -- exact count ----------------------------------------------------------------


def test_exact_count_fixtures(f2, f3, f5):
    assert counting.exact_count(f2) == 2
    assert counting.exact_count(f3) == 9
    assert counting.exact_count(f5) == 0


def test_exact_count_branch_agrees_with_enumeration(f1, f2, f3, f4, f5):
    # retiring a center of these two leaves a W-vertex more demand than
    # U-vertices: that branch is infeasible and counts 0
    roadmap_4x4 = core.bipartite_instance(
        [2] * 4, [2] * 4, star_center=0, star_leaves=[1], matching=[(1, 2), (2, 3)]
    )
    half_regular_5x5 = core.bipartite_instance(
        [3] * 5, [3] * 5, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, 5)]
    )
    assert counting.exact_count(roadmap_4x4) == 15
    for inst in (f1, f2, f3, f4, f5, roadmap_4x4, half_regular_5x5):
        assert counting.exact_count(inst, method="branch") == counting.exact_count(inst)


@settings(max_examples=150, deadline=None)
@given(star_matching_instances())
def test_exact_count_branch_equals_enumeration_property(inst):
    assert counting.exact_count(inst, method="branch") == counting.exact_count(inst)


def test_branch_identity_at_every_node(f1, f2, f4, f5):
    """N(inst) = N(absent) + N(present) throughout the recursion tree."""

    def walk(inst):
        n = len(subset_bruteforce(inst)) if inst.chord_count <= 20 else counting.exact_count(inst)
        try:
            _, absent, present = counting.branch_split(inst)
        except Exhausted:
            degrees = list(inst.u_degrees) + list(inst.w_degrees)
            assert n == (1 if not any(degrees) else 0)
            return
        n_present = counting.exact_count(present) if present is not None else 0
        assert n == counting.exact_count(absent) + n_present
        walk(absent)
        if present is not None:
            walk(present)

    for inst in (f1, f2, f4, f5):
        walk(inst)


# -- approximate count ------------------------------------------------------------


def test_approx_count_f4_exact_one(f4):
    report = counting.approx_count(f4, seed=0)
    assert report.value == 1.0
    assert all(level.forced for level in report.levels)


def test_approx_count_f5_not_graphical(f5):
    report = counting.approx_count(f5, seed=0)
    assert report.value == 0.0 and not report.graphical


def test_approx_count_f2_window(f2):
    hits = 0
    for seed in range(25):
        r = counting.approx_count(f2, samples_per_level=10_000, burn_in=1000, seed=seed)
        hits += 1.8 <= r.value <= 2.2
    assert hits >= 24


def test_approx_count_deterministic(f2):
    a = counting.approx_count(f2, samples_per_level=2000, burn_in=200, seed=123)
    b = counting.approx_count(f2, samples_per_level=2000, burn_in=200, seed=123)
    assert a.value == b.value
    assert [l.p_hat for l in a.levels] == [l.p_hat for l in b.levels]


def test_approx_count_with_exact_probabilities_recovers_count(f3):
    """Replacing every estimate by the true branch probability gives the exact count."""
    value = 1.0
    work = f3
    while True:
        work = counting.retire_exhausted_centers(work)
        try:
            (s, v), absent, present = counting.branch_split(work)
        except Exhausted:
            break
        n = counting.exact_count(work)
        n_present = counting.exact_count(present) if present is not None else 0
        p = n_present / n
        if p >= 0.5:
            value /= p
            work = present
        else:
            value /= 1 - p
            work = absent
    assert value == pytest.approx(counting.exact_count(f3))


def test_count_report_json(f2):
    blob = counting.exact_count_report(f2).to_json_dict()
    assert blob["count"] == "2" and blob["mode"] == "exact"
    approx = counting.approx_count(f2, samples_per_level=500, seed=9).to_json_dict()
    assert "estimate" in approx and approx["config"]["seed"] == 9
