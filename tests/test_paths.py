import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rds_kit import chain, cli, core, oracle, paths, swaps
from rds_kit.errors import AuditFailed, NotAMilestonePair, PreconditionViolated
from rds_kit.oracle import enumerate_all

from conftest import half_regular_instances


# -- decomposition / milestones ----------------------------------------------


def test_cycle_decomposition_trivial(f2, f2_reals):
    ra, _ = f2_reals
    assert paths.ordered_cycle_decomposition(ra, ra) == []


def test_cycle_decomposition_f2(f2, f2_reals):
    ra, rb = f2_reals
    cycles = paths.ordered_cycle_decomposition(ra, rb)
    assert len(cycles) == 1 and cycles[0].length == 6


def test_cycle_decomposition_figure_eight():
    inst = core.bipartite_instance([2, 1, 1], [1, 1, 1, 1])
    G = core.make_realization(inst, [(0, 0), (0, 2), (1, 1), (2, 3)])
    H = core.make_realization(inst, [(0, 1), (0, 3), (1, 0), (2, 2)])
    cycles = paths.ordered_cycle_decomposition(G, H)
    assert sorted(c.length for c in cycles) == [4, 4]
    covered = [ch for c in cycles for ch in c.chords]
    assert len(covered) == len(set(covered)) == 8


def test_milestones_singleton(f2, f2_reals):
    ra, rb = f2_reals
    cycles = paths.ordered_cycle_decomposition(ra, rb)
    miles = paths.milestones(ra, rb, cycles)
    assert [m.key for m in miles] == [ra.key, rb.key]
    assert paths.milestones(ra, ra, []) == [ra]


def test_milestones_every_intermediate_valid(f3):
    reals = enumerate_all(f3)
    X, Y = reals[0], reals[-1]
    cycles = paths.ordered_cycle_decomposition(X, Y)
    miles = paths.milestones(X, Y, cycles)
    assert miles[0].key == X.key and miles[-1].key == Y.key
    for i, cyc in enumerate(cycles):
        assert miles[i].edges ^ miles[i + 1].edges == set(cyc.chords)


# -- sweep --------------------------------------------------------------------


def _weight(toggle):
    """i-1 for a move that toggles the 2i chords of a circuit."""
    return len(toggle) // 2 - 1


def test_sweep_c4_single_move():
    inst = core.bipartite_instance([1, 1], [1, 1])
    G = core.make_realization(inst, [(0, 0), (1, 1)])
    H = core.make_realization(inst, [(0, 1), (1, 0)])
    [cycle] = paths.ordered_cycle_decomposition(G, H)
    moves = paths.sweep_cycle(G, H, cycle)
    assert [(kind, _weight(toggle)) for kind, toggle in moves] == [("c4", 1)]
    assert set(moves[0][1]) == G.edges ^ H.edges


def test_sweep_f2_c6_single_fswap(f2, f2_reals):
    ra, rb = f2_reals
    [cycle] = paths.ordered_cycle_decomposition(ra, rb)
    moves = paths.sweep_cycle(ra, rb, cycle)
    assert [(kind, _weight(toggle)) for kind, toggle in moves] == [("c6", 2)]
    assert set(moves[0][1]) == ra.edges ^ rb.edges


def test_sweep_unrestricted_c6_two_c4s():
    inst = core.bipartite_instance([1, 1, 1], [1, 1, 1])
    G = core.make_realization(inst, [(0, 0), (1, 1), (2, 2)])
    H = core.make_realization(inst, [(0, 1), (1, 2), (2, 0)])
    [cycle] = paths.ordered_cycle_decomposition(G, H)
    assert cycle.length == 6
    moves = paths.sweep_cycle(G, H, cycle)
    assert [(kind, _weight(toggle)) for kind, toggle in moves] == [("c4", 1), ("c4", 1)]


def test_sweep_weight_is_half_length_minus_one(f3):
    reals = enumerate_all(f3)
    for X in reals[:3]:
        for Y in reals:
            if X.key == Y.key:
                continue
            for i, cyc in enumerate(paths.ordered_cycle_decomposition(X, Y)):
                miles = paths.milestones(X, Y, paths.ordered_cycle_decomposition(X, Y))
                moves = paths.sweep_cycle(miles[i], miles[i + 1], cyc)
                assert sum(_weight(toggle) for _, toggle in moves) == cyc.length // 2 - 1


def test_sweep_rejects_wrong_cycle(f3):
    reals = enumerate_all(f3)
    X, Y = reals[0], reals[1]
    cycles = paths.ordered_cycle_decomposition(X, Y)
    with pytest.raises(NotAMilestonePair):
        paths.sweep_cycle(X, X, cycles[0])


# -- canonical path -----------------------------------------------------------


def test_canonical_path_identity(f2, f2_reals):
    ra, _ = f2_reals
    rep = paths.canonical_path(ra, ra)
    assert rep.steps == [] and rep.theta_ok


def test_canonical_path_f2(f2, f2_reals):
    ra, rb = f2_reals
    rep = paths.canonical_path(ra, rb)
    assert len(rep.steps) == 1
    assert rep.steps[0].move == "c6"
    assert rep.steps[0].bad.within_lemma_pattern


def test_canonical_path_steps_are_kernel_moves(f3):
    reals = enumerate_all(f3)
    X, Y = reals[0], reals[-1]
    rep = paths.canonical_path(X, Y)
    assert len(rep.steps) >= 2
    cur = X
    for step in rep.steps:
        assert chain.classify_move(cur, step.state) == step.move
        cur = step.state
    assert cur.key == Y.key


@settings(max_examples=60, deadline=None)
@given(half_regular_instances(), st.data())
def test_canonical_path_kinds_and_audit_property(inst, data):
    """On drawn pairs each step is the chain move the sweep named, and the audit passes."""
    states = enumerate_all(inst)
    index = st.integers(0, len(states) - 1)
    for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8)):
        X, Y = states[i], states[j]
        cycles = paths.ordered_cycle_decomposition(X, Y)
        miles = paths.milestones(X, Y, cycles)
        swept = [
            kind
            for k, cyc in enumerate(cycles)
            for kind, _ in paths.sweep_cycle(miles[k], miles[k + 1], cyc)
        ]
        rep = paths.verify_theta_omega(X, Y, states)
        classified, cur = [], X
        for step in rep.steps:
            classified.append(chain.classify_move(cur, step.state))
            cur = step.state
        assert classified == swept == [step.move for step in rep.steps]
        assert cur.key == Y.key
        assert rep.theta_ok and rep.omega_ok and rep.max_hamming <= paths.HAMMING_BOUND


# -- auxiliary matrix ---------------------------------------------------------


def test_auxiliary_matrix_degenerate_cases(f2, f2_reals):
    ra, rb = f2_reals
    assert np.array_equal(
        paths.auxiliary_matrix(ra, rb, ra).values, core.adjacency_matrix(rb).values
    )
    assert np.array_equal(
        paths.auxiliary_matrix(ra, rb, rb).values, core.adjacency_matrix(ra).values
    )
    rep = paths.audit_bad_positions(paths.auxiliary_matrix(ra, rb, ra))
    assert rep == paths.BadPositionReport(0, 0, True, True)


def test_audit_bad_positions_detects_two():
    inst = core.bipartite_instance([1, 1], [1, 1])
    G = core.make_realization(inst, [(0, 0), (1, 1)])
    H = core.make_realization(inst, [(0, 1), (1, 0)])
    m = paths.auxiliary_matrix(G, G, H)  # 2 M_G - M_H has -1 and 2 entries
    rep = paths.audit_bad_positions(m)
    assert rep.count2 == 2 and rep.count_minus1 == 2
    assert not rep.same_column


def test_aux_matrix_row_column_sums_invariant(f3):
    reals = enumerate_all(f3)
    X, Y, Z = reals[0], reals[3], reals[7]
    m = paths.auxiliary_matrix(X, Y, Z)
    assert list(m.column_sums()) == list(f3.u_degrees)
    assert list(m.row_sums()) == list(f3.w_degrees)
    assert set(np.unique(m.values)) <= {-1, 0, 1, 2}


# -- switch repair -------------------------------------------------------------


def test_switch_repair_noop_on_realization_matrix(f2, f2_reals):
    ra, _ = f2_reals
    m = core.adjacency_matrix(ra)
    switches, real = paths.switch_repair(m)
    assert switches == [] and real.key == ra.key


def _first_bad_matrix(inst, states, want2, want_minus1):
    """Search audited path matrices for a given bad-entry pattern."""
    for X in states:
        for Y in states:
            if X.key == Y.key:
                continue
            rep = paths.canonical_path(X, Y)
            for step in rep.steps:
                m = paths.auxiliary_matrix(X, Y, step.state)
                b = paths.audit_bad_positions(m)
                if (
                    b.count2 == want2
                    and b.count_minus1 == want_minus1
                    and b.within_lemma_pattern
                ):
                    return m
    return None


def test_switch_repair_on_audited_matrices():
    # u0 is the exceptional column; sweeps pivot elsewhere and leave 2-values
    inst = core.bipartite_instance(
        [2, 2, 2, 2], [2, 2, 2, 1, 1], star_center=0, star_leaves=[3], matching=[(1, 0), (2, 1)]
    )
    states = enumerate_all(inst)
    assert len(states) >= 2
    m = _first_bad_matrix(inst, states, want2=1, want_minus1=1)
    if m is None:
        m = _first_bad_matrix(inst, states, want2=1, want_minus1=0)
    assert m is not None, "no audited matrix with bad entries found"
    switches, real = paths.switch_repair(m)
    assert 1 <= len(switches) <= 3
    repaired = core.adjacency_matrix(real)
    assert m.hamming(repaired) <= 4 * len(switches)
    assert m.hamming(repaired) % 2 == 0


def test_audit_single_two_pattern():
    inst = core.bipartite_instance([2, 2], [2, 2])
    m = core.adjacency_matrix(core.make_realization(inst, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    m.values[0, 1] = 2
    m.values[1, 1] = 0  # keep the column sum intact
    rep = paths.audit_bad_positions(m)
    assert rep == paths.BadPositionReport(1, 0, True, True)


def test_switch_repair_case3_needs_three_switches():
    """Two 2-values and a -1 with every one-switch pairing blocked."""
    inst = core.bipartite_instance([2, 3, 3, 3, 3], [4, 5, 1, 2, 2])
    values = np.array(
        [
            [0, 2, 0, 1, 1],   # w0
            [0, 2, 1, 1, 1],   # w1
            [0, -1, 0, 1, 1],  # w2
            [1, 0, 1, 0, 0],   # w3
            [1, 0, 1, 0, 0],   # w4
        ],
        dtype=np.int8,
    )
    m = core.ChordMatrix(inst, values, core._forbidden_mask(inst))
    assert list(m.column_sums()) == [2, 3, 3, 3, 3]
    switches, real = paths.switch_repair(m)
    assert len(switches) == 3
    assert m.hamming(core.adjacency_matrix(real)) <= 12


def test_switch_repair_rejects_bad_pattern(f2, f2_reals):
    ra, rb = f2_reals
    m = paths.auxiliary_matrix(ra, ra, rb)  # 2 and -1 in multiple columns
    with pytest.raises(PreconditionViolated):
        paths.switch_repair(m)


def test_switch_changes_exactly_four_positions(f3):
    states = enumerate_all(f3)
    m = _first_bad_matrix(f3, states, want2=0, want_minus1=1)
    assert m is not None
    before = m.copy()
    switches, _ = paths.switch_repair(m)
    work = before.copy()
    for sw in switches:
        prev = work.copy()
        paths._apply_switch(work, sw)
        assert prev.hamming(work) == 4


# -- verify_theta_omega ---------------------------------------------------------


def test_verify_f2_pair(f2, f2_reals):
    ra, rb = f2_reals
    rep = paths.verify_theta_omega(ra, rb)
    assert rep.omega_ok and rep.theta_ok and rep.max_hamming == 0


def test_verify_all_f3_pairs(f3):
    states = enumerate_all(f3)
    worst = 0
    for X in states:
        for Y in states:
            if X.key == Y.key:
                continue
            rep = paths.verify_theta_omega(X, Y, states)
            worst = max(worst, rep.max_hamming)
    assert worst <= paths.HAMMING_BOUND


def test_path_report_serializes(f3):
    states = enumerate_all(f3)
    rep = paths.verify_theta_omega(states[0], states[-1], states)
    blob = rep.to_json_dict()
    assert blob["theta_ok"] and blob["omega_ok"]
    assert len(blob["moves"]) == len(rep.steps)
    assert all(mv["move"] in ("c4", "c6") for mv in blob["moves"])
    assert all(cw["emitted_weight"] == cw["half_length"] - 1 for cw in blob["cycle_weights"])
    import json

    json.dumps(blob)  # fully JSON-serializable


def test_verify_requires_half_regular():
    # off-center U-degrees 2 and 1 differ, so no center choice makes this half-regular
    inst = core.bipartite_instance([1, 2, 1], [2, 1, 1])
    assert not inst.half_regular
    states = enumerate_all(inst)
    assert len(states) >= 2
    with pytest.raises(PreconditionViolated):
        paths.verify_theta_omega(states[0], states[1], states)


# -- per-audit caches ---------------------------------------------------------------


def test_audit_paths_builds_per_state_data_once(capsys, half_regular_5_path, monkeypatch):
    """One audit-paths run: one mask, one matrix per state, no validation after enumeration."""
    masks, matrices = [], Counter()
    validations = {"before": 0, "during": 0, "after": 0}
    phase = ["before"]

    build_mask, build_matrix, check = core._forbidden_mask, core._matrix_values, core._check_edges
    enumerate_all_ = oracle.enumerate_all

    def count_mask(inst):
        masks.append(inst)
        return build_mask(inst)

    def count_matrix(real):
        matrices[real.key] += 1
        return build_matrix(real)

    def count_check(inst, edge_set):
        validations[phase[0]] += 1
        return check(inst, edge_set)

    def enumerate_phase(*args, **kwargs):
        phase[0] = "during"
        try:
            return enumerate_all_(*args, **kwargs)
        finally:
            phase[0] = "after"

    monkeypatch.setattr(core, "_forbidden_mask", count_mask)
    monkeypatch.setattr(core, "_matrix_values", count_matrix)
    monkeypatch.setattr(core, "_check_edges", count_check)
    monkeypatch.setattr(oracle, "enumerate_all", enumerate_phase)

    assert cli.main(["audit-paths", half_regular_5_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["states"] == 32 and report["ordered_pairs"] == 32 * 31
    assert len(masks) == 1
    assert len(matrices) == 32 and max(matrices.values()) == 1
    assert validations == {"before": 0, "during": 32, "after": 0}
