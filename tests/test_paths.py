import hashlib
import json
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rds_kit import chain, cli, core, oracle, paths, swaps
from rds_kit.errors import AuditFailed, NotAMilestonePair, PreconditionViolated
from rds_kit.oracle import enumerate_all

from conftest import MATCHED_CENTER, ROADMAP_4X4, half_regular_instances


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
    m = paths.auxiliary_matrix(ra, rb, rep.steps[0].state)
    assert paths.audit_bad_positions(f2, m).within_lemma_pattern


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
    stack = paths.state_stack(states)
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
        rep = paths.verify_theta_omega(X, Y, stack)
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
    assert np.array_equal(paths.auxiliary_matrix(ra, rb, ra), core.adjacency_matrix(rb))
    assert np.array_equal(paths.auxiliary_matrix(ra, rb, rb), core.adjacency_matrix(ra))
    rep = paths.audit_bad_positions(f2, paths.auxiliary_matrix(ra, rb, ra))
    assert rep == paths.BadPositionReport(0, 0, True, True)


def test_audit_bad_positions_detects_two():
    inst = core.bipartite_instance([1, 1], [1, 1])
    G = core.make_realization(inst, [(0, 0), (1, 1)])
    H = core.make_realization(inst, [(0, 1), (1, 0)])
    m = paths.auxiliary_matrix(G, G, H)  # 2 M_G - M_H has -1 and 2 entries
    rep = paths.audit_bad_positions(inst, m)
    assert rep.count2 == 2 and rep.count_minus1 == 2
    assert not rep.same_column


def test_aux_matrix_row_column_sums_invariant(f3):
    reals = enumerate_all(f3)
    X, Y, Z = reals[0], reals[3], reals[7]
    m = paths.auxiliary_matrix(X, Y, Z)
    assert list(m.sum(axis=0)) == list(f3.u_degrees)
    assert list(m.sum(axis=1)) == list(f3.w_degrees)
    assert set(np.unique(m)) <= {-1, 0, 1, 2}


def _half_regular(n, d):
    """u = w = [d]*n, star u0 -> {w1}, matching (i, i) for i = 1..n-1."""
    return core.bipartite_instance(
        [d] * n, [d] * n, star_center=0, star_leaves=[1], matching=[(i, i) for i in range(1, n)]
    )


def _assert_bad_free_iff_between(X, Y, Z):
    """M_X + M_Y - M_Z has no 2 or -1 on a chord iff X & Y <= Z <= X | Y,
    and is then the matrix of the realization X ^ Y ^ Z."""
    m = paths.auxiliary_matrix(X, Y, Z)
    bad_free = not paths.bad_positions(m)
    assert bad_free == (X.edges & Y.edges <= Z.edges <= X.edges | Y.edges)
    if bad_free:
        real = core.realization_from_global_edges(X.instance, X.edges ^ Y.edges ^ Z.edges)
        assert np.array_equal(m, real.matrix)
    return bad_free


@pytest.mark.parametrize("instance", ["half_regular_4_2", "roadmap_4x4"])
def test_bad_free_iff_between_on_every_triple(instance, roadmap_4x4):
    inst = _half_regular(4, 2) if instance == "half_regular_4_2" else roadmap_4x4
    states = enumerate_all(inst)
    kinds = Counter(
        _assert_bad_free_iff_between(X, Y, Z) for X in states for Y in states for Z in states
    )
    assert kinds[True] and kinds[False]


def test_bad_free_iff_between_on_half_regular_5_path_steps():
    states = enumerate_all(_half_regular(5, 3))
    kinds = Counter(
        _assert_bad_free_iff_between(X, Y, step.state)
        for X in states
        for Y in states
        for step in paths.canonical_path(X, Y).steps
    )
    assert kinds == {True: 1376, False: 752}


@settings(max_examples=60, deadline=None)
@given(half_regular_instances(), st.data())
def test_bad_free_iff_between_on_drawn_path_steps(inst, data):
    states = enumerate_all(inst)
    index = st.integers(0, len(states) - 1)
    for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8)):
        X, Y = states[i], states[j]
        for step in paths.canonical_path(X, Y).steps:
            _assert_bad_free_iff_between(X, Y, step.state)


# -- switch repair -------------------------------------------------------------


def test_switch_repair_noop_on_realization_matrix(f2, f2_reals):
    ra, _ = f2_reals
    m = core.adjacency_matrix(ra)
    switches, real = paths.switch_repair(f2, m)
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
                b = paths.audit_bad_positions(inst, m)
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
    switches, real = paths.switch_repair(inst, m)
    assert 1 <= len(switches) <= 3
    repaired = core.adjacency_matrix(real)
    assert (m != repaired).sum() <= 4 * len(switches)
    assert (m != repaired).sum() % 2 == 0


def test_audit_single_two_pattern():
    inst = core.bipartite_instance([2, 2], [2, 2])
    m = core.adjacency_matrix(core.make_realization(inst, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    m[0, 1] = 2
    m[1, 1] = 0  # keep the column sum intact
    rep = paths.audit_bad_positions(inst, m)
    assert rep == paths.BadPositionReport(1, 0, True, True)


def test_switch_repair_case3_needs_three_switches():
    """Two 2-values and a -1 with every one-switch pairing blocked."""
    inst = core.bipartite_instance([2, 3, 3, 3, 3], [4, 5, 1, 2, 2])
    m = np.array(
        [
            [0, 2, 0, 1, 1],   # w0
            [0, 2, 1, 1, 1],   # w1
            [0, -1, 0, 1, 1],  # w2
            [1, 0, 1, 0, 0],   # w3
            [1, 0, 1, 0, 0],   # w4
        ],
        dtype=np.int8,
    )
    assert list(m.sum(axis=0)) == [2, 3, 3, 3, 3]
    switches, real = paths.switch_repair(inst, m)
    assert len(switches) == 3
    assert (m != core.adjacency_matrix(real)).sum() <= 12


def test_switch_repair_when_no_one_switch_pairs_the_two_with_the_minus_one():
    """A 2 and a -1 that no single switch resolves together take two switches."""
    inst = core.bipartite_instance(
        [2, 2, 2, 2], [3, 1, 0, 2, 2], star_center=0, star_leaves=[0],
        matching=[(0, 3), (1, 4), (3, 2)],
    )
    m = np.array(
        [[0, 1, 2, 0], [1, 0, 0, 0], [1, 0, -1, 0], [0, 1, 0, 1], [0, 0, 1, 1]], dtype=np.int8
    )
    switches, real = paths.switch_repair(inst, m)
    assert 1 <= len(switches) <= paths.MAX_SWITCHES
    work = m.copy()
    for sw in switches:
        prev = work.copy()
        paths._apply_switch(inst, work, sw)
        assert (prev != work).sum() == 4
    assert np.array_equal(work, real.matrix)
    assert (m != real.matrix).sum() <= 4 * len(switches)


def test_switch_repair_rejects_bad_pattern(f2, f2_reals):
    ra, rb = f2_reals
    m = paths.auxiliary_matrix(ra, ra, rb)  # 2 and -1 in multiple columns
    with pytest.raises(PreconditionViolated):
        paths.switch_repair(f2, m)


def test_switch_changes_exactly_four_positions(f3):
    states = enumerate_all(f3)
    m = _first_bad_matrix(f3, states, want2=0, want_minus1=1)
    assert m is not None
    before = m.copy()
    switches, _ = paths.switch_repair(f3, m)
    work = before.copy()
    for sw in switches:
        prev = work.copy()
        paths._apply_switch(f3, work, sw)
        assert (prev != work).sum() == 4


# -- verify_theta_omega ---------------------------------------------------------


def test_verify_f2_pair(f2, f2_reals):
    ra, rb = f2_reals
    rep = paths.verify_theta_omega(ra, rb, paths.state_stack(enumerate_all(f2)))
    assert rep.omega_ok and rep.theta_ok and rep.max_hamming == 0


def test_verify_all_f3_pairs(f3):
    states = enumerate_all(f3)
    stack = paths.state_stack(states)
    worst = 0
    for X in states:
        for Y in states:
            if X.key == Y.key:
                continue
            rep = paths.verify_theta_omega(X, Y, stack)
            worst = max(worst, rep.max_hamming)
    assert worst <= paths.HAMMING_BOUND


def test_verify_requires_half_regular():
    # off-center U-degrees 2 and 1 differ, so no center choice makes this half-regular
    inst = core.bipartite_instance([1, 2, 1], [2, 1, 1])
    assert not inst.half_regular
    states = enumerate_all(inst)
    assert len(states) >= 2
    with pytest.raises(PreconditionViolated):
        paths.verify_theta_omega(states[0], states[1], paths.state_stack(states))


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


# -- pinned audit outcomes ------------------------------------------------------------


def _audit_digest(inst):
    """sha256 over every ordered pair's step count, max_hamming and repair_switches."""
    states = enumerate_all(inst)
    stack = paths.state_stack(states)
    outcomes = []
    for X in states:
        for Y in states:
            if X.key == Y.key:
                continue
            rep = paths.verify_theta_omega(X, Y, stack)
            outcomes.append(
                [len(rep.steps), rep.max_hamming, [step.repair_switches for step in rep.steps]]
            )
    return len(states), hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


PINNED_AUDITS = [
    pytest.param(
        _half_regular(4, 2),
        7,
        "8576bb545b918604c98f3ebe8cde09d52d604e893a66295ab2ed2d99de06fef1",
        id="half_regular_4_2",
    ),
    pytest.param(
        _half_regular(5, 3),
        32,
        "057132dc9e278e61f05993ed0340601e710758bf9f563e666374fee433f7f943",
        id="half_regular_5_3",
    ),
    pytest.param(
        ROADMAP_4X4,
        15,
        "ad35b9c3785376080ec18e7bf05b3e3a8cedf31b069c875ef9cb3ef5aabdbc00",
        id="roadmap_4x4",
    ),
    pytest.param(
        MATCHED_CENTER,
        88,
        "d8be711c794d9254705ba48bc95c8ac0a29b2e71a12e12478c24e395d3789410",
        id="MATCHED_CENTER",
    ),
    pytest.param(
        core.from_directed([2] * 4, [2] * 4),
        9,
        "a27646179a0a8b0e59dc18522fb60730855d14cd48210034790e93c9359aa3a5",
        id="directed_2_4",
    ),
    pytest.param(
        core.from_directed([3] * 5, [3] * 5),
        44,
        "8481c92312e5a86ec4024fb8b17f2739a88596694ccdf184ea1b03cd4bf8517e",
        id="directed_3_5",
    ),
    pytest.param(
        core.bipartite_instance([1] * 4, [1] * 4),
        24,
        "d7b478bcd4dc9554da3de1fa10f3bcf007c9d3d229b9ce78ab2effa575391cc5",
        id="no_forbidden_1_4",
    ),
]


@pytest.mark.parametrize("inst, n_states, digest", PINNED_AUDITS)
def test_audit_outcomes_match_pinned_digest(inst, n_states, digest):
    """Every ordered pair's audit outcome, step by step, is pinned.

    MATCHED_CENTER is the one with lone -1 entries and 2/-1 pairs that no
    single switch resolves; the other three bipartite ones repair mostly lone
    2 entries.  The two directed ones are 2- and 3-regular digraphs on four
    and five vertices, the abstract's directed special case: the diagonal
    matching forbids loops and there is no star.  The last has no forbidden
    pair at all: its 24 states are the permutation matrices of order four.
    """
    assert _audit_digest(inst) == (n_states, digest)


# -- all pairs in one pass ----------------------------------------------------------


def _one_pair_audits(states):
    """What audit_pairs yields, from a fresh verify_theta_omega call per pair."""
    stack = paths.state_stack(states)
    for i, X in enumerate(states):
        for j, Y in enumerate(states):
            if i != j:
                yield i, j, paths.verify_theta_omega(X, Y, stack)


def _outcome(report):
    steps = [(s.move, s.toggle, s.state.key, s.repair_switches) for s in report.steps]
    return steps, report.max_hamming, report.theta_ok


def _assert_audit_pairs_match(states, limit=None):
    """audit_pairs and the one-pair audit agree pair by pair on the first ``limit`` pairs."""
    fresh = list(islice(_one_pair_audits(states), limit))
    shared = list(islice(paths.audit_pairs(states), limit))
    assert [(i, j) for i, j, _ in shared] == [(i, j) for i, j, _ in fresh]
    for (_, _, got), (_, _, want) in zip(shared, fresh):
        assert _outcome(got) == _outcome(want)
    steps = [step for _, _, rep in shared for step in rep.steps]
    assert len({id(step) for step in steps}) == len(steps)  # no step is shared


@pytest.mark.parametrize("inst, n_states, digest", PINNED_AUDITS)
def test_audit_pairs_matches_the_one_pair_audit(inst, n_states, digest):
    _assert_audit_pairs_match(enumerate_all(inst))


@settings(max_examples=25, deadline=None)
@given(half_regular_instances())
def test_audit_pairs_matches_the_one_pair_audit_property(inst):
    _assert_audit_pairs_match(enumerate_all(inst), limit=300)


def _first_failure(audits):
    """(pairs audited before the first AuditFailed, its message), or None."""
    done = 0
    try:
        for _ in audits:
            done += 1
    except AuditFailed as exc:
        return done, str(exc)
    return None


def _first_uses(fn_name, key, states, monkeypatch):
    """Distinct keys of the calls of paths.<fn_name>, in one-pair audit order."""
    seen = {}
    real = getattr(paths, fn_name)

    def record(*args):
        seen.setdefault(key(*args), None)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(paths, fn_name, record)
        for _ in _one_pair_audits(states):
            pass
    return list(seen)


def _refuse(inst, m):
    raise AuditFailed("switch repair refused the chosen matrix")


@pytest.mark.parametrize(
    "fn_name, key, fail",
    [
        ("classify_move", lambda cur, nxt: (cur.key, nxt.key), lambda cur, nxt: "c5"),
        ("switch_repair", lambda inst, m: m.tobytes(), _refuse),
    ],
    ids=["classify_move", "switch_repair"],
)
def test_audit_pairs_fails_where_the_one_pair_audit_fails(fn_name, key, fail, monkeypatch):
    """A check made to fail on one input fails at the same pair with the same message.

    The inputs are spread over the order in which the one-pair audit first
    meets them, so most of them first turn up after the memos hold entries
    for other sweeps or matrices of the same pairs.
    """
    states = enumerate_all(_half_regular(5, 3))
    inputs = _first_uses(fn_name, key, states, monkeypatch)
    real = getattr(paths, fn_name)
    for chosen in inputs[1 :: max(1, len(inputs) // 6)]:

        def check(*args, chosen=chosen):
            return fail(*args) if key(*args) == chosen else real(*args)

        with monkeypatch.context() as m:
            m.setattr(paths, fn_name, check)
            want = _first_failure(_one_pair_audits(states))
            got = _first_failure(paths.audit_pairs(states))
        assert want is not None and want[0] > 0
        assert got == want


def _detour_walks(audits, monkeypatch):
    """The state of every step whose audit walks legal_moves, in audit order."""
    walks = []
    legal_moves = paths.legal_moves

    def record(inst, edges):
        walks.append(edges)
        return legal_moves(inst, edges)

    with monkeypatch.context() as m:
        m.setattr(paths, "legal_moves", record)
        for _ in audits:
            pass
    return walks


def test_audit_pairs_audits_every_detour_step(monkeypatch):
    """Steps that need the one-move detour are never memoised: each walks legal_moves."""
    states = enumerate_all(_half_regular(5, 3))
    walks = _detour_walks(_one_pair_audits(states), monkeypatch)
    assert walks and _detour_walks(paths.audit_pairs(states), monkeypatch) == walks
