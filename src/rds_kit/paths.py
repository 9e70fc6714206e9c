"""Canonical-path machinery run as an executable auditor.

A pair of realizations (X, Y) is joined by a deterministic path: the symmetric
difference splits into an ordered list of alternating cycles, the cycles define
milestone realizations, and each cycle is swept with 4-cycle and forbidden-
matching 6-cycle chain moves.  Along the way the auxiliary matrix
M_X + M_Y - M_Z is tracked; the audits check that it stays within one swap and
at most three corner switches of a genuine realization matrix (Hamming
distance at most 16), that bad entries stay confined to the sweep column, and
that every cycle of length 2l costs exactly weight l-1.  Which moves are legal
is decided by :mod:`rds_kit.chain`: the sweep builds each step with
:func:`~rds_kit.chain.try_c4` or :func:`~rds_kit.chain.try_c6`, each step's
state is checked again with :func:`~rds_kit.chain.classify_move`, and the
repair's one-move detour walks :func:`~rds_kit.chain.legal_moves`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import classify_move, legal_moves, try_c4, try_c6
from .core import (
    ChordMatrix,
    Pair,
    ProblemInstance,
    Realization,
    adjacency_matrix,
    realization_from_global_edges,
)
from .errors import AuditFailed, NotAMilestonePair, PreconditionViolated
from .swaps import ChordCircuit, decompose_symmetric_difference

HAMMING_BOUND = 16  # one swap (4 positions) plus three switches (4 each)


# ---------------------------------------------------------------------------
# auxiliary matrix and bad positions
# ---------------------------------------------------------------------------


def auxiliary_matrix(X: Realization, Y: Realization, Z: Realization) -> ChordMatrix:
    """Entrywise M_X + M_Y - M_Z over chord positions, from the cached matrices."""
    values = X.matrix + Y.matrix - Z.matrix
    return ChordMatrix(X.instance, values, X.instance.forbidden_mask)


@dataclass(frozen=True)
class BadPositionReport:
    count2: int
    count_minus1: int
    same_column: bool
    column_not_star: bool

    @property
    def within_lemma_pattern(self) -> bool:
        return (
            self.count2 <= 2
            and self.count_minus1 <= 1
            and self.same_column
            and self.column_not_star
        )


def bad_positions(m: ChordMatrix) -> list[tuple[int, int, int]]:
    """(u, w_global, value) for every entry equal to -1 or 2."""
    inst = m.instance
    out = []
    rows, cols = np.nonzero(((m.values == 2) | (m.values == -1)) & ~m.forbidden)
    for r, c in zip(rows.tolist(), cols.tolist()):
        out.append((c, inst.n_u + r, int(m.values[r, c])))
    return sorted(out)


def audit_bad_positions(m: ChordMatrix) -> BadPositionReport:
    """Counts of 2 and -1 entries plus their column pattern."""
    return _pattern(m.instance, bad_positions(m))


def _pattern(inst: ProblemInstance, bads: list[tuple[int, int, int]]) -> BadPositionReport:
    columns = {u for u, _, _ in bads}
    s = inst.effective_star_center
    return BadPositionReport(
        count2=sum(1 for _, _, v in bads if v == 2),
        count_minus1=sum(1 for _, _, v in bads if v == -1),
        same_column=len(columns) <= 1,
        column_not_star=all(u != s for u in columns),
    )


# ---------------------------------------------------------------------------
# decomposition, milestones, sweep
# ---------------------------------------------------------------------------


def ordered_cycle_decomposition(G: Realization, H: Realization) -> list[ChordCircuit]:
    """Deterministic ordered list of simple alternating cycles partitioning the difference."""
    cycles = decompose_symmetric_difference(G, H)
    for c in cycles:
        if len(set(c.vertices)) != len(c.vertices):
            raise AuditFailed("bipartite decomposition produced a non-simple cycle")
    return cycles


def milestones(X: Realization, Y: Realization, cycles: list[ChordCircuit]) -> list[Realization]:
    """Realizations H_0=X .. H_m=Y, consecutive ones differing by one cycle."""
    out = [X]
    edges = set(X.edges)
    for cyc in cycles:
        edges.symmetric_difference_update(cyc.chords)
        out.append(realization_from_global_edges(X.instance, edges))
    if out[-1].key != Y.key:
        raise AuditFailed("cycle decomposition does not close at Y")
    return out


def _oriented_cycle(G: Realization, cycle: ChordCircuit) -> tuple[list[int], list[int]]:
    """Vertex lists (us, ws) with u_1 != s least, u_1-w_1 a non-edge of G.

    The sweep pivots on u_1; the closing chord w_l u_1 is then a G-edge.
    """
    inst = G.instance
    vs = cycle.vertices
    n = len(vs)
    s = inst.effective_star_center
    u_candidates = [v for v in vs if inst.vertex_class(v) == "U" and v != s]
    if not u_candidates:
        raise PreconditionViolated("cycle has no U-vertex besides the star center")
    u1 = min(u_candidates)
    p = vs.index(u1)
    before, after = vs[(p - 1) % n], vs[(p + 1) % n]
    if not G.has_edge(u1, after):
        ordered = [vs[(p + k) % n] for k in range(n)]
    elif not G.has_edge(u1, before):
        ordered = [vs[(p - k) % n] for k in range(n)]
    else:
        raise NotAMilestonePair("cycle does not alternate in the source realization")
    us = ordered[0::2]
    ws = ordered[1::2]
    return us, ws


def sweep_cycle(
    G: Realization, G_next: Realization, cycle: ChordCircuit
) -> list[tuple[str, tuple[Pair, ...]]]:
    """Chain moves from one milestone to the next along a single cycle.

    Walks the cycle from the pivot u_1: each iteration locates the lowest
    unprocessed G-edge in the pivot's column (the start-chord) and sweeps it
    back to the previous boundary with single steps, detouring through a
    6-cycle double step whenever the position below the start-chord is the
    pivot's forbidden partner.  Moves come as (kind, chords to toggle), as
    :func:`~rds_kit.chain.legal_moves` yields them, and each is built by
    :func:`~rds_kit.chain.try_c4` or :func:`~rds_kit.chain.try_c6`.  Total
    emitted weight is l-1.
    """
    inst = G.instance
    if G.edges ^ G_next.edges != set(cycle.chords):
        raise NotAMilestonePair("realizations do not differ by exactly this cycle")
    us, ws = _oriented_cycle(G, cycle)
    ell = len(us)
    forbidden = inst.forbidden
    edges = set(G.edges)
    moves: list[tuple[str, tuple[Pair, ...]]] = []

    def emit(kind: str, utuple: tuple[int, ...], wtuple: tuple[int, ...]) -> None:
        toggle = (try_c4 if kind == "c4" else try_c6)(forbidden, edges, utuple, wtuple)
        if toggle is None:
            raise AuditFailed(f"sweep step is not a legal {kind} move")
        moves.append((kind, toggle))
        edges.symmetric_difference_update(toggle)

    u1 = us[0]
    boundary = 0  # index into ws: end-chord of the current iteration
    while True:
        start = next(i for i in range(boundary + 1, ell) if (u1, ws[i]) in edges)
        j = start
        while j > boundary:
            below = ws[j - 1]
            if inst.is_chord(u1, below):
                emit("c4", (u1, us[j]), (below, ws[j]))
                j -= 1
            else:
                _double_step(emit, inst, edges, u1, us, ws, j)
                j -= 2
        if start == ell - 1:
            break
        boundary = start
    if edges != G_next.edges:
        raise AuditFailed("sweep did not land on the target milestone")
    return moves


def _double_step(emit, inst: ProblemInstance, edges, u1, us, ws, j) -> None:
    """Process two sweep positions around the pivot's forbidden partner.

    The hexagon is (u1, w_{j-2}, u_{j-1}, w_{j-1}, u_j, w_j).  It splits into
    two 4-cycle moves at w_{j-2}-u_j if that is a chord, else at u_{j-1}-w_j
    if that is one; the outer 4-cycle goes first when it is a legal move now.
    With neither a chord it is one 6-cycle move.
    """
    w_cur, w_mid, w_top = ws[j - 2], ws[j - 1], ws[j]
    u_mid, u_top = us[j - 1], us[j]
    if inst.is_chord(u_top, w_cur):
        outer = ((u1, u_top), (w_cur, w_top))
        inner = ((u_mid, u_top), (w_cur, w_mid))
    elif inst.is_chord(u_mid, w_top):
        outer = ((u1, u_mid), (w_cur, w_top))
        inner = ((u_mid, u_top), (w_mid, w_top))
    else:
        emit("c6", (u1, u_mid, u_top), (w_cur, w_mid, w_top))
        return
    legal_now = try_c4(inst.forbidden, edges, *outer) is not None
    first, second = (outer, inner) if legal_now else (inner, outer)
    emit("c4", *first)
    emit("c4", *second)


def canonical_path(X: Realization, Y: Realization) -> "PathReport":
    """The unique audited move sequence from X to Y."""
    if X.instance != Y.instance:
        raise PreconditionViolated("realizations belong to different instances")
    if not X.instance.is_bipartite_like:
        raise PreconditionViolated("canonical paths are defined for bipartite kinds")
    cycles = ordered_cycle_decomposition(X, Y)
    miles = milestones(X, Y, cycles)
    steps: list[PathStep] = []
    cycle_weights: list[tuple[int, int]] = []
    for idx, cyc in enumerate(cycles):
        first = len(steps)
        cur = miles[idx]
        for kind, toggle in sweep_cycle(cur, miles[idx + 1], cyc):
            nxt = realization_from_global_edges(
                cur.instance, cur.edges.symmetric_difference(toggle)
            )
            if classify_move(cur, nxt) != kind:
                raise AuditFailed("sweep emitted a move outside the chain's move set")
            mhat = auxiliary_matrix(X, Y, nxt)
            steps.append(
                PathStep(
                    move=kind,
                    toggle=toggle,
                    state=nxt,
                    aux=mhat,
                    bad=audit_bad_positions(mhat),
                )
            )
            cur = nxt
        cycle_weights.append((cyc.length // 2, sum(st.weight for st in steps[first:])))
    theta_ok = all(w == l - 1 for l, w in cycle_weights)
    return PathReport(
        source=X,
        target=Y,
        cycles=cycles,
        milestones=miles,
        steps=steps,
        cycle_weights=cycle_weights,
        theta_ok=theta_ok,
    )


@dataclass
class PathStep:
    move: str
    toggle: tuple[Pair, ...]  # the chords the move flips
    state: Realization
    aux: ChordMatrix  # M_X + M_Y - M_state
    bad: BadPositionReport
    hamming_nearest: int | None = None
    repair_switches: int | None = None
    repair_swaps: int | None = None

    @property
    def weight(self) -> int:
        """i-1 for a move along a circuit of length 2i."""
        return len(self.toggle) // 2 - 1


@dataclass
class PathReport:
    """Canonical path between two realizations plus per-step audits."""

    source: Realization
    target: Realization
    cycles: list[ChordCircuit]
    milestones: list[Realization]
    steps: list[PathStep]
    cycle_weights: list[tuple[int, int]]
    theta_ok: bool
    omega_ok: bool | None = None
    max_hamming: int | None = None

    def to_json_dict(self) -> dict:
        inst = self.source.instance
        return {
            "from": self.source.to_pairs(),
            "to": self.target.to_pairs(),
            "cycles": [
                [
                    [inst.vertex_class(v), v if v < inst.n_u else v - inst.n_u]
                    for v in c.vertices
                ]
                for c in self.cycles
            ],
            "milestones": [m.to_pairs() for m in self.milestones],
            "moves": [
                {
                    "move": st.move,
                    "weight": st.weight,
                    "count2": st.bad.count2,
                    "count_minus1": st.bad.count_minus1,
                    "same_column": st.bad.same_column,
                    "column_not_star": st.bad.column_not_star,
                    "hamming_nearest": st.hamming_nearest,
                    "repair_switches": st.repair_switches,
                }
                for st in self.steps
            ],
            "cycle_weights": [
                {"half_length": l, "emitted_weight": w} for l, w in self.cycle_weights
            ],
            "theta_ok": self.theta_ok,
            "omega_ok": self.omega_ok,
            "max_hamming": self.max_hamming,
        }


# ---------------------------------------------------------------------------
# switch repair
# ---------------------------------------------------------------------------

Switch = tuple[Pair, Pair]  # ((u_a, w_a), (u_b, w_b)): +1 there, -1 on the cross corners


def _apply_switch(m: ChordMatrix, sw: Switch) -> None:
    (ua, wa), (ub, wb) = sw
    n_u = m.instance.n_u
    ra, rb = wa - n_u, wb - n_u
    for r, c, d in ((ra, ua, 1), (rb, ub, 1), (ra, ub, -1), (rb, ua, -1)):
        if m.forbidden[r, c]:
            raise AuditFailed("switch touches a forbidden corner")
        m.values[r, c] += d


def _value(m: ChordMatrix, u: int, w: int) -> int | None:
    r = w - m.instance.n_u
    if m.forbidden[r, u]:
        return None
    return int(m.values[r, u])


def switch_repair(m: ChordMatrix, max_switches: int = 3) -> tuple[list[Switch], Realization]:
    """Corner switches turning an audit matrix into a realization matrix.

    Requires constant column sums away from the star center and at most two
    2-entries plus at most one -1-entry, all in one column.  Each switch adds
    1 on one diagonal of a 2x2 submatrix and subtracts 1 on the other, never
    touching a forbidden corner; at most three are needed.
    """
    inst = m.instance
    s = inst.effective_star_center
    sums = m.column_sums()
    off_center = [int(sums[u]) for u in range(inst.n_u) if u != s]
    if len(set(off_center)) > 1:
        raise PreconditionViolated("column sums differ away from the star center")
    bads = bad_positions(m)
    if not _pattern(inst, bads).within_lemma_pattern:
        raise PreconditionViolated("bad-position pattern outside the repair lemma")

    work = m.copy()
    switches: list[Switch] = []
    while bads:
        if len(switches) >= max_switches:
            raise AuditFailed("repair exceeded the switch budget")
        sw = _pick_switch(work, bads)
        _apply_switch(work, sw)
        switches.append(sw)
        bads = bad_positions(work)
    chords = ~work.forbidden
    if (chords & (work.values != 0) & (work.values != 1)).any():
        raise AuditFailed("repair left a non-binary entry")
    rows, cols = np.nonzero(chords & (work.values == 1))
    edges = {(u, inst.n_u + r) for r, u in zip(rows.tolist(), cols.tolist())}
    return switches, realization_from_global_edges(inst, edges)


def _pick_switch(m: ChordMatrix, bads: list[tuple[int, int, int]]) -> Switch:
    inst = m.instance
    twos = [(u, w) for u, w, v in bads if v == 2]
    negs = [(u, w) for u, w, v in bads if v == -1]
    u_ids = range(inst.n_u)
    w_ids = range(inst.n_u, inst.n_vertices)

    if twos and negs:
        u = negs[0][0]
        w3 = negs[0][1]
        twos = [t for t in twos if t[0] == u]
        if not twos:
            raise AuditFailed("2-value and -1-value drifted into different columns")
        # pair one 2 with the -1 in one switch when a clean column exists
        for _, w_two in twos:
            for u1 in u_ids:
                if u1 == u:
                    continue
                if _value(m, u1, w_two) == 0 and _value(m, u1, w3) == 1:
                    return ((u, w3), (u1, w_two))
        if len(twos) == 1:
            # degrade gently: push the surplus into a fresh column
            _, w_two = twos[0]
            for u1 in u_ids:
                if u1 == u:
                    continue
                if _value(m, u1, w3) == 1 and _value(m, u1, w_two) is not None:
                    return ((u, w3), (u1, w_two))
            for u1 in u_ids:
                if u1 == u:
                    continue
                if _value(m, u1, w_two) == 0 and _value(m, u1, w3) == 0:
                    return ((u, w3), (u1, w_two))
        else:
            # two 2-values: retire one of them without touching the -1
            for _, w_two in twos:
                for u1 in u_ids:
                    if u1 == u or _value(m, u1, w_two) != 0:
                        continue
                    for w4 in w_ids:
                        if w4 in (w_two, w3):
                            continue
                        if _value(m, u1, w4) == 1 and _value(m, u, w4) == 0:
                            return ((u, w4), (u1, w_two))
        raise AuditFailed("no switch candidate for the 2/-1 pattern")

    if negs:
        u, w = negs[0]
        for u1 in u_ids:
            if u1 == u or _value(m, u1, w) != 1:
                continue
            for w1 in w_ids:
                if w1 == w:
                    continue
                if _value(m, u, w1) == 1 and _value(m, u1, w1) == 0:
                    return ((u, w), (u1, w1))
        raise AuditFailed("no switch candidate for a -1 entry")

    u, w = twos[0]
    for u1 in u_ids:
        if u1 == u or _value(m, u1, w) != 0:
            continue
        for w1 in w_ids:
            if w1 == w:
                continue
            if _value(m, u, w1) == 0 and _value(m, u1, w1) == 1:
                return ((u, w1), (u1, w))
    raise AuditFailed("no switch candidate for a 2 entry")


# ---------------------------------------------------------------------------
# theta / omega verification
# ---------------------------------------------------------------------------


def state_stack(states: list[Realization]) -> np.ndarray:
    """(S, n_w * n_u) stack of the states' matrices, for nearest-state searches."""
    return np.array([s.matrix.ravel() for s in states], dtype=np.int8)


def verify_theta_omega(
    X: Realization,
    Y: Realization,
    states: list[Realization] | None = None,
    *,
    stack: np.ndarray | None = None,
) -> PathReport:
    """Audit one canonical path against the sweep-cost and auxiliary-matrix bounds.

    Checks, for every intermediate state Z: the auxiliary matrix has the
    margins of a realization matrix; it lies within Hamming distance 16 of
    some realization matrix, found both by exhaustive nearest search and
    constructively via one chain move plus at most three switches; and the
    bad-entry pattern sits within one move of the confined-column shape.
    Raises AuditFailed on any violation.  The nearest search runs over
    ``stack`` (see :func:`state_stack`) when given, else over ``states``,
    else over every enumerated realization.
    """
    inst = X.instance
    if not inst.is_bipartite_like:
        raise PreconditionViolated("audits are defined for bipartite kinds")
    if not inst.half_regular:
        raise PreconditionViolated("the switch-repair audit needs a half-regular instance")
    if stack is None:
        if states is None:
            from .oracle import enumerate_all

            states = enumerate_all(inst)
        stack = state_stack(states)
    report = canonical_path(X, Y)
    chord_positions = ~inst.forbidden_mask.ravel()
    mx = adjacency_matrix(X)
    col_target = mx.column_sums()
    row_target = mx.row_sums()

    max_h = 0
    for step in report.steps:
        mhat = step.aux
        sums_ok = np.array_equal(mhat.column_sums(), col_target) and np.array_equal(
            mhat.row_sums(), row_target
        )
        if not sums_ok:
            raise AuditFailed("auxiliary matrix margins drifted")
        flat = mhat.values.ravel()
        dists = ((stack != flat) & chord_positions).sum(axis=1)
        h = int(dists.min())
        step.hamming_nearest = h
        max_h = max(max_h, h)
        if h > HAMMING_BOUND:
            raise AuditFailed(
                f"auxiliary matrix is {h} positions from the nearest realization"
            )
        # constructive route: at most one move away from the repairable pattern
        if step.bad.within_lemma_pattern:
            swaps_used, base = 0, mhat
        else:
            edges = step.state.edges
            for _, toggle in legal_moves(inst, edges):
                nb = realization_from_global_edges(inst, edges.symmetric_difference(toggle))
                base = auxiliary_matrix(X, Y, nb)
                if audit_bad_positions(base).within_lemma_pattern:
                    break
            else:
                raise AuditFailed("no single move reaches the repairable pattern")
            swaps_used = 1
        switches, repaired = switch_repair(base)
        constructive = mhat.hamming(adjacency_matrix(repaired))
        if constructive > HAMMING_BOUND or len(switches) > 3:
            raise AuditFailed("constructive repair exceeded the audit bound")
        step.repair_switches = len(switches)
        step.repair_swaps = swaps_used
    if not report.theta_ok:
        raise AuditFailed("a cycle sweep emitted the wrong total weight")
    report.omega_ok = True
    report.max_hamming = max_h
    return report
