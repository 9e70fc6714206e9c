"""Canonical-path machinery run as an executable auditor.

A pair of realizations (X, Y) is joined by a deterministic path: the symmetric
difference splits into an ordered list of alternating cycles, the cycles define
milestone realizations, and each cycle is swept with 4-cycle and forbidden-
matching 6-cycle chain moves.  :func:`canonical_path` only builds that path,
one :class:`PathStep` (move, toggled chords, state) per move.  Which moves are
legal is decided by :mod:`rds_kit.chain`: the sweep builds each step with
:func:`~rds_kit.chain.try_c4` or :func:`~rds_kit.chain.try_c6`, and each
step's state is checked again with :func:`~rds_kit.chain.classify_move`.

:func:`verify_theta_omega` audits a built path against a stack of state
matrices, which must hold every state.  A step Z with X & Y <= Z <= X | Y
has an auxiliary matrix M_X + M_Y - M_Z with no 2 or -1 entry: it is the
realization X ^ Y ^ Z, which is validated from its edges.  For every other
step the audit forms the auxiliary matrix once and checks that it stays within
one swap and at most three corner switches of a genuine realization matrix
(Hamming distance at most 16) and that its bad entries stay confined to one
column away from the star center; the repair's one-move detour walks
:func:`~rds_kit.chain.legal_moves`.  The repair is one rule: each corner
switch moves a unit of the bad column from a source row to a sink row and
back through a column that stays binary, retiring a 2 or a -1 and creating
no bad entry.  Every cycle of length 2l must cost exactly weight l-1.

:func:`audit_pairs` audits every ordered pair of a state list in row order,
sharing for that call a memo of cycle sweeps, keyed by (milestone edges, cycle
vertices), and one of matrix checks, keyed by the auxiliary matrix's bytes.
An entry is written only after every check on its input has passed, so each
distinct input is still checked in full once and a failure is raised where
the one-pair audit raises it.  Detour steps depend on Z and are never stored.

Matrices exist for bipartite kinds only, as plain W x U int8 arrays like
:attr:`Realization.matrix`, with 0 at every forbidden pair; the repair, which
must refuse a forbidden corner, reads ``inst.forbidden_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import classify_move, legal_moves, try_c4, try_c6
from .core import (
    Pair,
    ProblemInstance,
    Realization,
    adjacency_matrix,
    realization_from_global_edges,
)
from .errors import AuditFailed, NotAMilestonePair, PreconditionViolated
from .swaps import ChordCircuit, decompose_symmetric_difference

HAMMING_BOUND = 16  # one swap (4 positions) plus three switches (4 each)
MAX_SWITCHES = 3  # the most corner switches one repair may need


# ---------------------------------------------------------------------------
# auxiliary matrix and bad positions
# ---------------------------------------------------------------------------


def auxiliary_matrix(X: Realization, Y: Realization, Z: Realization) -> np.ndarray:
    """Entrywise M_X + M_Y - M_Z, from the cached matrices; 0 at forbidden pairs."""
    return X.matrix + Y.matrix - Z.matrix


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


def bad_positions(m: np.ndarray) -> list[tuple[int, int, int]]:
    """(u, w_global, value) for every entry equal to -1 or 2."""
    n_u = m.shape[1]
    rows, cols = np.nonzero((m == 2) | (m == -1))
    return sorted((c, n_u + r, int(m[r, c])) for r, c in zip(rows.tolist(), cols.tolist()))


def audit_bad_positions(inst: ProblemInstance, m: np.ndarray) -> BadPositionReport:
    """Counts of 2 and -1 entries plus their column pattern."""
    return _pattern(inst, bad_positions(m))


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
    partners = inst.forbidden_partners
    edges = set(G.edges)
    moves: list[tuple[str, tuple[Pair, ...]]] = []

    def emit(kind: str, utuple: tuple[int, ...], wtuple: tuple[int, ...]) -> None:
        toggle = (try_c4 if kind == "c4" else try_c6)(partners, edges, utuple, wtuple)
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
    legal_now = try_c4(inst.forbidden_partners, edges, *outer) is not None
    first, second = (outer, inner) if legal_now else (inner, outer)
    emit("c4", *first)
    emit("c4", *second)


def canonical_path(X: Realization, Y: Realization, sweeps: dict | None = None) -> "PathReport":
    """The unique move sequence from X to Y; :func:`verify_theta_omega` audits it.

    ``sweeps`` memoises each cycle's checked (kind, toggle, state) triples.
    """
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
        key = (cur.edges, cyc.vertices)
        swept = sweeps.get(key) if sweeps is not None else None
        if swept is None:
            swept = []
            for kind, toggle in sweep_cycle(cur, miles[idx + 1], cyc):
                nxt = realization_from_global_edges(
                    cur.instance, cur.edges.symmetric_difference(toggle)
                )
                if classify_move(cur, nxt) != kind:
                    raise AuditFailed("sweep emitted a move outside the chain's move set")
                swept.append((kind, toggle, nxt))
                cur = nxt
            if sweeps is not None:
                sweeps[key] = swept
        steps.extend(PathStep(move=kind, toggle=toggle, state=Z) for kind, toggle, Z in swept)
        cycle_weights.append((cyc.length // 2, sum(st.weight for st in steps[first:])))
    return PathReport(steps=steps, theta_ok=all(w == l - 1 for l, w in cycle_weights))


@dataclass
class PathStep:
    move: str
    toggle: tuple[Pair, ...]  # the chords the move flips
    state: Realization
    repair_switches: int | None = None  # set by verify_theta_omega

    @property
    def weight(self) -> int:
        """i-1 for a move along a circuit of length 2i."""
        return len(self.toggle) // 2 - 1


@dataclass
class PathReport:
    """Canonical path between two realizations; the audit fills the last two fields."""

    steps: list[PathStep]
    theta_ok: bool
    omega_ok: bool | None = None
    max_hamming: int | None = None


# ---------------------------------------------------------------------------
# switch repair
# ---------------------------------------------------------------------------

Switch = tuple[Pair, Pair]  # ((u_a, w_a), (u_b, w_b)): +1 there, -1 on the cross corners


def _apply_switch(inst: ProblemInstance, m: np.ndarray, sw: Switch) -> None:
    (ua, wa), (ub, wb) = sw
    ra, rb = wa - inst.n_u, wb - inst.n_u
    for r, c, d in ((ra, ua, 1), (rb, ub, 1), (ra, ub, -1), (rb, ua, -1)):
        if inst.forbidden_mask[r, c]:
            raise AuditFailed("switch touches a forbidden corner")
        m[r, c] += d


def switch_repair(inst: ProblemInstance, m: np.ndarray) -> tuple[list[Switch], Realization]:
    """Corner switches turning an audit matrix into a realization matrix.

    Requires constant column sums away from the star center and at most two
    2-entries plus at most one -1-entry, all in one column u.  Each switch adds
    1 on one diagonal of a 2x2 submatrix and subtracts 1 on the other, never
    touching a forbidden corner.  One rule picks every switch: it moves a unit
    of column u from a source row to a sink row and back through another
    column u1 that has a 1 in the sink row and a free 0 in the source row, so
    u1 stays binary.  The first candidate of three tiers is taken: a -1 sink
    with a 2 source, a -1 sink with a 1 source, a free 0 sink with a 2 source.
    A switch thus retires one or two bad entries and creates none, and the at
    most three bad entries need at most ``MAX_SWITCHES`` switches.
    """
    s = inst.effective_star_center
    sums = m.sum(axis=0)
    off_center = [int(sums[u]) for u in range(inst.n_u) if u != s]
    if len(set(off_center)) > 1:
        raise PreconditionViolated("column sums differ away from the star center")
    bads = bad_positions(m)
    if not _pattern(inst, bads).within_lemma_pattern:
        raise PreconditionViolated("bad-position pattern outside the repair lemma")

    work = m.copy()
    switches: list[Switch] = []
    while bads:
        if len(switches) >= MAX_SWITCHES:
            raise AuditFailed("repair exceeded the switch budget")
        sw = _pick_switch(inst, work, bads[0][0])
        _apply_switch(inst, work, sw)
        switches.append(sw)
        bads = bad_positions(work)
    if ((work != 0) & (work != 1)).any():
        raise AuditFailed("repair left a non-binary entry")
    rows, cols = np.nonzero(work == 1)
    edges = {(u, inst.n_u + r) for r, u in zip(rows.tolist(), cols.tolist())}
    return switches, realization_from_global_edges(inst, edges)


def _pick_switch(inst: ProblemInstance, m: np.ndarray, u: int) -> Switch:
    """The first switch of :func:`switch_repair`'s rule through the bad column u.

    Candidates are searched tier by tier, each in u1, sink, source order.
    """
    n_u = inst.n_u
    cols = m.T.tolist()
    col, partners = cols[u], inst.forbidden_partners
    rows = range(inst.n_w)
    for sink_value, source_value in ((-1, 2), (-1, 1), (0, 2)):
        for u1 in range(n_u):
            if u1 == u:
                continue
            col1 = cols[u1]
            for sink in rows:
                if col[sink] != sink_value or col1[sink] != 1 or n_u + sink in partners[u]:
                    continue
                for source in rows:
                    if col[source] == source_value and col1[source] == 0:
                        if n_u + source not in partners[u1]:
                            return ((u, n_u + sink), (u1, n_u + source))
    raise AuditFailed("no corner switch retires a bad entry")


# ---------------------------------------------------------------------------
# theta / omega verification
# ---------------------------------------------------------------------------


def state_stack(states: list[Realization]) -> np.ndarray:
    """(S, n_w * n_u) stack of the states' matrices, for nearest-state searches."""
    return np.array([s.matrix.ravel() for s in states], dtype=np.int8)


def _require_audit_instance(inst: ProblemInstance) -> None:
    if not inst.is_bipartite_like:
        raise PreconditionViolated("audits are defined for bipartite kinds")
    if not inst.half_regular:
        raise PreconditionViolated("the switch-repair audit needs a half-regular instance")


def verify_theta_omega(
    X: Realization,
    Y: Realization,
    stack: np.ndarray,
    sweeps: dict | None = None,
    checked: dict | None = None,
) -> PathReport:
    """Audit one canonical path against the sweep-cost and auxiliary-matrix bounds.

    Builds the path with :func:`canonical_path`, then checks, for every
    intermediate state Z, the auxiliary matrix M_X + M_Y - M_Z.  A 2 lies
    where a chord is in X and Y but not in Z, a -1 where it is in Z but in
    neither X nor Y, so when X & Y <= Z <= X | Y the matrix is that of the
    edge set X ^ Y ^ Z: that set is validated as a realization, and the step
    counts as distance 0 with no switches.  Any other step's matrix is checked
    in full: it has the instance's degree sequences as margins; it lies within
    Hamming distance 16 of some realization matrix, found both by exhaustive
    nearest search over ``stack`` (the matrices of every state, see
    :func:`state_stack`) and constructively via at most one chain move plus
    at most three switches; and its bad-entry pattern sits within one move of
    the confined-column shape.  Raises AuditFailed on any violation.

    ``sweeps`` goes to :func:`canonical_path`; ``checked`` maps a matrix's
    bytes to its (distance, switch count) against this ``stack``, see
    :func:`audit_pairs`.
    """
    inst = X.instance
    _require_audit_instance(inst)
    report = canonical_path(X, Y, sweeps)

    max_h = 0
    both, either, differ = X.edges & Y.edges, X.edges | Y.edges, X.edges ^ Y.edges
    for step in report.steps:
        Z = step.state.edges
        if both <= Z <= either:
            # no 2 or -1 entry: M_X + M_Y - M_Z is the realization X ^ Y ^ Z
            realization_from_global_edges(inst, differ ^ Z)
            step.repair_switches = 0
            continue
        mhat = auxiliary_matrix(X, Y, step.state)
        key = mhat.tobytes()
        if checked is not None and key in checked:
            h, step.repair_switches = checked[key]
            max_h = max(max_h, h)
            continue
        columns, rows = mhat.sum(axis=0), mhat.sum(axis=1)
        if not (np.array_equal(columns, inst.u_degrees) and np.array_equal(rows, inst.w_degrees)):
            raise AuditFailed("auxiliary matrix margins drifted")
        h = int((stack != mhat.ravel()).sum(axis=1).min())
        max_h = max(max_h, h)
        if h > HAMMING_BOUND:
            raise AuditFailed(
                f"auxiliary matrix is {h} positions from the nearest realization"
            )
        # constructive route: at most one move away from the repairable pattern
        base = mhat
        fits = audit_bad_positions(inst, mhat).within_lemma_pattern
        if not fits:
            edges = step.state.edges
            for _, toggle in legal_moves(inst, edges):
                nb = realization_from_global_edges(inst, edges.symmetric_difference(toggle))
                base = auxiliary_matrix(X, Y, nb)
                if audit_bad_positions(inst, base).within_lemma_pattern:
                    break
            else:
                raise AuditFailed("no single move reaches the repairable pattern")
        switches, repaired = switch_repair(inst, base)
        constructive = int((mhat != adjacency_matrix(repaired)).sum())
        if constructive > HAMMING_BOUND or len(switches) > MAX_SWITCHES:
            raise AuditFailed("constructive repair exceeded the audit bound")
        step.repair_switches = len(switches)
        if fits and checked is not None:
            checked[key] = (h, len(switches))
    if not report.theta_ok:
        raise AuditFailed("a cycle sweep emitted the wrong total weight")
    report.omega_ok = True
    report.max_hamming = max_h
    return report


def audit_pairs(states: list[Realization]):
    """Yield (i, j, report) of :func:`verify_theta_omega` for every ordered pair i != j.

    The pairs share the sweep and matrix memos; see the module docstring.
    """
    stack = state_stack(states)
    sweeps: dict = {}
    checked: dict = {}
    for i, X in enumerate(states):
        for j, Y in enumerate(states):
            if i != j:
                yield i, j, verify_theta_omega(X, Y, stack, sweeps, checked)
