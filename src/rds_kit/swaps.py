"""Circular swaps along alternating chord-circuits and the swap distance.

A chord-circuit is a cyclic vertex sequence whose consecutive pairs are
distinct chords.  It is elementary when no vertex occurs more than twice and
repeated occurrences sit at odd circuit distance (for bipartite instances this
forces a simple cycle).  A swap is its circuit: applying an alternating
circuit toggles its chords, exchanging its edges and non-edges, so applying
it twice gives back the start.  The swap is F-compatible when every
potential vertex pair of the circuit is forbidden, and carries weight i-1
for length 2i.

The two chain moves are such swaps, but they are defined, built and applied
as chord toggles in :mod:`rds_kit.chain`.  The circuits here serve the
general F-swaps: the greedy's repair circuits, the F-swap enumeration of
:mod:`rds_kit.oracle`, the swap distance and the canonical paths of
:mod:`rds_kit.paths`.  One depth-first search, :func:`alternating_circuits`,
lists the elementary alternating circuits over given chords, each in one
direction; the F-swap enumeration runs it over every chord and the swap
distance over E(G) ^ E(H).  The paths need no search: one walk over
E(G) ^ E(H) cuts each of their circuits off where it closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Pair, ProblemInstance, Realization, norm_pair, realization_from_global_edges
from .errors import (
    InvalidCircuit,
    NotAChord,
    NotAlternating,
    PreconditionViolated,
    TooLarge,
)


@dataclass(frozen=True)
class ChordCircuit:
    """Cyclic vertex sequence (x_1 .. x_2i) over the chords of an instance."""

    instance: ProblemInstance
    vertices: tuple[int, ...]

    @cached_property
    def chords(self) -> tuple[Pair, ...]:
        vs = self.vertices
        return tuple(
            norm_pair(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        )

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def weight(self) -> int:
        """Cost i-1 of the swap along a circuit of length 2i."""
        return self.length // 2 - 1

    @cached_property
    def is_elementary(self) -> bool:
        positions: dict[int, list[int]] = {}
        for p, v in enumerate(self.vertices):
            positions.setdefault(v, []).append(p)
        for occ in positions.values():
            if len(occ) > 2:
                return False
            if len(occ) == 2 and (occ[1] - occ[0]) % 2 == 0:
                return False
        return True

    def canonical(self) -> "ChordCircuit":
        """Rotate/flip so the least vertex leads and its successor is minimal."""
        vs = self.vertices
        n = len(vs)
        low = min(vs)
        best: tuple[int, ...] | None = None
        for p in (i for i, v in enumerate(vs) if v == low):
            for step in (1, -1):
                cand = tuple(vs[(p + step * k) % n] for k in range(n))
                if best is None or cand < best:
                    best = cand
        assert best is not None
        return ChordCircuit(self.instance, best)


def make_circuit(inst: ProblemInstance, vertices) -> ChordCircuit:
    """Validate the circuit conditions: chords only, all distinct, even length >= 4."""
    vs = tuple(int(v) for v in vertices)
    if len(vs) < 4 or len(vs) % 2 != 0:
        raise InvalidCircuit(f"circuit length {len(vs)} is not an even number >= 4")
    circ = ChordCircuit(inst, vs)
    seen = set()
    for i, (a, b) in enumerate(circ.chords):
        if not inst.is_chord(a, b):
            raise NotAChord(f"consecutive pair {(vs[i], vs[(i + 1) % len(vs)])} is not a chord")
        if (a, b) in seen:
            raise InvalidCircuit(f"chord {(a, b)} repeats along the circuit")
        seen.add((a, b))
    return circ


def pv_pairs(circ: ChordCircuit) -> list[Pair]:
    """Pairs of distinct circuit vertices off the circuit at odd distance > 1."""
    vs = circ.vertices
    n = len(vs)
    chord_set = set(circ.chords)
    found: set[Pair] = set()
    for p in range(n):
        for q in range(p + 1, n):
            if vs[p] == vs[q]:
                continue
            d = q - p
            d = min(d, n - d)
            if d <= 1 or d % 2 == 0:
                continue
            pair = norm_pair(vs[p], vs[q])
            if pair not in chord_set:
                found.add(pair)
    return sorted(found)


def is_f_compatible(inst: ProblemInstance, circ: ChordCircuit) -> bool:
    """True when every potential vertex pair is a non-chord."""
    return all(not inst.is_chord(a, b) for a, b in pv_pairs(circ))


def check_alternating(real: Realization, circ: ChordCircuit) -> None:
    """Raise NotAlternating unless the circuit's chords alternate edge/non-edge in real."""
    vs = circ.vertices
    statuses = [real.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
    for i in range(len(vs)):
        if statuses[i] == statuses[(i + 1) % len(vs)]:
            raise NotAlternating(
                f"chords {i} and {i + 1} of the circuit share edge status {statuses[i]}"
            )


def apply_circuit(real: Realization, circ: ChordCircuit) -> Realization:
    """Exchange edges and non-edges along an alternating circuit (toggle its chords)."""
    check_alternating(real, circ)
    return realization_from_global_edges(real.instance, real.edges ^ set(circ.chords))


# ---------------------------------------------------------------------------
# symmetric differences
# ---------------------------------------------------------------------------


def decompose_symmetric_difference(G: Realization, H: Realization) -> list[ChordCircuit]:
    """Partition E(G) ^ E(H) into alternating elementary chord-circuits, in one walk.

    From each vertex in ascending order, as long as it has a G-edge left, the
    walk leaves along its least G-edge and then always takes the least unused
    chord of the other color.  When the next vertex is already on the path at
    even distance, the circuit from that earlier visit is cut off the path.  A
    visit at odd distance stays on the path: that is how a circuit of a
    general instance passes through a vertex twice.
    """
    if G.instance is not H.instance and G.instance != H.instance:
        raise PreconditionViolated("realizations belong to different instances")
    unused: dict[int, dict[bool, set[int]]] = {}
    for a, b in G.edges ^ H.edges:
        color = (a, b) in G.edges
        for x, y in ((a, b), (b, a)):
            unused.setdefault(x, {True: set(), False: set()})[color].add(y)
    circuits: list[ChordCircuit] = []
    for start in sorted(unused):
        path, cur, color = [start], start, True  # chord k of the path is a G-edge for even k
        while unused[cur][color]:
            nxt = min(unused[cur][color])
            unused[cur][color].discard(nxt)
            unused[nxt][color].discard(cur)
            cur, color = nxt, not color
            if nxt in path:  # the visits at even distance share the parity of len(path)
                cut = next((i for i in range(len(path) % 2, len(path), 2) if path[i] == nxt), None)
                if cut is not None:
                    circuits.append(make_circuit(G.instance, path[cut:]))
                    del path[cut + 1 :]
                    continue
            path.append(nxt)
        assert path == [start], "walk stuck: color counts unbalanced"
    return circuits


def alternating_circuits(real: Realization, chords_of: list[list[int]]) -> list[ChordCircuit]:
    """Every elementary circuit over the chords ``chords_of[v]`` that alternates in ``real``.

    The circuits come canonical and deduplicated, in discovery order.  Each
    is found from its least vertex, in the direction whose second vertex is
    below its last; a vertex may come back once, at odd distance along the
    path, and no chord is used twice.  That rule bounds the length: on
    bipartite kinds a repeat would sit at even distance, so every circuit is
    a simple cycle, and on general kinds no vertex appears more than twice.
    """
    inst = real.instance
    found: dict[tuple[int, ...], ChordCircuit] = {}
    used_chords: set[Pair] = set()

    def dfs(path: list[int], last_status: bool | None) -> None:
        first, cur = path[0], path[-1]
        if (
            len(path) >= 4
            and len(path) % 2 == 0
            and first in chords_of[cur]
            and norm_pair(cur, first) not in used_chords
            and path[1] < cur  # one of the two directions
            and real.has_edge(cur, first) != real.has_edge(first, path[1])
        ):
            circ = ChordCircuit(inst, tuple(path)).canonical()
            found.setdefault(circ.vertices, circ)
        for nxt in chords_of[cur]:
            pair = norm_pair(cur, nxt)
            status = pair in real.edges
            if nxt < first or pair in used_chords or status == last_status:
                continue
            if nxt in path and (path.count(nxt) > 1 or (len(path) - path.index(nxt)) % 2 == 0):
                continue
            used_chords.add(pair)
            path.append(nxt)
            dfs(path, status)
            path.pop()
            used_chords.discard(pair)

    for start in range(len(chords_of)):
        dfs([start], None)  # None lets the first chord be an edge or a non-edge
    return list(found.values())


def max_alternating_circuit_count(
    G: Realization, H: Realization, max_delta: int = 16
) -> int:
    """Maximum number of circuits over all alternating decompositions of the difference.

    Elementary circuits suffice.  A closed alternating trail that visits a
    vertex at positions p < q with q - p even has edges p and q - 1 of
    opposite parity, hence of different colours, so it splits there into two
    closed alternating trails; a vertex seen three times has two visits at
    even distance.  So some maximum decomposition uses only elementary circuits.
    """
    if G.instance is not H.instance and G.instance != H.instance:
        raise PreconditionViolated("realizations belong to different instances")
    delta = G.edges ^ H.edges
    if len(delta) > max_delta:
        raise TooLarge(f"symmetric difference has {len(delta)} chords (guard {max_delta})")
    chords_of: list[list[int]] = [[] for _ in range(G.instance.n_vertices)]
    for a, b in sorted(delta):
        chords_of[a].append(b)
        chords_of[b].append(a)
    circuits = [frozenset(c.chords) for c in alternating_circuits(G, chords_of)]
    memo: dict[frozenset[Pair], int] = {}

    def best(remaining: frozenset[Pair]) -> int:
        if not remaining:
            return 0
        if remaining not in memo:
            e0 = min(remaining)
            memo[remaining] = max(
                1 + best(remaining - c) for c in circuits if e0 in c and c <= remaining
            )
        return memo[remaining]

    return best(frozenset(delta))


def swap_distance(G: Realization, H: Realization, max_delta: int = 16) -> int:
    """Minimum total weight of an F-swap sequence between two realizations."""
    return len(G.edges ^ H.edges) // 2 - max_alternating_circuit_count(G, H, max_delta)
