"""Circular swaps along alternating chord-circuits and the swap distance.

A chord-circuit is a cyclic vertex sequence whose consecutive pairs are
distinct chords.  It is elementary when no vertex occurs more than twice and
repeated occurrences sit at odd circuit distance (for bipartite instances this
forces a simple cycle).  Applying an alternating circuit exchanges its edges
and non-edges; the swap is F-compatible when every potential vertex pair of
the circuit is forbidden, and carries weight i-1 for length 2i.

The two chain moves are such swaps, but they are defined, built and applied
as chord toggles in :mod:`rds_kit.chain`.  The circuits here serve the
general F-swaps: symmetric-difference decompositions, the greedy's repair
circuits, the F-swap enumeration of :mod:`rds_kit.oracle` and the swap
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Pair, ProblemInstance, Realization, norm_pair, realization_from_global_edges
from .errors import (
    InvalidCircuit,
    NotAChord,
    NotAlternating,
    NotElementary,
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


@dataclass(frozen=True)
class CircularSwap:
    """An alternating circuit with its current edge/non-edge phase.

    ``removes`` are the chords that are edges before application, ``adds`` the
    complementary ones; weight is i-1 for a circuit of length 2i.
    """

    circuit: ChordCircuit
    removes: frozenset[Pair]
    adds: frozenset[Pair]

    @property
    def weight(self) -> int:
        return self.circuit.length // 2 - 1

    @property
    def f_compatible(self) -> bool:
        return is_f_compatible(self.circuit.instance, self.circuit)

    def inverse(self) -> "CircularSwap":
        return CircularSwap(self.circuit, self.adds, self.removes)


def swap_from_circuit(real: Realization, circ: ChordCircuit) -> CircularSwap:
    """Read the alternation phase of a circuit off a realization."""
    vs = circ.vertices
    statuses = [real.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
    for i in range(len(vs)):
        if statuses[i] == statuses[(i + 1) % len(vs)]:
            raise NotAlternating(
                f"chords {i} and {i + 1} of the circuit share edge status {statuses[i]}"
            )
    removes = frozenset(c for c, s in zip(circ.chords, statuses) if s)
    adds = frozenset(c for c, s in zip(circ.chords, statuses) if not s)
    return CircularSwap(circ, removes, adds)


def apply_swap(real: Realization, sw: CircularSwap) -> Realization:
    """Exchange edges and non-edges along the swap's circuit."""
    if not sw.removes <= real.edges or real.edges & sw.adds:
        raise NotAlternating("swap phase does not match the realization")
    return realization_from_global_edges(
        real.instance, (real.edges - sw.removes) | sw.adds
    )


def elementary_circuit_to_fswaps(
    real: Realization, circ: ChordCircuit
) -> list[CircularSwap]:
    """Decompose an alternating elementary circuit into F-compatible swaps.

    Splits recursively at the lexicographically least potential vertex pair
    that is a chord; the total weight of the emitted swaps is i-1.
    """
    if not circ.is_elementary:
        raise NotElementary("circuit repeats a vertex badly")
    inst = real.instance
    swap_from_circuit(real, circ)  # raises NotAlternating if the phase is off
    out: list[CircularSwap] = []

    def process(current: Realization, vs: tuple[int, ...]) -> Realization:
        sub = ChordCircuit(inst, vs)
        chord_pvs = [p for p in pv_pairs(sub) if inst.is_chord(*p)]
        if not chord_pvs:
            sw = swap_from_circuit(current, sub)
            out.append(sw)
            return apply_swap(current, sw)
        target = chord_pvs[0]
        n = len(vs)
        split = None
        for p in range(n):
            for q in range(p + 1, n):
                if norm_pair(vs[p], vs[q]) != target:
                    continue
                d = q - p
                if d % 2 == 1 and 1 < d < n - 1:
                    split = (p, q)
                    break
            if split:
                break
        assert split is not None
        p, q = split
        arc1 = vs[p : q + 1]
        arc2 = vs[q:] + vs[: p + 1]

        def alternates(r: Realization, arc: tuple[int, ...]) -> bool:
            try:
                swap_from_circuit(r, ChordCircuit(inst, arc))
                return True
            except NotAlternating:
                return False

        first, second = (arc1, arc2) if alternates(current, arc1) else (arc2, arc1)
        current = process(current, first)
        return process(current, second)

    final = process(real, circ.vertices)
    expected = real.edges.symmetric_difference(set(circ.chords))
    assert final.edges == expected, "swap sequence drifted from the circuit"
    return out


# ---------------------------------------------------------------------------
# symmetric differences
# ---------------------------------------------------------------------------


def _alternating_circuit_walks(G: Realization, H: Realization) -> list[list[int]]:
    """Deterministic Euler split of E(G) ^ E(H) into alternating closed walks."""
    delta = G.edges ^ H.edges
    adj: dict[int, dict[bool, set[int]]] = {}
    for a, b in delta:
        color = (a, b) in G.edges
        for x, y in ((a, b), (b, a)):
            adj.setdefault(x, {True: set(), False: set()})[color].add(y)

    def take(x: int, color: bool) -> int | None:
        nbrs = adj[x][color]
        if not nbrs:
            return None
        y = min(nbrs)
        adj[x][color].discard(y)
        adj[y][color].discard(x)
        return y

    walks: list[list[int]] = []
    active = sorted(adj)
    while True:
        start = next(
            (v for v in active if adj[v][True] or adj[v][False]), None
        )
        if start is None:
            break
        walk = [start]
        color = True  # leave along a G-edge, close along an H-edge
        cur = start
        while True:
            nxt = take(cur, color)
            assert nxt is not None, "walk stuck: color counts unbalanced"
            walk.append(nxt)
            cur = nxt
            color = not color
            if cur == start and color:  # arrived along an H-edge
                break
        walks.append(walk[:-1])
    return walks


def _split_even_repeats(walk: list[int]) -> list[list[int]]:
    """Split closed walks until no vertex repeats at even circuit distance."""
    n = len(walk)
    for p in range(n):
        for q in range(p + 1, n):
            if walk[p] == walk[q] and (q - p) % 2 == 0:
                inner = walk[p:q]
                outer = walk[:p] + walk[q:]
                return _split_even_repeats(inner) + _split_even_repeats(outer)
    return [walk]


def decompose_symmetric_difference(G: Realization, H: Realization) -> list[ChordCircuit]:
    """Partition E(G) ^ E(H) into alternating elementary chord-circuits."""
    if G.instance is not H.instance and G.instance != H.instance:
        raise PreconditionViolated("realizations belong to different instances")
    circuits: list[ChordCircuit] = []
    for walk in _alternating_circuit_walks(G, H):
        for piece in _split_even_repeats(walk):
            circuits.append(make_circuit(G.instance, piece))
    return circuits


def _circuits_through(
    e0: Pair, remaining: frozenset[Pair], colors: dict[Pair, bool]
) -> set[frozenset[Pair]]:
    """All alternating circuit edge sets within `remaining` that contain e0."""
    found: set[frozenset[Pair]] = set()
    a, b = e0
    c0 = colors[e0]

    def dfs(cur: int, used: set[Pair], last_color: bool) -> None:
        for other in remaining:
            if other in used:
                continue
            if cur not in other:
                continue
            if colors[other] == last_color:
                continue
            nxt = other[0] if other[1] == cur else other[1]
            used.add(other)
            if nxt == a and colors[other] != c0:
                found.add(frozenset(used))
            dfs(nxt, used, colors[other])
            used.discard(other)

    dfs(b, {e0}, c0)
    return found


def max_alternating_circuit_count(
    G: Realization, H: Realization, max_delta: int = 16
) -> int:
    """Maximum number of circuits over all alternating decompositions of the difference."""
    delta = G.edges ^ H.edges
    if not delta:
        return 0
    if len(delta) > max_delta:
        raise TooLarge(f"symmetric difference has {len(delta)} chords (guard {max_delta})")
    colors = {e: e in G.edges for e in delta}
    memo: dict[frozenset[Pair], int] = {}

    def best(remaining: frozenset[Pair]) -> int:
        if not remaining:
            return 0
        if remaining in memo:
            return memo[remaining]
        e0 = min(remaining)
        score = max(
            1 + best(remaining - circuit)
            for circuit in _circuits_through(e0, remaining, colors)
        )
        memo[remaining] = score
        return score

    return best(frozenset(delta))


def swap_distance(G: Realization, H: Realization, max_delta: int = 16) -> int:
    """Minimum total weight of an F-swap sequence between two realizations."""
    delta = G.edges ^ H.edges
    if not delta:
        return 0
    return len(delta) // 2 - max_alternating_circuit_count(G, H, max_delta)
