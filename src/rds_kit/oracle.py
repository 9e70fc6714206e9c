"""Brute-force ground truth: enumeration, realization graphs, uniformity checks.

Everything here is a desk-scale oracle guarded by size limits; the fast paths
elsewhere are validated against it, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations

import numpy as np

from .chain import legal_moves
from .core import Pair, ProblemInstance, Realization, norm_pair, realization_from_global_edges
from .errors import NotGraphical, PreconditionViolated, TooLarge, TooManyStates
from .swaps import ChordCircuit, check_alternating, is_f_compatible

CHAIN_MOVES = "chain_moves"
ALL_FSWAPS = "all_fswaps"


def enumerate_all(
    inst: ProblemInstance, max_chords: int = 40, max_states: int | None = None
) -> list[Realization]:
    """Every realization, duplicate-free, sorted by canonical edge list.

    Raises TooManyStates as soon as more than ``max_states`` are found.  The
    result is recorded in ``inst.known_realizations``, so later builds of the
    same edge sets skip validation.
    """
    if inst.chord_count > max_chords:
        raise TooLarge(f"{inst.chord_count} chords exceed the enumeration guard {max_chords}")
    out: list[Realization] = []

    def collect(edges: list[Pair]) -> None:
        out.append(realization_from_global_edges(inst, edges))
        if max_states is not None and len(out) > max_states:
            raise TooManyStates(f"more than {max_states} states: enumeration stopped at the guard")

    if inst.is_bipartite_like:
        _enumerate_bipartite(inst, collect)
    else:
        _enumerate_general(inst, collect)
    inst.known_realizations.update((r.edges, r) for r in out)
    return sorted(out, key=lambda r: r.key)


def _enumerate_bipartite(inst: ProblemInstance, collect) -> None:
    n_u = inst.n_u
    w_ids = list(range(n_u, inst.n_vertices))
    chords_at = {u: inst.chords_at(u) for u in range(n_u)}
    chords_set = {u: set(chords_at[u]) for u in range(n_u)}
    residual = {w: inst.degree(w) for w in w_ids}
    edges: list[Pair] = []

    def feasible(u_next: int) -> bool:
        remaining_u = sum(inst.degree(u) for u in range(u_next, n_u))
        total_w = sum(residual.values())
        if total_w != remaining_u:
            return False
        # every w must still be reachable often enough
        for w, r in residual.items():
            if r > sum(1 for u in range(u_next, n_u) if w in chords_set[u]):
                return False
        return True

    def rec(u: int) -> None:
        if u == n_u:
            if all(r == 0 for r in residual.values()):
                collect(edges)
            return
        need = inst.degree(u)
        candidates = [w for w in chords_at[u] if residual[w] > 0]
        if len(candidates) < need:
            return
        for subset in combinations(candidates, need):
            for w in subset:
                residual[w] -= 1
            edges.extend((u, w) for w in subset)
            if feasible(u + 1):
                rec(u + 1)
            del edges[len(edges) - need :]
            for w in subset:
                residual[w] += 1

    rec(0)


def _enumerate_general(inst: ProblemInstance, collect) -> None:
    n = inst.n_vertices
    residual = [inst.degree(v) for v in range(n)]
    edges: list[Pair] = []

    def rec(v: int) -> None:
        if v == n:
            if all(r == 0 for r in residual):
                collect(edges)
            return
        need = residual[v]
        candidates = [
            x for x in range(v + 1, n) if residual[x] > 0 and inst.is_chord(v, x)
        ]
        if len(candidates) < need:
            return
        for subset in combinations(candidates, need):
            residual[v] = 0
            for x in subset:
                residual[x] -= 1
            edges.extend(norm_pair(v, x) for x in subset)
            rec(v + 1)
            del edges[len(edges) - need :]
            for x in subset:
                residual[x] += 1
            residual[v] = need

    rec(0)


def enumerate_fswaps(real: Realization) -> list[ChordCircuit]:
    """All F-compatible elementary circular swaps (alternating circuits) at a realization."""
    inst = real.instance
    if inst.is_bipartite_like:
        max_length = 2 * min(inst.n_u, inst.n_w)
    else:
        max_length = 2 * inst.n_vertices
    out = []
    for circ in _alternating_elementary_circuits(real, max_length):
        if is_f_compatible(inst, circ):
            check_alternating(real, circ)
            out.append(circ)
    return out


def _alternating_elementary_circuits(real: Realization, max_length: int) -> list[ChordCircuit]:
    """Enumerate alternating elementary chord-circuits, canonical and deduplicated."""
    inst = real.instance
    n = inst.n_vertices
    chords_of = {v: inst.chords_at(v) for v in range(n)}
    found: dict[tuple[int, ...], ChordCircuit] = {}

    def close_ok(path: list[int], first_status: bool) -> bool:
        a, b = path[-1], path[0]
        if not inst.is_chord(a, b):
            return False
        if norm_pair(a, b) in used_chords:
            return False
        return real.has_edge(a, b) != first_status

    used_chords: set[Pair] = set()

    def dfs(path: list[int], counts: dict[int, int], positions: dict[int, int],
            last_status: bool, first_status: bool) -> None:
        cur = path[-1]
        if len(path) >= 4 and len(path) % 2 == 0 and close_ok(path, first_status):
            circ = ChordCircuit(inst, tuple(path)).canonical()
            found.setdefault(circ.vertices, circ)
        if len(path) >= max_length:
            return
        for nxt in chords_of[cur]:
            if nxt < path[0]:
                continue  # circuits are discovered from their minimum vertex
            pair = norm_pair(cur, nxt)
            if pair in used_chords:
                continue
            if real.has_edge(cur, nxt) == last_status:
                continue
            c = counts.get(nxt, 0)
            if c >= 2:
                continue
            if c == 1 and (len(path) - positions[nxt]) % 2 == 0:
                continue  # repeats must sit at odd circuit distance
            used_chords.add(pair)
            path.append(nxt)
            counts[nxt] = c + 1
            old_pos = positions.get(nxt)
            positions[nxt] = len(path) - 1
            dfs(path, counts, positions, real.has_edge(path[-2], nxt), first_status)
            path.pop()
            if c == 0:
                del counts[nxt]
                del positions[nxt]
            else:
                counts[nxt] = c
                positions[nxt] = old_pos
            used_chords.discard(pair)

    for start in range(n):
        for second in chords_of[start]:
            if second < start:
                continue
            status = real.has_edge(start, second)
            pair = norm_pair(start, second)
            used_chords.add(pair)
            dfs([start, second], {start: 1, second: 1}, {start: 0, second: 1},
                status, status)
            used_chords.discard(pair)
    return list(found.values())


@dataclass
class RealizationGraph:
    """All realizations plus adjacency under a chosen move set."""

    instance: ProblemInstance
    move_set: str
    states: tuple[Realization, ...]
    neighbors: dict[int, dict[int, int]]  # node -> {node: weight}

    @property
    def size(self) -> int:
        return len(self.states)

    def is_connected(self) -> bool:
        if self.size <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for nb in self.neighbors[v]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.size

    def shortest_weights_from(self, source: int) -> list[float]:
        dist = [float("inf")] * self.size
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, v = heappop(heap)
            if d > dist[v]:
                continue
            for nb, w in self.neighbors[v].items():
                nd = d + w
                if nd < dist[nb]:
                    dist[nb] = nd
                    heappush(heap, (nd, nb))
        return dist


def build_realization_graph(
    inst: ProblemInstance,
    move_set: str = CHAIN_MOVES,
    max_chords: int = 40,
    max_states: int | None = None,
) -> RealizationGraph:
    """Graph over all realizations under chain moves or all F-swaps (weighted)."""
    if move_set == CHAIN_MOVES and not inst.is_bipartite_like:
        raise PreconditionViolated("chain moves are defined for bipartite-kind instances")
    states = enumerate_all(inst, max_chords, max_states)
    index = {s.edges: i for i, s in enumerate(states)}
    neighbors: dict[int, dict[int, int]] = {i: {} for i in range(len(states))}
    if move_set == CHAIN_MOVES:
        for i, state in enumerate(states):
            for _, toggle in legal_moves(inst, state.edges):
                neighbors[i][index[state.edges.symmetric_difference(toggle)]] = 1
    elif move_set == ALL_FSWAPS:
        for i, state in enumerate(states):
            for circ in enumerate_fswaps(state):
                j = index[state.edges.symmetric_difference(circ.chords)]
                w = circ.weight
                if j not in neighbors[i] or w < neighbors[i][j]:
                    neighbors[i][j] = w
                    neighbors[j][i] = w
    else:
        raise ValueError(f"unknown move set {move_set!r}")
    return RealizationGraph(inst, move_set, tuple(states), neighbors)


def uniformity_test(
    inst: ProblemInstance,
    steps: int,
    n_samples: int,
    seed: int,
    start: Realization | None = None,
) -> dict:
    """Sample independent chains and compare the end-state histogram to uniform."""
    from scipy import stats  # slow to import, and needed only here

    from .chain import _require_chain_instance, run_chain
    from .construct import greedy_construct

    _require_chain_instance(inst)
    states = enumerate_all(inst)
    index = {s.edges: i for i, s in enumerate(states)}
    if start is None:
        start = greedy_construct(inst)
        if start is None:
            raise NotGraphical("instance is not graphical")
    counts = np.zeros(len(states), dtype=np.int64)
    for end in run_chain(inst, start, steps, seed, chains=n_samples):
        counts[index[end.edges]] += 1
    n_states = len(states)
    freqs = counts / n_samples
    tv = 0.5 * float(np.abs(freqs - 1.0 / n_states).sum())
    if n_states > 1:
        chi2_p = float(stats.chisquare(counts).pvalue)
    else:
        chi2_p = 1.0
    return {
        "tv_distance": tv,
        "chi_square_p": chi2_p,
        "counts": counts.tolist(),
        "n_states": n_states,
        "steps": steps,
        "n_samples": n_samples,
        "seed": seed,
    }
