"""Brute-force ground truth: enumeration, realization graphs, uniformity checks.

One enumerator serves bipartite, directed and general instances alike, and
the F-swaps are the F-compatible circuits of
:func:`rds_kit.swaps.alternating_circuits` over every chord.  Everything
here is a desk-scale oracle guarded by size limits; the fast paths elsewhere
are validated against it, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations

import numpy as np

from .chain import _require_chain_instance, legal_moves, run_chain
from .construct import greedy_construct
from .core import Pair, ProblemInstance, Realization, realization_from_global_edges
from .errors import NotGraphical, PreconditionViolated, TooLarge, TooManyStates
from .swaps import ChordCircuit, alternating_circuits, check_alternating, is_f_compatible

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

    _enumerate(inst, collect)
    inst.known_realizations.update((r.edges, r) for r in out)
    return sorted(out, key=lambda r: r.key)


def _enumerate(inst: ProblemInstance, collect) -> None:
    """Pass the edge list of every realization to ``collect``, each once.

    Vertices are taken in id order; vertex v takes all its remaining degree
    from later chord partners with degree left, as ascending combinations.
    A branch goes on only if every later vertex x with residual r > 0 still
    has r later chord partners with residual left.  That one cut serves every
    kind.  On bipartite kinds the U-vertices come first and a W-vertex has no
    later partner, so degree left on W is cut at the last U-vertex; the sums
    of the two classes need no test, since a U-vertex lowers both by its
    degree.  On general instances the same cut drops branches that cannot
    close.
    """
    n = inst.n_vertices
    partners = [inst.chords_at(v) for v in range(n)]
    residual = [inst.degree(v) for v in range(n)]
    edges: list[Pair] = []

    def can_close(v: int) -> bool:
        return all(
            r <= sum(1 for y in partners[x] if y > v and residual[y] > 0)
            for x, r in enumerate(residual[v + 1 :], v + 1)
            if r > 0
        )

    def rec(v: int) -> None:
        if v == n:
            collect(edges)
            return
        need = residual[v]
        residual[v] = 0
        for subset in combinations([x for x in partners[v] if x > v and residual[x] > 0], need):
            for x in subset:
                residual[x] -= 1
            edges.extend((v, x) for x in subset)
            if can_close(v):
                rec(v + 1)
            del edges[len(edges) - need :]
            for x in subset:
                residual[x] += 1
        residual[v] = need

    rec(0)


def enumerate_fswaps(real: Realization) -> list[ChordCircuit]:
    """All F-compatible elementary circular swaps (alternating circuits) at a realization."""
    inst = real.instance
    out = []
    for circ in alternating_circuits(real, [inst.chords_at(v) for v in range(inst.n_vertices)]):
        if is_f_compatible(inst, circ):
            check_alternating(real, circ)
            out.append(circ)
    return out


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
