"""Greedy construction and graphicality decision for star+matching instances.

The greedy processes the star center first, then the remaining vertices in
ascending order.  Each vertex is connected to d(x) chord partners taken in a
degree-sorted order; ties between equal degrees fall to the vertex whose
forbidden partner has the larger residual degree, because that partner's
options shrink fastest.  Deleted partners count as absent, and exact ties are
re-broken away from pairs already spent in the same step (general instances
can hold both endpoints of a forbidden pair in one neighbourhood).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import ProblemInstance, Realization, norm_pair, realization_from_global_edges
from .errors import NotNormal, PreconditionViolated
from .swaps import CircularSwap, make_circuit, swap_from_circuit

ABSENT_PARTNER_DEGREE = -1


@dataclass(frozen=True)
class NeighborEntry:
    vertex: int
    degree: int
    partner: int | None
    partner_degree: int


@dataclass(frozen=True)
class NeighborOrder:
    """Chord neighbourhood of ``anchor`` in processing order."""

    anchor: int
    entries: tuple[NeighborEntry, ...]

    def vertices(self) -> list[int]:
        return [e.vertex for e in self.entries]


def _alive_partner(
    inst: ProblemInstance, y: int, residuals: Mapping[int, int]
) -> int | None:
    """The unique alive forbidden partner of y, or None; NotNormal when several."""
    partners = [p for p in inst.forbidden_partners.get(y, ()) if p in residuals]
    if len(partners) > 1:
        raise NotNormal(f"vertex {y} has forbidden partners {sorted(partners)}")
    return partners[0] if partners else None


def neighbor_order(
    inst: ProblemInstance, x: int, residuals: Mapping[int, int]
) -> NeighborOrder:
    """Order the alive chord partners of x for the greedy step.

    ``residuals`` maps alive vertices to remaining degrees; vertices missing
    from it are deleted.  Raises NotNormal if some neighbour has two alive
    forbidden partners or two neighbours share one.
    """
    entries = []
    seen_partners: dict[int, int] = {}
    for y in inst.chords_at(x):
        if y not in residuals:
            continue
        partner = _alive_partner(inst, y, residuals)
        if partner is not None:
            if partner in seen_partners and seen_partners[partner] != y:
                raise NotNormal(
                    f"vertices {seen_partners[partner]} and {y} share forbidden partner {partner}"
                )
            seen_partners[partner] = y
        pdeg = residuals[partner] if partner is not None else ABSENT_PARTNER_DEGREE
        entries.append(NeighborEntry(y, residuals[y], partner, pdeg))
    entries.sort(key=lambda e: (-e.degree, -e.partner_degree, e.vertex))
    return NeighborOrder(x, tuple(entries))


def _select_neighbors(order: NeighborOrder, need: int) -> list[NeighborEntry] | None:
    """The first `need` entries, re-breaking exact ties away from spent pairs.

    On general instances both endpoints of a forbidden pair can sit in one
    neighbourhood; taking both wastes the exclusion and can strand the other
    pairs, so within a (degree, partner-degree) tie a candidate whose partner
    was already selected goes last.  Bipartite neighbourhoods never contain a
    partner, so there the result is exactly the order prefix.
    """
    pool = list(order.entries)
    chosen: list[NeighborEntry] = []
    chosen_vertices: set[int] = set()
    while len(chosen) < need:
        if not pool:
            return None
        # the pool stays in order, so its head wins unless its partner is spent
        best = 0
        if pool[0].partner in chosen_vertices:
            best = min(
                range(len(pool)),
                key=lambda i: (
                    -pool[i].degree,
                    -pool[i].partner_degree,
                    pool[i].partner in chosen_vertices,
                    pool[i].vertex,
                ),
            )
        entry = pool.pop(best)
        if entry.degree <= 0:
            return None
        chosen.append(entry)
        chosen_vertices.add(entry.vertex)
    return chosen


def greedy_construct(inst: ProblemInstance) -> Realization | None:
    """A realization if the instance is graphical, else None.

    Deterministic: the star center (U-index 0 when unset) goes first, then the
    remaining vertices ascending; bipartite kinds only process the U class.
    """
    if inst.is_bipartite_like:
        process = [inst.effective_star_center] + [
            u for u in range(inst.n_u) if u != inst.effective_star_center
        ]
    else:
        process = [inst.effective_star_center] + [
            v for v in range(inst.n_vertices) if v != inst.effective_star_center
        ]
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    edges: set[tuple[int, int]] = set()
    for x in process:
        need = residuals[x]
        order = neighbor_order(inst, x, residuals)
        chosen = _select_neighbors(order, need)
        if chosen is None:
            return None
        for e in chosen:
            edges.add(norm_pair(x, e.vertex))
            residuals[e.vertex] -= 1
        del residuals[x]
    if any(residuals.values()):
        return None
    return realization_from_global_edges(inst, edges)


def is_graphical(inst: ProblemInstance) -> bool:
    return greedy_construct(inst) is not None


def repair_swap(real: Realization, x: int, y: int, z: int) -> CircularSwap:
    """An alternating circuit of length 4 or 6 replacing z by y in the neighbourhood of x.

    Preconditions: xz is an edge, xy a non-edge chord, the chord neighbourhood
    of x is normal and y precedes z in its order.  The 4-cycle goes through
    any vertex u with uy an edge and uz a non-edge chord; the 6-cycle through
    the forbidden partners of y and z handles the degenerate tie.
    """
    inst = real.instance
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    order = neighbor_order(inst, x, residuals)  # raises NotNormal if not normal
    keys = {e.vertex: (e.degree, e.partner_degree) for e in order.entries}
    if y not in keys or z not in keys:
        raise PreconditionViolated("y and z must be chord partners of x")
    # some valid order must put y first: its degree pair may not lose to z's
    if keys[y] < keys[z]:
        raise PreconditionViolated("z strictly precedes y in every neighbour order of x")
    if not real.has_edge(x, z) or real.has_edge(x, y) or not inst.is_chord(x, y):
        raise PreconditionViolated("need xz an edge and xy a non-edge chord")

    for u in range(inst.n_vertices):
        if u in (x, y, z):
            continue
        if real.has_edge(u, y) and inst.is_chord(u, z) and not real.has_edge(u, z):
            return swap_from_circuit(real, make_circuit(inst, (x, z, u, y)))

    y_f = _alive_partner(inst, y, residuals)
    z_f = _alive_partner(inst, z, residuals)
    if y_f is None or z_f is None:
        raise PreconditionViolated("no 4-cycle and a forbidden partner is missing")
    if not (
        real.has_edge(y, z_f)
        and inst.is_chord(z, y_f)
        and not real.has_edge(z, y_f)
    ):
        raise PreconditionViolated("degenerate configuration for the 6-cycle not present")
    for u in range(inst.n_vertices):
        if u in (x, y, z, y_f, z_f):
            continue
        if (
            real.has_edge(y_f, u)
            and inst.is_chord(z_f, u)
            and not real.has_edge(z_f, u)
        ):
            return swap_from_circuit(real, make_circuit(inst, (y, x, z, y_f, u, z_f)))
    raise PreconditionViolated("no repair circuit exists for (x, y, z)")
