"""Greedy construction and graphicality decision for star+matching instances.

The greedy processes the star center first, then the remaining vertices in
ascending order.  Each vertex is connected to d(x) chord partners taken in a
degree-sorted order; ties between equal degrees fall to the vertex whose
forbidden partner has the larger residual degree, because that partner's
options shrink fastest.  Deleted partners count as absent, and exact ties are
re-broken away from pairs already spent in the same step (general instances
can hold both endpoints of a forbidden pair in one neighbourhood).

:func:`neighbor_order` ranks the partners as plain sort keys
``(-degree, -partner_degree, vertex, partner)``, so one ``list.sort()`` puts
them in processing order.
"""

from __future__ import annotations

from typing import Mapping

from .core import ProblemInstance, Realization, norm_pair, realization_from_global_edges
from .errors import NotNormal, PreconditionViolated
from .swaps import ChordCircuit, check_alternating, make_circuit

ABSENT_PARTNER_DEGREE = -1


def _alive_partner(
    inst: ProblemInstance, y: int, residuals: Mapping[int, int]
) -> int | None:
    """The unique alive forbidden partner of y, or None; NotNormal when several."""
    partners = [p for p in inst.forbidden_partners[y] if p in residuals]
    if len(partners) > 1:
        raise NotNormal(f"vertex {y} has forbidden partners {sorted(partners)}")
    return partners[0] if partners else None


def neighbor_order(
    inst: ProblemInstance, x: int, residuals: Mapping[int, int]
) -> list[tuple[int, int, int, int | None]]:
    """The alive chord partners of x as (-degree, -partner degree, vertex, partner), sorted.

    ``residuals`` maps alive vertices to remaining degrees; vertices missing
    from it are deleted.  Raises NotNormal if some neighbour has two alive
    forbidden partners or two neighbours share one.
    """
    order = []
    seen_partners: dict[int, int] = {}
    for y in inst.chords_at(x):
        if y not in residuals:
            continue
        partner = _alive_partner(inst, y, residuals)
        if partner is None:
            pdeg = ABSENT_PARTNER_DEGREE
        else:
            if seen_partners.setdefault(partner, y) != y:
                raise NotNormal(
                    f"vertices {seen_partners[partner]} and {y} share forbidden partner {partner}"
                )
            pdeg = residuals[partner]
        order.append((-residuals[y], -pdeg, y, partner))
    order.sort()  # vertices are distinct, so partners are never compared
    return order


def _select_neighbors(
    order: list[tuple[int, int, int, int | None]], need: int
) -> list[int] | None:
    """The first `need` vertices of the order, re-breaking exact ties away from spent pairs.

    On general instances both endpoints of a forbidden pair can sit in one
    neighbourhood; taking both wastes the exclusion and can strand the other
    pairs, so within a (degree, partner-degree) tie the first candidate whose
    partner is not yet chosen goes first.  Bipartite neighbourhoods never
    contain a partner, so there the result is exactly the order prefix.
    """
    pool = list(order)
    chosen: list[int] = []
    while len(chosen) < need:
        if not pool:
            return None
        best = 0
        for i, (neg_deg, neg_pdeg, _, partner) in enumerate(pool):
            if (neg_deg, neg_pdeg) != pool[0][:2]:
                break
            if partner not in chosen:
                best = i
                break
        neg_deg, _, y, _ = pool.pop(best)
        if neg_deg >= 0:
            return None
        chosen.append(y)
    return chosen


def greedy_construct(inst: ProblemInstance) -> Realization | None:
    """A realization if the instance is graphical, else None.

    Deterministic: the star center (U-index 0 when unset) goes first, then the
    remaining vertices ascending; bipartite kinds only process the U class.
    """
    center = inst.effective_star_center
    last = inst.n_u if inst.is_bipartite_like else inst.n_vertices
    process = [center] + [v for v in range(last) if v != center]
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    edges: set[tuple[int, int]] = set()
    for x in process:
        chosen = _select_neighbors(neighbor_order(inst, x, residuals), residuals[x])
        if chosen is None:
            return None
        for y in chosen:
            edges.add(norm_pair(x, y))
            residuals[y] -= 1
        del residuals[x]
    if any(residuals.values()):
        return None
    return realization_from_global_edges(inst, edges)


def repair_swap(real: Realization, x: int, y: int, z: int) -> ChordCircuit:
    """An alternating circuit of length 4 or 6 replacing z by y in the neighbourhood of x.

    Preconditions: xz is an edge, xy a non-edge chord, the chord neighbourhood
    of x is normal and y precedes z in its order.  The 4-cycle goes through
    any vertex u with uy an edge and uz a non-edge chord; the 6-cycle through
    the forbidden partners of y and z handles the degenerate tie.
    """
    inst = real.instance
    residuals = {v: inst.degree(v) for v in range(inst.n_vertices)}
    order = neighbor_order(inst, x, residuals)  # raises NotNormal if not normal
    keys = {v: (neg_deg, neg_pdeg) for neg_deg, neg_pdeg, v, _ in order}
    if y not in keys or z not in keys:
        raise PreconditionViolated("y and z must be chord partners of x")
    # some valid order must put y first: its sort key may not exceed z's
    if keys[y] > keys[z]:
        raise PreconditionViolated("z strictly precedes y in every neighbour order of x")
    if not real.has_edge(x, z) or real.has_edge(x, y) or not inst.is_chord(x, y):
        raise PreconditionViolated("need xz an edge and xy a non-edge chord")

    for u in range(inst.n_vertices):
        if u in (x, y, z):
            continue
        if real.has_edge(u, y) and inst.is_chord(u, z) and not real.has_edge(u, z):
            circ = make_circuit(inst, (x, z, u, y))
            check_alternating(real, circ)
            return circ

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
            circ = make_circuit(inst, (y, x, z, y_f, u, z_f))
            check_alternating(real, circ)
            return circ
    raise PreconditionViolated("no repair circuit exists for (x, y, z)")
