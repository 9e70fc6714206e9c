"""Greedy construction and graphicality decision for star+matching instances.

The greedy processes the star center first, then the remaining vertices in
ascending order.  Each vertex is connected to d(x) chord partners taken in a
degree-sorted order; ties between equal degrees fall to the vertex whose
forbidden partner has the larger residual degree, because that partner's
options shrink fastest.  Deleted partners count as absent, and exact ties are
re-broken away from pairs already spent in the same step (general instances
can hold both endpoints of a forbidden pair in one neighbourhood).

:func:`neighbor_order` is the written definition of that order: the alive
chord partners of x as sort keys ``(-degree, -partner_degree, vertex,
partner)``.  :func:`greedy_construct` takes the same ranks from one lazy heap
of ``(-degree, -partner_degree, vertex)`` over the candidates (the W class of
bipartite kinds, every vertex of general ones) instead of sorting an order
for every x.  Invariant: at the start of a step every alive candidate v has
one fresh entry, the object ``current[v]``, holding its key now.  A key
changes only when v is chosen, when its forbidden partner is chosen or when
that partner is processed, so after each step exactly those vertices get a
new entry; x's own partners are retired for its step.  Stale entries are
harmless: a pop drops any entry that is not ``current[v]``, so a superseded
key is never taken, and each entry is popped once, so the greedy costs
O(n·d log n) for degrees at most d.  Normality needs no scan: a step can only
break it through an alive vertex with two alive forbidden partners, and on
valid input none is left once the star center is gone.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Mapping

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


def _take(
    heap: list[tuple[int, int, int]],
    current: list[tuple[int, int, int] | None],
    partners: tuple[frozenset[int], ...],
    need: int,
) -> list[int] | None:
    """Pop the first `need` candidates of the order, re-breaking exact ties away from spent pairs.

    Pops stale entries (not ``current[v]``) as it meets them.  On general
    instances both endpoints of a forbidden pair can sit in one
    neighbourhood; taking both wastes the exclusion and can strand the other
    pairs, so within a (degree, partner-degree) tie the first candidate whose
    partner is not yet chosen goes first, and the held-back ones, which keep
    their place at the head of the order, are taken only when the tie runs
    out.  Bipartite neighbourhoods never contain a partner, so there the
    result is exactly the order prefix.  A held-back entry needs no push
    back: its partner was chosen, so the caller gives it a new entry.
    """
    chosen: list[int] = []
    spent: set[int] = set()
    held: list[tuple[int, int, int]] = []  # head of the tie, partner already chosen
    while len(chosen) < need:
        while heap and current[heap[0][2]] is not heap[0]:
            heappop(heap)
        if held and not (heap and heap[0][:2] == held[0][:2]):
            entry = held.pop(0)
        elif not heap:
            return None
        else:
            entry = heappop(heap)
            if not partners[entry[2]].isdisjoint(spent):
                held.append(entry)
                continue
        if entry[0] >= 0:
            return None
        chosen.append(entry[2])
        spent.add(entry[2])
    return chosen


def greedy_construct(inst: ProblemInstance) -> Realization | None:
    """A realization if the instance is graphical, else None.

    Deterministic: the star center (U-index 0 when unset) goes first, then the
    remaining vertices ascending; bipartite kinds only process the U class,
    which holds the star center.
    """
    center = inst.effective_star_center
    last = inst.n_u if inst.is_bipartite_like else inst.n_vertices
    first = inst.n_u if inst.is_bipartite_like else 0  # candidates: first .. n - 1
    n = inst.n_vertices
    residuals = dict(enumerate(inst.u_degrees + inst.w_degrees))
    partners = inst.forbidden_partners
    # the vertices that can hold two alive forbidden partners; on valid input
    # none keeps two once the center is gone
    hubs = [v for v in range(n) if len(partners[v]) > 1]
    current: list[tuple[int, int, int] | None] = [None] * n
    heap: list[tuple[int, int, int]] = []
    edges: set[tuple[int, int]] = set()
    changed: Iterable[int] = range(first, n)  # every candidate needs a first entry
    for x in ([center] if last else []) + [v for v in range(last) if v != center]:
        for y in changed:
            if y >= first and y in residuals:
                pdeg = ABSENT_PARTNER_DEGREE
                for p in partners[y]:
                    if p in residuals:
                        pdeg = residuals[p]
                        break
                current[y] = entry = (-residuals[y], -pdeg, y)
                heappush(heap, entry)
        if hubs:
            hubs = [h for h in hubs if h in residuals and sum(p in residuals for p in partners[h]) > 1]
            if any(
                inst.is_chord(x, h)
                or sum(inst.is_chord(x, p) for p in partners[h] if p in residuals) > 1
                for h in hubs
            ):
                neighbor_order(inst, x, residuals)  # raises the NotNormal of the full scan
        current[x] = None
        for v in partners[x]:  # not candidates of x, and x's death changes their keys
            current[v] = None
        chosen = _take(heap, current, partners, residuals[x])
        if chosen is None:
            return None
        del residuals[x]
        changed = set(partners[x])
        for y in chosen:
            edges.add(norm_pair(x, y))
            residuals[y] -= 1
            changed.add(y)
            changed.update(partners[y])
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
