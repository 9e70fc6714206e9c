"""The chain's two moves, the lazy Markov chain, its exact kernel, sampling.

This module is the one definition of a legal move.  :func:`try_c4` and
:func:`try_c6` decide the 4-cycle swap on a U-pair and a W-pair and the
forbidden-matching 6-cycle swap on two triples; :func:`legal_moves` lists
every legal move at a state.  The canonical-path sweep and the audit's
neighbour search in :mod:`rds_kit.paths` and the chain-move graph of
:mod:`rds_kit.oracle` are all built on them.

Each step of the paper's chain is lazy with probability 1/2, with
probability 1/4 draws an unordered U-pair and W-pair and applies the 4-cycle
swap if legal, and with probability 1/4 draws unordered triples and applies
the forbidden-matching 6-cycle swap if legal.  Failed proposals are
self-loops, so the kernel is symmetric with diagonal at least 1/2 and the
uniform distribution is stationary.  Every legal move of one kind has the
same probability per step, :func:`_move_probability`.

:func:`run_chain` simulates this chain on edges, exactly in law, and skips
the steps that cannot move: edge-based switch proposals (Cooper, Dyer and
Greenhill 2007) and rejection-free kinetic Monte Carlo (Bortz, Kalos and
Lebowitz 1975).  A chain tries a move at a step with probability
theta = theta4 + theta6 and stays otherwise, so the steps of its tries are
drawn as geometric gaps and the lazy steps cost nothing (:func:`try_rates`):

* a 4-cycle try, at rate theta4 = C(E,2) / (4 C(n_u,2) C(n_w,2)) for E
  edges, takes two uniform distinct edges (u1, j1) and (u2, j2) and swaps
  them for (u2, j1) and (u1, j2) when both are free chords, which also
  rejects a shared endpoint.  A legal 4-cycle move is tried by one of the
  C(E,2) edge pairs;
* a 6-cycle try, at rate theta6 = kappa / (4 C(n_w,3)), takes a uniform
  U-triple and a uniform index below kappa, the most W-triples one U-triple
  has whose forbidden 3x3 block is a permutation.  The index picks one of
  this U-triple's such W-triples, or is a lazy step past their number, and
  the hexagon rule decides the move.  With a star plus a matching these
  blocks have a closed form, so kappa and every hexagon come from one rule
  on a table of forbidden partners (:func:`_partner_table`).

So each legal move keeps its probability :func:`_move_probability` per
step, and ``steps`` always counts steps of the paper's chain.

theta4 + theta6 <= 1 whenever some state has a legal move.  With two
vertices in one class there is no 6-cycle, and a legal 4-cycle needs two
vertices of degree 1 among the m of the other class, so E <= 2m - 2 and
theta4 <= (2m - 3) / (2m).  With a, b >= 3 vertices per class,
theta4 <= C(ab,2) / (a(a-1)b(b-1)) <= 1 as (a-2)(b-2) >= 1.  kappa >= 1
needs three forbidden pairs, and then E <= ab - 3 gives theta4 <= 3/4, since
3a(a-1)b(b-1) - 2(ab-3)(ab-4) = ab((a-3)(b-3) + 8) - 24 > 0, while
kappa <= C(n_w,3) gives theta6 <= 1/4.  Where theta exceeds 1 no state has a
legal move, and the chain stays.

The walker keeps one int per cell of each chain, (u, j) at ``j * n_u + u``:
the slot of its edge, -1 for a free chord, -2 for a forbidden pair.  Slot s
holds the cell of the chain's s-th edge, the start's edges in ascending cell
order.  The chains lie back to back in both, so slots and cells carry their
chain's offset.  numpy draws the tries of all chains in blocks, step t of
chain k at flat position t * K + k, and one Python loop applies them in that
order.  A trajectory depends only on the seed, the step count and the chain
count.  States come in and go out as edge sets; no dense matrix is built.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .core import Pair, ProblemInstance, Realization
from .errors import (
    InstanceTooSmall, NotAChord, NotAdjacent, NotGraphical, PreconditionViolated, ValidationError,
)

_BLOCK = 4096  # the most tries drawn per numpy block


def default_burn_in(inst: ProblemInstance) -> int:
    """Heuristic step count: 20 (|U|+|W|)^2; mixing is proven polynomial
    for half-regular instances but without a usable exponent."""
    return 20 * (inst.n_u + inst.n_w) ** 2


def _require_chain_instance(inst: ProblemInstance) -> None:
    if not inst.is_bipartite_like:
        raise PreconditionViolated("the chain is defined for bipartite-kind instances")
    if inst.n_u < 2 or inst.n_w < 2:
        raise InstanceTooSmall("chain proposals need at least 2 vertices per class")


def _distinct_draws(rng: np.random.Generator, n: int, size: int, r: int) -> np.ndarray:
    """`size` uniform ordered r-tuples (r = 2 or 3) of distinct ints in [0, n), as rows.

    Each later index is drawn from the values left and shifted past the ones
    already taken, so no draw is rejected.  Every unordered set is equally
    likely, which is all the kernel depends on.
    """
    a = rng.integers(0, n, size)
    b = rng.integers(0, n - 1, size)
    b += b >= a
    cols = [a, b]
    if r == 3:
        c = rng.integers(0, n - 2, size)
        c += c >= np.minimum(a, b)
        c += c >= np.maximum(a, b)
        cols.append(c)
    return np.array(cols).T


def try_c4(partners, edges, upair, wpair) -> tuple[Pair, ...] | None:
    """Chords to toggle for a legal 4-cycle move, else None.

    ``partners`` is the instance's :attr:`~rds_kit.core.ProblemInstance.forbidden_partners`.
    """
    a, b = upair
    c, d = wpair
    if c in partners[a] or d in partners[a] or c in partners[b] or d in partners[b]:
        return None
    p1, p2, p3, p4 = (a, c), (a, d), (b, c), (b, d)
    e1, e2, e3, e4 = p1 in edges, p2 in edges, p3 in edges, p4 in edges
    if (e1 and e4 and not e2 and not e3) or (e2 and e3 and not e1 and not e4):
        return (p1, p2, p3, p4)
    return None


def try_c6(partners, edges, utriple, wtriple) -> tuple[Pair, ...] | None:
    """Chords to toggle for a legal F-compatible 6-cycle move, else None.

    ``partners`` is the instance's :attr:`~rds_kit.core.ProblemInstance.forbidden_partners`.
    """
    partner = {}
    for u in utriple:
        hit = [w for w in wtriple if w in partners[u]]
        if len(hit) != 1:
            return None
        partner[u] = hit[0]
    if len(set(partner.values())) != 3:
        return None
    hexagon = [(u, w) for u in utriple for w in wtriple if partner[u] != w]
    on = sum(1 for p in hexagon if p in edges)
    if on != 3:
        return None
    # three edges among six hexagon chords alternate iff they form a matching
    matched = set()
    for u, w in hexagon:
        if (u, w) in edges:
            if u in matched or w in matched:
                return None
            matched.add(u)
            matched.add(w)
    return tuple(hexagon)


def legal_moves(inst: ProblemInstance, edges) -> Iterator[tuple[str, tuple[Pair, ...]]]:
    """Every legal move at an edge set as (kind, chords to toggle).

    4-cycle moves come first, then 6-cycle moves, each in the
    lexicographic order of their U- and W-vertex tuples.
    """
    partners = inst.forbidden_partners
    us = range(inst.n_u)
    ws = range(inst.n_u, inst.n_vertices)
    for kind, r, try_move in (("c4", 2, try_c4), ("c6", 3, try_c6)):
        for utuple in combinations(us, r):
            for wtuple in combinations(ws, r):
                toggle = try_move(partners, edges, utuple, wtuple)
                if toggle is not None:
                    yield kind, toggle


def _partner_table(inst: ProblemInstance) -> tuple[np.ndarray, int, np.ndarray, int]:
    """The 6-cycle rule: each U-vertex's one forbidden partner, the star center,
    its partners, and kappa, the most W-triples one U-triple has whose
    forbidden 3x3 block is a permutation.

    Off the star center a U-vertex's one forbidden partner is its matching
    partner, held as a W-index, -1 if it has none and at the center; the
    center is -1 if there is none, and its partners are W-indices, ascending.
    A U-triple without the center has one such W-triple, the partners of its
    three vertices, when all three are matched, and none otherwise.  A
    U-triple (s, y, z) with the center s has one for each partner of s, in
    ascending order, when y and z are matched to W-vertices that are not
    partners of s, and none otherwise.
    """
    partners, n_u = inst.forbidden_partners, inst.n_u
    center = -1 if inst.star_center is None else inst.star_center
    partner = np.array(
        [min(partners[u]) - n_u if partners[u] and u != center else -1 for u in range(n_u)],
        dtype=np.int64,
    )
    ring = np.array(sorted(partners[center]) if center >= 0 else [], dtype=np.int64) - n_u
    apart = (partner >= 0) & ~np.isin(partner, ring)
    kappa = max(int((partner >= 0).sum() >= 3), len(ring) * int(apart.sum() >= 2))
    return partner, center, ring, kappa


def _rates(inst: ProblemInstance, kappa: int) -> tuple[Fraction, Fraction, int]:
    """:func:`try_rates` for a known kappa."""
    n_u, n_w = inst.n_u, inst.n_w
    theta4 = Fraction(comb(sum(inst.u_degrees), 2), 4 * comb(n_u, 2) * comb(n_w, 2))
    theta6 = Fraction(kappa, 4 * comb(n_w, 3)) if kappa else Fraction(0)
    return theta4, theta6, kappa


def try_rates(inst: ProblemInstance) -> tuple[Fraction, Fraction, int]:
    """theta4 and theta6, the chances that a step tries a 4-cycle and a 6-cycle, and kappa."""
    _require_chain_instance(inst)
    return _rates(inst, _partner_table(inst)[3])


def _c6_cells(table, utriples: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which 6-cycle tries, on sorted U-triples with an index each, pick a
    hexagon by the rule of :func:`_partner_table`, and the cells of each
    picked one in chain 0: x - s(y) - z - s(x) - y - s(z), three even cells
    then three odd ones.  The others are lazy steps.
    """
    partner, center, ring, _ = table
    spokes = partner[utriples]  # each vertex's partner, -1 at the center
    at_center = utriples == center
    with_center = at_center.any(axis=1)
    clash = np.isin(spokes, ring).any(axis=1)  # a vertex matched to a partner of the center
    live = np.where(with_center, (index < len(ring)) & ~clash, index == 0)
    live &= ((spokes >= 0) | at_center).all(axis=1)
    spokes, at_center, ends = spokes[live], at_center[live], utriples[live]
    spokes[at_center] = ring[index[live][with_center[live]]]
    return live, spokes[:, [1, 0, 2, 1, 0, 2]] * len(partner) + ends[:, [0, 2, 1, 2, 1, 0]]


def _state(inst: ProblemInstance, start: Realization, chains: int) -> tuple[list[int], list[int]]:
    """Cells and edge slots of `chains` copies of `start`, back to back."""
    n_u, size = inst.n_u, inst.n_u * inst.n_w
    edges = sorted((w - n_u) * n_u + u for u, w in start.edges)
    cells = [-1] * size
    for c in np.flatnonzero(inst.forbidden_mask).tolist():
        cells[c] = -2
    cells *= chains
    slots = [offset + c for offset in range(0, chains * size, size) for c in edges]
    for s, c in enumerate(slots):
        cells[c] = s
    return cells, slots


def _walk(cells: list[int], slots: list[int], n_u: int, tries, hexagons, probe=-1) -> list[int]:
    """Apply tries in order; the steps of the applied moves that flip cell `probe`.

    A try is (step, e1, e2): a 4-cycle try on edge slots e1 and e2, or with
    e2 = -1 a 6-cycle try on ``hexagons[e1]``, six cells, three even then
    three odd.  Slots and cells are offset to the try's chain.
    """
    flips = []
    for t, e1, e2 in tries:
        if e2 >= 0:
            c1, c2 = slots[e1], slots[e2]
            u1, u2 = c1 % n_u, c2 % n_u
            a, b = c1 - u1 + u2, c2 - u2 + u1
            if cells[a] == -1 == cells[b]:
                cells[c1] = cells[c2] = -1
                cells[a], cells[b] = e1, e2
                slots[e1], slots[e2] = a, b
                if probe in (a, b, c1, c2):
                    flips.append(t)
            continue
        hexagon = hexagons[e1]
        p, q, r, x, y, z = hexagon
        if cells[p] < 0:  # then the odd cells must hold the edges
            p, q, r, x, y, z = x, y, z, p, q, r
        ep, eq, er = cells[p], cells[q], cells[r]
        if ep >= 0 and eq >= 0 and er >= 0 and cells[x] == cells[y] == cells[z] == -1:
            cells[p] = cells[q] = cells[r] = -1
            cells[x], cells[y], cells[z] = ep, eq, er
            slots[ep], slots[eq], slots[er] = x, y, z
            if probe in hexagon:
                flips.append(t)
    return flips


def _advance(
    inst: ProblemInstance, cells: list[int], slots: list[int], steps: int,
    rng: np.random.Generator, probe: int = -1, reads=(),
) -> tuple[int, list[int]]:
    """Run `steps` steps of every chain in place; the number of moves tried and
    (one chain only) cell `probe` after each step in the ascending `reads`.

    The tries come in blocks of at most ``_BLOCK``, sized to the tries
    expected in the steps left: their geometric gaps, their kinds, the edge
    slots of the 4-cycle tries, then the U-triples and indices of the
    6-cycle tries.  A 6-cycle try whose index is past its U-triple's
    hexagons is lazy and dropped before the walk.
    """
    n_u, size = inst.n_u, inst.n_u * inst.n_w
    chains = len(cells) // size
    edges = len(slots) // chains
    table = _partner_table(inst)
    theta4, theta6, kappa = _rates(inst, table[3])
    theta = float(theta4 + theta6)
    before = int(cells[probe] >= 0) if len(reads) else 0
    total, last, tries, flips = steps * chains, -1, 0, []
    while 0 < theta <= 1 and last < total - 1:
        block = min(_BLOCK, 16 + int(1.1 * theta * (total - 1 - last)))
        at = last + np.cumsum(rng.geometric(theta, block))
        last = int(at[-1])
        at = at[at < total]
        is4 = rng.random(len(at)) < float(theta4) / theta
        k = at % chains
        pairs = _distinct_draws(rng, edges, int(is4.sum()), 2) + (k[is4] * edges)[:, None]
        utriples = np.sort(_distinct_draws(rng, n_u, len(at) - len(pairs), 3), axis=1)
        index = rng.integers(0, kappa, len(utriples))
        live6, hexagons = _c6_cells(table, utriples, index)
        hexagons += (k[~is4][live6] * size)[:, None]
        # a try is (step, e1, e2), or (step, hexagon row, -1)
        rows = np.empty((len(at), 3), dtype=np.int64)
        rows[:, 0] = at // chains
        rows[is4, 1:] = pairs
        rows[~is4, 1] = np.cumsum(live6) - 1
        rows[~is4, 2] = -1
        live = is4.copy()
        live[~is4] = live6
        flips += _walk(cells, slots, n_u, zip(*rows[live].T.tolist()), hexagons.tolist(), probe)
        tries += len(at)
    # the probe cell flips exactly at the applied moves that contain it
    return tries, ((np.searchsorted(flips, reads, side="right") % 2) ^ before).tolist()


def _from_slots(inst: ProblemInstance, slots: list[int], chains: int) -> list[Realization]:
    """The realizations of the walker's chains: an edge at the cell of each slot.

    Checks, each over all chains, that no edge is forbidden, then the U and
    the W degrees, and raises at the first fault in chain, then cell or
    vertex order.  A cell held twice counts once.
    """
    n_u, n_w, per = inst.n_u, inst.n_w, len(slots) // chains
    cells = np.sort(np.array(slots, dtype=np.int64).reshape(chains, per), axis=1)
    cells -= np.arange(chains)[:, None] * (n_u * n_w)
    js, us = np.divmod(cells, n_u)
    bad = np.argwhere(inst.forbidden_mask[js, us])
    if len(bad):
        k, s = bad[0].tolist()
        raise NotAChord(f"pair {(int(us[k, s]), int(js[k, s]) + n_u)} is not a chord")
    fresh = np.diff(cells, prepend=-1) != 0
    owner = np.nonzero(fresh)[0]  # the chain of each distinct cell
    for vs, n, degrees, first in ((us, n_u, inst.u_degrees, 0), (js, n_w, inst.w_degrees, n_u)):
        sums = np.bincount(owner * n + vs[fresh], minlength=chains * n).reshape(chains, n)
        wrong = np.argwhere(sums != degrees)
        if len(wrong):
            k, v = wrong[0].tolist()
            raise ValidationError(
                f"vertex {first + v} has degree {sums[k, v]}, instance demands {degrees[v]}"
            )
    pairs = list(zip(us.ravel().tolist(), (js.ravel() + n_u).tolist()))
    return [Realization(inst, frozenset(pairs[k * per:(k + 1) * per])) for k in range(chains)]


def walk_chains(
    inst: ProblemInstance, start: Realization, steps: int, seed: int, chains: int = 1
) -> tuple[list[Realization], int]:
    """End states of `chains` chains of `steps` steps each from `start`, and
    the number of moves they tried.

    One ``Philox(seed)`` generator drives all of them, so the result is
    deterministic given the seed, the step count and the chain count.
    """
    _require_chain_instance(inst)
    if start.instance != inst:
        raise PreconditionViolated("start realization belongs to a different instance")
    if chains < 1:
        raise PreconditionViolated("run_chain needs at least one chain")
    rng = np.random.Generator(np.random.Philox(seed))
    cells, slots = _state(inst, start, chains)
    tries, _ = _advance(inst, cells, slots, steps, rng)
    del cells  # else each garbage collection in _from_slots walks all n_u * n_w * K cells
    return _from_slots(inst, slots, chains), tries


def run_chain(
    inst: ProblemInstance, start: Realization, steps: int, seed: int, chains: int = 1
) -> list[Realization]:
    """End states of `chains` chains of `steps` steps each from `start`;
    see :func:`walk_chains`."""
    return walk_chains(inst, start, steps, seed, chains)[0]


def classify_move(G: Realization, H: Realization) -> str | None:
    """'c4' or 'c6' when H is one legal chain move from G, else None."""
    if not G.instance.is_bipartite_like:
        raise PreconditionViolated("chain moves are defined for bipartite-kind instances")
    delta = G.edges ^ H.edges
    us = tuple(sorted({p[0] for p in delta}))
    ws = tuple(sorted({p[1] for p in delta}))
    partners = G.instance.forbidden_partners
    if len(delta) == 4 and len(us) == len(ws) == 2:
        return "c4" if try_c4(partners, G.edges, us, ws) is not None else None
    if len(delta) == 6 and len(us) == len(ws) == 3:
        return "c6" if try_c6(partners, G.edges, us, ws) is not None else None
    return None


def _move_probability(inst: ProblemInstance, kind: str) -> Fraction:
    """Probability that one step of the paper's chain makes a given legal move of this kind."""
    r = 2 if kind == "c4" else 3
    return Fraction(1, 4) / (comb(inst.n_u, r) * comb(inst.n_w, r))


def jump_probability(inst: ProblemInstance, G: Realization, H: Realization) -> Fraction:
    """Exact transition probability between two distinct adjacent realizations."""
    _require_chain_instance(inst)
    kind = classify_move(G, H)
    if kind is None:
        raise NotAdjacent("realizations are not one chain move apart")
    return _move_probability(inst, kind)


@dataclass
class KernelReport:
    """Exact transition matrix over the full state space, with diagnostics."""

    instance: ProblemInstance
    states: tuple[Realization, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return len(self.states)

    def diagnostics(self) -> dict:
        n = self.size
        sym = max(
            (abs(self.matrix[i][j] - self.matrix[j][i]) for i in range(n) for j in range(n)),
            default=Fraction(0),
        )
        row_residual = max(
            (abs(sum(row) - 1) for row in self.matrix), default=Fraction(0)
        )
        min_diag = min((self.matrix[i][i] for i in range(n)), default=Fraction(1))
        uniform = Fraction(1, n)
        stationary_exact = all(
            sum(uniform * self.matrix[i][j] for i in range(n)) == uniform
            for j in range(n)
        )
        return {
            "symmetry_residual": sym,
            "row_sum_residual": row_residual,
            "min_diagonal": min_diag,
            "uniform_stationary": stationary_exact,
            "half_regular": self.instance.half_regular,
        }

    def dense(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix])

    def to_json_dict(self) -> dict:
        """Fractions written as "numerator/denominator"; the stationary law is uniform."""
        diag = self.diagnostics()
        return {
            "states": [s.to_pairs() for s in self.states],
            "matrix": [[_fraction(x) for x in row] for row in self.matrix],
            "stationary": [_fraction(Fraction(1, self.size)) for _ in self.states],
            "diagnostics": {
                k: _fraction(v) if isinstance(v, Fraction) else v for k, v in diag.items()
            },
        }


def _fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def exact_kernel(inst: ProblemInstance, max_states: int = 4096) -> KernelReport:
    """Dense exact-rational transition matrix from the enumerated state space."""
    _require_chain_instance(inst)
    from .oracle import enumerate_all

    states = enumerate_all(inst, max_states=max_states)
    n = len(states)
    if n == 0:
        raise NotGraphical("instance is not graphical")
    index = {s.edges: i for i, s in enumerate(states)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, state in enumerate(states):
        for kind, toggle in legal_moves(inst, state.edges):
            j = index[state.edges.symmetric_difference(toggle)]
            rows[i][j] = _move_probability(inst, kind)
        rows[i][i] = 1 - sum(rows[i])
    return KernelReport(inst, tuple(states), tuple(tuple(r) for r in rows))


def sample_edge_frequency(
    inst: ProblemInstance,
    start: Realization,
    pair: Pair,
    n_samples: int,
    burn_in: int,
    thin: int,
    rng: np.random.Generator,
) -> tuple[int, Realization]:
    """Count of thinned post-burn-in states containing `pair`."""
    _require_chain_instance(inst)
    cells, slots = _state(inst, start, 1)
    u, w = pair
    steps = burn_in + n_samples * thin
    reads = np.arange(burn_in + thin - 1, steps, thin)
    _, recorded = _advance(inst, cells, slots, steps, rng, (w - inst.n_u) * inst.n_u + u, reads)
    return sum(recorded), _from_slots(inst, slots, 1)[0]
