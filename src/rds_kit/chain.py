"""The chain's two moves, the lazy Markov chain, its exact kernel, sampling.

This module is the one definition of a legal move.  :func:`try_c4` and
:func:`try_c6` decide the 4-cycle swap on a U-pair and a W-pair and the
forbidden-matching 6-cycle swap on two triples; :func:`legal_moves` lists
every legal move at a state.  The canonical-path sweep and the audit's
neighbour search in :mod:`rds_kit.paths` and the chain-move graph of
:mod:`rds_kit.oracle` are all built on them.

Each proposal is lazy with probability 1/2, with probability 1/4 draws an
unordered U-pair and W-pair and applies the 4-cycle swap if legal, and with
probability 1/4 draws unordered triples and applies the forbidden-matching
6-cycle swap if legal.  Failed proposals are self-loops, so the kernel is
symmetric with diagonal at least 1/2 and the uniform distribution is
stationary.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .core import Pair, ProblemInstance, Realization, realization_from_global_edges
from .errors import InstanceTooSmall, NotAdjacent, PreconditionViolated

# move kinds are drawn uniformly from 0..3; kinds 0 and 1 are lazy
_LAZY, _C4, _C6 = 0, 2, 3
_CHUNK = 4096


def default_burn_in(inst: ProblemInstance) -> int:
    """Heuristic proposal count: 20 (|U|+|W|)^2; mixing is proven polynomial
    for half-regular instances but without a usable exponent."""
    return 20 * (inst.n_u + inst.n_w) ** 2


def _require_chain_instance(inst: ProblemInstance) -> None:
    if not inst.is_bipartite_like:
        raise PreconditionViolated("the chain is defined for bipartite-kind instances")
    if inst.n_u < 2 or inst.n_w < 2:
        raise InstanceTooSmall("chain proposals need at least 2 vertices per class")


def _distinct_draws(
    rng: np.random.Generator, n: int, size: int, r: int, offset: int
) -> list[tuple[int, ...]]:
    """`size` uniform ordered r-tuples (r = 2 or 3) of distinct ints in [offset, offset + n).

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
    return list(zip(*((col + offset).tolist() for col in cols)))


def try_c4(forbidden, edges, upair, wpair) -> tuple[Pair, ...] | None:
    """Chords to toggle for a legal 4-cycle move, else None."""
    a, b = upair
    c, d = wpair
    p1, p2, p3, p4 = (a, c), (a, d), (b, c), (b, d)
    if p1 in forbidden or p2 in forbidden or p3 in forbidden or p4 in forbidden:
        return None
    e1, e2, e3, e4 = p1 in edges, p2 in edges, p3 in edges, p4 in edges
    if (e1 and e4 and not e2 and not e3) or (e2 and e3 and not e1 and not e4):
        return (p1, p2, p3, p4)
    return None


def try_c6(forbidden, edges, utriple, wtriple) -> tuple[Pair, ...] | None:
    """Chords to toggle for a legal F-compatible 6-cycle move, else None."""
    partner = {}
    for u in utriple:
        p = None
        for w in wtriple:
            if (u, w) in forbidden:
                if p is not None:
                    return None
                p = w
        if p is None:
            return None
        partner[u] = p
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
    forbidden = inst.forbidden
    us = range(inst.n_u)
    ws = range(inst.n_u, inst.n_vertices)
    for kind, r, try_move in (("c4", 2, try_c4), ("c6", 3, try_c6)):
        for utuple in combinations(us, r):
            for wtuple in combinations(ws, r):
                toggle = try_move(forbidden, edges, utuple, wtuple)
                if toggle is not None:
                    yield kind, toggle


def _advance(
    inst: ProblemInstance,
    edges: set[Pair],
    steps: int,
    rng: np.random.Generator,
    record_pair: Pair | None = None,
    record_every: int = 0,
) -> list[int]:
    """Run proposals in place; optionally record an edge indicator periodically.

    Draws come in fixed-size blocks (move kinds, then the U- and W-pairs of
    the block's 4-cycle steps, then the triples of its 6-cycle steps), so a
    trajectory is reproducible for a given seed and step count.
    """
    forbidden = inst.forbidden
    n_u, n_w = inst.n_u, inst.n_w
    have_triples = n_u >= 3 and n_w >= 3
    recorded: list[int] = []
    since_record = 0
    done = 0
    while done < steps:
        block = min(_CHUNK, steps - done)
        kinds = rng.integers(0, 4, block)
        if not have_triples:
            kinds[kinds == _C6] = _LAZY
        n4 = int(np.count_nonzero(kinds == _C4))
        n6 = int(np.count_nonzero(kinds == _C6))
        u4, w4 = _distinct_draws(rng, n_u, n4, 2, 0), _distinct_draws(rng, n_w, n4, 2, n_u)
        u6, w6 = _distinct_draws(rng, n_u, n6, 3, 0), _distinct_draws(rng, n_w, n6, 3, n_u)
        i4 = i6 = 0
        # without recording, lazy steps change nothing and are skipped
        for kind in (kinds if record_every else kinds[kinds >= _C4]).tolist():
            if kind == _C4:
                toggle = try_c4(forbidden, edges, u4[i4], w4[i4])
                i4 += 1
            elif kind == _C6:
                toggle = try_c6(forbidden, edges, u6[i6], w6[i6])
                i6 += 1
            else:
                toggle = None
            if toggle is not None:
                edges.symmetric_difference_update(toggle)
            if record_every:
                since_record += 1
                if since_record == record_every:
                    since_record = 0
                    recorded.append(1 if record_pair in edges else 0)
        done += block
    return recorded


def run_chain(
    inst: ProblemInstance, start: Realization, steps: int, seed: int
) -> Realization:
    """State after `steps` proposals from `start`; deterministic given seed."""
    _require_chain_instance(inst)
    if start.instance != inst:
        raise PreconditionViolated("start realization belongs to a different instance")
    rng = np.random.Generator(np.random.Philox(seed))
    edges = set(start.edges)
    _advance(inst, edges, steps, rng)
    return realization_from_global_edges(inst, edges)


def classify_move(G: Realization, H: Realization) -> str | None:
    """'c4' or 'c6' when H is one legal chain move from G, else None."""
    if not G.instance.is_bipartite_like:
        raise PreconditionViolated("chain moves are defined for bipartite-kind instances")
    delta = G.edges ^ H.edges
    us = tuple(sorted({p[0] for p in delta}))
    ws = tuple(sorted({p[1] for p in delta}))
    forbidden = G.instance.forbidden
    if len(delta) == 4 and len(us) == len(ws) == 2:
        return "c4" if try_c4(forbidden, G.edges, us, ws) is not None else None
    if len(delta) == 6 and len(us) == len(ws) == 3:
        return "c6" if try_c6(forbidden, G.edges, us, ws) is not None else None
    return None


def _move_probability(inst: ProblemInstance, kind: str) -> Fraction:
    """Probability that one proposal makes a given legal move of this kind."""
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
    half_regular: bool

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def stationary(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(1, self.size)] * self.size)

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
            "half_regular": self.half_regular,
        }

    def dense(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix])

    def to_json_dict(self) -> dict:
        diag = self.diagnostics()
        return {
            "states": [s.to_pairs() for s in self.states],
            "matrix": [
                [f"{x.numerator}/{x.denominator}" for x in row] for row in self.matrix
            ],
            "stationary": [f"{x.numerator}/{x.denominator}" for x in self.stationary],
            "diagnostics": {
                "symmetry_residual": f"{diag['symmetry_residual'].numerator}/{diag['symmetry_residual'].denominator}",
                "row_sum_residual": f"{diag['row_sum_residual'].numerator}/{diag['row_sum_residual'].denominator}",
                "min_diagonal": f"{diag['min_diagonal'].numerator}/{diag['min_diagonal'].denominator}",
                "uniform_stationary": diag["uniform_stationary"],
                "half_regular": diag["half_regular"],
            },
        }


def exact_kernel(inst: ProblemInstance, max_states: int = 4096) -> KernelReport:
    """Dense exact-rational transition matrix from the enumerated state space."""
    _require_chain_instance(inst)
    from .oracle import enumerate_all

    states = enumerate_all(inst, max_states=max_states)
    n = len(states)
    if n == 0:
        raise PreconditionViolated("instance is not graphical")
    index = {s.edges: i for i, s in enumerate(states)}
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, state in enumerate(states):
        for kind, toggle in legal_moves(inst, state.edges):
            j = index[state.edges.symmetric_difference(toggle)]
            rows[i][j] = _move_probability(inst, kind)
        rows[i][i] = 1 - sum(rows[i])
    return KernelReport(
        inst,
        tuple(states),
        tuple(tuple(r) for r in rows),
        inst.half_regular,
    )


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
    edges = set(start.edges)
    _advance(inst, edges, burn_in, rng)
    recorded = _advance(inst, edges, n_samples * thin, rng, record_pair=pair, record_every=thin)
    final = realization_from_global_edges(inst, edges)
    return sum(recorded), final
