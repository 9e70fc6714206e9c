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

:func:`run_chain` walks any number of independent chains in one pass, all
driven by one generator.  The walker holds each state as flat 0/1 cells in
the ``(n_w, n_u)`` layout of :attr:`Realization.matrix`, so (u, j) is cell
``j * n_u + u``, and the chains' states lie back to back in one buffer.  A
block holds the draws of a run of steps of every chain.  numpy lists the
cells of each drawn move, three even cells then three odd ones, offset to
its chain's state, and drops the draws that are never legal: a 4-cycle on a
forbidden cell, a 6-cycle whose forbidden 3x3 block is not a permutation.
One Python loop then applies the block's moves in step order.  A listed move
is legal iff its even cells agree, its odd cells agree and the two values
differ, which is what :func:`try_c4`/:func:`try_c6` decide.  With one chain
the blocks and the draws are those of the single-chain walker, so a
single-chain trajectory depends only on the seed and the step count.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import comb

import numpy as np

from .core import Pair, ProblemInstance, Realization
from .errors import (
    InstanceTooSmall, NotAChord, NotAdjacent, PreconditionViolated, ValidationError,
)

# move kinds are drawn uniformly from 0..3; kinds 0 and 1 are lazy
_C4, _C6 = 2, 3
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


def _draw_block(inst: ProblemInstance, rng: np.random.Generator, steps: int, chains: int):
    """Draws of one block of `steps` proposals of each of `chains` chains.

    The move kinds come as a ``(steps, chains)`` array, then the U- and
    W-pairs of its 4-cycle draws and the triples of its 6-cycle draws, in the
    flattened order of the kinds, step ``t`` of chain ``k`` at ``t * chains + k``.
    With one chain this is the order of the single-chain walker, so its
    trajectories do not depend on how many chains a call runs.  Returns the
    flat steps of the 4-cycle draws with their pairs, then the same for the
    6-cycle draws and their triples.
    """
    kinds = rng.integers(0, 4, (steps, chains)).ravel()
    at4 = np.flatnonzero(kinds == _C4)
    at6 = np.flatnonzero(kinds == _C6) if inst.n_u >= 3 and inst.n_w >= 3 else at4[:0]
    n4, n6 = len(at4), len(at6)
    u4, w4 = _distinct_draws(rng, inst.n_u, n4, 2), _distinct_draws(rng, inst.n_w, n4, 2)
    u6, w6 = _distinct_draws(rng, inst.n_u, n6, 3), _distinct_draws(rng, inst.n_w, n6, 3)
    return at4, u4, w4, at6, u6, w6


def _block_rows(
    inst: ProblemInstance, chains: int, at4, u4, w4, at6, u6, w6
) -> tuple[np.ndarray, np.ndarray]:
    """Cells of a block's moves that can ever be legal, in step order, and their flat steps.

    The arguments after `chains` are those :func:`_draw_block` returns;
    pairs and triples hold class-local indices.  A row is three even cells,
    then three odd cells; a 4-cycle repeats its second even and its second
    odd cell.  Chain k's cells are offset by k times the cells of one state.
    A 4-cycle on a forbidden cell and a 6-cycle whose forbidden 3x3 block is
    not a permutation are dropped.
    """
    n_u, mask = inst.n_u, inst.forbidden_mask.ravel()
    # pairs (a, b) and (c, d): evens (a, c), (b, d), odds (a, d), (b, c)
    cells4 = w4[:, [0, 1, 1, 1, 0, 0]] * n_u + u4[:, [0, 1, 1, 0, 1, 1]]
    live4 = ~mask[cells4].any(axis=1)
    # [m, i, k]: w6[m, i] is forbidden with u6[m, k]
    block = mask[(w6 * n_u)[:, :, None] + u6[:, None, :]]
    live6 = (block.sum(axis=1) == 1).all(axis=1) & (block.sum(axis=2) == 1).all(axis=1)
    partner = (block[live6] * w6[live6, :, None]).sum(axis=1)  # [m, k]: partner of u6[m, k]
    # triples (x, y, z) with partners s(.): the hexagon x - s(y) - z - s(x) - y - s(z)
    cells6 = partner[:, [1, 0, 2, 1, 0, 2]] * n_u + u6[live6][:, [0, 2, 1, 2, 1, 0]]
    steps = np.concatenate([at4[live4], at6[live6]])
    order = np.argsort(steps)
    steps = steps[order]
    offset = steps % chains * mask.size
    return np.concatenate([cells4[live4], cells6])[order] + offset[:, None], steps


def _walk(cells: bytearray, rows: np.ndarray) -> list[int]:
    """Apply rows in order; a legal move flips every cell.  The indices of the applied rows."""
    applied = []
    for i, a, b, c, d, e, f in zip(count(), *rows.T.tolist()):
        x = cells[a]
        if x == cells[b] == cells[c] and x != cells[d] == cells[e] == cells[f]:
            cells[a] = cells[b] = cells[c] = 1 - x
            cells[d] = cells[e] = cells[f] = x
            applied.append(i)
    return applied


def _advance(
    inst: ProblemInstance, cells: bytearray, steps: int, rng: np.random.Generator,
    probe: int = -1, every: int = 0,
) -> list[int]:
    """Run `steps` proposals of every chain in place on the cells, the chains
    back to back; with `every` (one chain only), read cell `probe` after
    every `every`-th step.

    A block holds ``max(1, _CHUNK // chains)`` steps of all chains, so a
    trajectory is reproducible for a given seed, step count and chain count.
    """
    chains = len(cells) // inst.forbidden_mask.size
    span = max(1, _CHUNK // chains)
    seen: list[int] = []
    for done in range(0, steps, span):
        block = min(span, steps - done)
        rows, at = _block_rows(inst, chains, *_draw_block(inst, rng, block, chains))
        before = cells[probe] if every else 0
        applied = _walk(cells, rows)
        if every:
            # the probe cell flips exactly at the applied moves that contain it
            flips = at[applied][(rows[applied] == probe).any(axis=1)]
            probes = np.arange((every - 1 - done) % every, block, every)
            seen += ((np.searchsorted(flips, probes, side="right") % 2) ^ before).tolist()
    return seen


def _from_cells(inst: ProblemInstance, cells: bytearray) -> list[Realization]:
    """The realizations whose edges are the set cells of each state, checked at once.

    Every state is checked in numpy: no set cell is forbidden, and the row and
    column sums are the W and U degrees.
    """
    n_u = inst.n_u
    states = np.frombuffer(cells, dtype=np.int8).reshape(-1, inst.n_w, n_u)
    bad = np.argwhere(states & inst.forbidden_mask)
    if len(bad):
        _, j, u = bad[0].tolist()
        raise NotAChord(f"pair {(u, j + n_u)} is not a chord")
    for sums, degrees, first in (
        (states.sum(axis=1), inst.u_degrees, 0), (states.sum(axis=2), inst.w_degrees, n_u)
    ):
        wrong = np.argwhere(sums != degrees)
        if len(wrong):
            k, v = wrong[0].tolist()
            raise ValidationError(
                f"vertex {first + v} has degree {sums[k, v]}, instance demands {degrees[v]}"
            )
    _, js, us = np.nonzero(states)
    pairs = list(zip(us.tolist(), (js + n_u).tolist()))
    per = sum(inst.u_degrees)
    return [Realization(inst, frozenset(pairs[k * per:(k + 1) * per])) for k in range(len(states))]


def run_chain(
    inst: ProblemInstance, start: Realization, steps: int, seed: int, chains: int = 1
) -> list[Realization]:
    """End states of `chains` chains of `steps` proposals each from `start`.

    One ``Philox(seed)`` generator drives all of them, so the result is
    deterministic given the seed, the step count and the chain count.
    """
    _require_chain_instance(inst)
    if start.instance != inst:
        raise PreconditionViolated("start realization belongs to a different instance")
    if chains < 1:
        raise PreconditionViolated("run_chain needs at least one chain")
    rng = np.random.Generator(np.random.Philox(seed))
    cells = bytearray(start.matrix.tobytes() * chains)
    _advance(inst, cells, steps, rng)
    return _from_cells(inst, cells)


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
    cells = bytearray(start.matrix.tobytes())
    _advance(inst, cells, burn_in, rng)
    u, w = pair
    recorded = _advance(inst, cells, n_samples * thin, rng, (w - inst.n_u) * inst.n_u + u, thin)
    return sum(recorded), _from_cells(inst, cells)[0]
