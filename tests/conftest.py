"""Shared fixtures: the five reference instances and independent oracles.

The brute-force helpers here deliberately avoid the library's own enumeration
and distance code so they can serve as ground truth for it.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from rds_kit import core


@pytest.fixture
def f1():
    """2x2, all degrees 1, full diagonal matching; unique realization."""
    return core.bipartite_instance([1, 1], [1, 1], matching=[(0, 0), (1, 1)])


@pytest.fixture
def f2():
    """3x3, all degrees 1, diagonal matching; the two derangements of 3."""
    return core.bipartite_instance([1, 1, 1], [1, 1, 1], matching=[(0, 0), (1, 1), (2, 2)])


@pytest.fixture
def f3():
    """4x4, all degrees 1, diagonal matching; the nine derangements of 4."""
    return core.bipartite_instance([1] * 4, [1] * 4, matching=[(i, i) for i in range(4)])


@pytest.fixture
def f4():
    """3x3 with a star and matching; unique realization."""
    return core.bipartite_instance(
        [1, 2, 2], [2, 2, 1], star_center=0, star_leaves=[0], matching=[(1, 1), (2, 2)]
    )


@pytest.fixture
def f5():
    """2x2 instance that validates fine but has no realization."""
    return core.bipartite_instance([2, 1], [1, 2], matching=[(0, 0), (1, 1)])


@pytest.fixture
def roadmap_4x4():
    """u = w = [2]*4, star u0 -> {w1}, matching (1, 2) and (2, 3); 15 realizations."""
    return core.bipartite_instance(
        [2] * 4, [2] * 4, star_center=0, star_leaves=[1], matching=[(1, 2), (2, 3)]
    )


@pytest.fixture
def f2_reals(f2):
    ra = core.make_realization(f2, [(0, 1), (1, 2), (2, 0)])
    rb = core.make_realization(f2, [(0, 2), (1, 0), (2, 1)])
    return ra, rb


@pytest.fixture
def half_regular_5_path(tmp_path):
    """u = w = [3]*5, star u0 -> {w1}, matching (i, i) for i = 1..4; 32 realizations."""
    p = tmp_path / "half_regular_5.json"
    p.write_text(
        json.dumps(
            {
                "kind": "bipartite",
                "u_degrees": [3] * 5,
                "w_degrees": [3] * 5,
                "star_center": 0,
                "star_leaves": [1],
                "matching": [[i, i] for i in range(1, 5)],
            }
        )
    )
    return str(p)


def subset_bruteforce(inst: core.ProblemInstance) -> list[frozenset]:
    """All realizations by filtering every chord subset; independent oracle."""
    chords = list(inst.chord_pairs())
    assert len(chords) <= 22, "subset oracle is for tiny instances"
    out = []
    for r in range(len(chords) + 1):
        for subset in combinations(chords, r):
            degs = [0] * inst.n_vertices
            for a, b in subset:
                degs[a] += 1
                degs[b] += 1
            if all(degs[v] == inst.degree(v) for v in range(inst.n_vertices)):
                out.append(frozenset(subset))
    return out


def permutation_bruteforce(n: int) -> int:
    """Number of derangements of n by direct filtering."""
    return sum(1 for p in permutations(range(n)) if all(p[i] != i for i in range(n)))


def digraph_bruteforce(out_deg, in_deg) -> set[frozenset]:
    """All loop-free simple digraphs with the given bisequence."""
    n = len(out_deg)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = set()
    for r in range(len(arcs) + 1):
        for subset in combinations(arcs, r):
            outs = [0] * n
            ins = [0] * n
            for i, j in subset:
                outs[i] += 1
                ins[j] += 1
            if outs == list(out_deg) and ins == list(in_deg):
                found.add(frozenset(subset))
    return found


@st.composite
def star_matching_instances(draw):
    """Small bipartite instances with a star at some U-vertex and a matching."""
    n_u = draw(st.integers(2, 4))
    n_w = draw(st.integers(2, 4))
    u_deg = draw(st.lists(st.integers(0, n_w), min_size=n_u, max_size=n_u))
    # W-degrees in 0..n_u with the same total, drawn directly rather than filtered
    left, w_deg = sum(u_deg), []
    for j in range(n_w - 1, -1, -1):
        d = draw(st.integers(max(0, left - n_u * j), min(n_u, left)))
        w_deg.append(d)
        left -= d
    center = draw(st.integers(0, n_u - 1))
    leaves = draw(st.sets(st.integers(0, n_w - 1)))
    w_perm = draw(st.permutations(range(n_w)))
    size = draw(st.integers(0, min(n_u, n_w)))
    matching = [(i, w_perm[i]) for i in range(size)]
    return core.bipartite_instance(u_deg, w_deg, center, sorted(leaves), matching)


@st.composite
def half_regular_instances(draw):
    """Graphical half-regular 4-5 x 3-5 instances with a star and a matching of size >= 3.

    The W-degrees are read off a drawn edge set, so every draw is graphical.
    Every U-vertex off the star center has one degree d, below its chord
    count, and the center a degree below its own when it has two or more
    chords, so most draws have several realizations, and about a third have
    6-cycle moves.
    """
    n_u = draw(st.integers(4, 5))
    n_w = draw(st.integers(3, 5))
    center = draw(st.integers(0, n_u - 1))
    leaves = draw(st.sets(st.integers(0, n_w - 1), max_size=2))
    size = draw(st.integers(3, min(n_u, n_w)))
    u_perm = draw(st.permutations(range(n_u)))
    w_perm = draw(st.permutations(range(n_w)))
    matching = [(u_perm[i], w_perm[i]) for i in range(size)]
    forbidden = set(matching) | {(center, j) for j in leaves}
    chords = [[j for j in range(n_w) if (i, j) not in forbidden] for i in range(n_u)]
    d = draw(st.integers(1, min(len(c) - 1 for i, c in enumerate(chords) if i != center)))
    u_deg = [d] * n_u
    lo = min(1, len(chords[center]))
    u_deg[center] = draw(st.integers(lo, max(lo, len(chords[center]) - 1)))
    w_deg = [0] * n_w
    for i in range(n_u):
        for j in draw(st.permutations(chords[i]))[: u_deg[i]]:
            w_deg[j] += 1
    return core.bipartite_instance(u_deg, w_deg, center, sorted(leaves), matching)
