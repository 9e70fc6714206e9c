"""Shared fixtures: the five reference instances and independent oracles.

The brute-force helpers here deliberately avoid the library's own enumeration
and distance code so they can serve as ground truth for it.
"""

from __future__ import annotations

import json
from itertools import combinations, permutations

import pytest

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
