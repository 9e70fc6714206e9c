"""Ground truth for the benchmark, computed without importing rds_kit.

An instance is the JSON object the ``rds-kit`` command reads (kind
``bipartite``).  Its realizations are the 0/1 matrices with row sums
``u_degrees``, column sums ``w_degrees`` and zeros on the forbidden cells (the
star plus the matching).  The counter, the enumerator and the edge-list
checker here work on that matrix view directly.
"""

from __future__ import annotations

import math
from itertools import combinations


def forbidden_cells(instance: dict) -> frozenset[tuple[int, int]]:
    """Class-local (u, w) cells the instance forbids: star plus matching."""
    cells = {(int(u), int(w)) for u, w in instance.get("matching", ())}
    center = instance.get("star_center")
    if center is not None:
        cells.update((int(center), int(w)) for w in instance.get("star_leaves", ()))
    return frozenset(cells)


def count_matrices(rows, cols, forbidden) -> int:
    """Number of 0/1 matrices with the given margins and zeros on `forbidden`.

    Rows are filled one at a time.  Two columns with the same residual sum
    and the same forbidden cells among the rows still to fill are
    interchangeable, so the memo key is the sorted multiset of such column
    types; that keeps margins-2 squares up to n = 8 to a fraction of a second.
    """
    rows = [int(r) for r in rows]
    cols = [int(c) for c in cols]
    forbidden = frozenset(forbidden)
    n_rows, n_cols = len(rows), len(cols)
    if sum(rows) != sum(cols) or min(rows + cols, default=0) < 0:
        return 0
    blocked_by = [frozenset(i for i in range(n_rows) if (i, j) in forbidden) for j in range(n_cols)]
    # capacity[i][j]: rows from i on that may put a one in column j
    capacity = [
        [sum(1 for r in range(i, n_rows) if r not in blocked_by[j]) for j in range(n_cols)]
        for i in range(n_rows + 1)
    ]
    memo: dict[tuple, int] = {}

    def rec(i: int, residual: tuple[int, ...]) -> int:
        if i == n_rows:
            return 1 if not any(residual) else 0
        key = (i, tuple(sorted(
            (residual[j], tuple(r for r in blocked_by[j] if r >= i)) for j in range(n_cols)
        )))
        if key in memo:
            return memo[key]
        allowed = [j for j in range(n_cols) if residual[j] > 0 and i not in blocked_by[j]]
        total = 0
        for chosen in combinations(allowed, rows[i]):
            nxt = list(residual)
            for j in chosen:
                nxt[j] -= 1
            # a column cannot take more ones than the rows left that allow it
            if all(nxt[j] <= capacity[i + 1][j] for j in range(n_cols)):
                total += rec(i + 1, tuple(nxt))
        memo[key] = total
        return total

    return rec(0, tuple(cols))


def enumerate_matrices(rows, cols, forbidden) -> list[frozenset[tuple[int, int]]]:
    """Every realization as a frozenset of (row, column) ones."""
    rows = [int(r) for r in rows]
    cols = [int(c) for c in cols]
    forbidden = frozenset(forbidden)
    out: list[frozenset[tuple[int, int]]] = []
    residual = list(cols)
    ones: list[tuple[int, int]] = []

    def rec(i: int) -> None:
        if i == len(rows):
            if not any(residual):
                out.append(frozenset(ones))
            return
        allowed = [j for j in range(len(cols)) if residual[j] > 0 and (i, j) not in forbidden]
        for chosen in combinations(allowed, rows[i]):
            for j in chosen:
                residual[j] -= 1
                ones.append((i, j))
            rec(i + 1)
            for j in chosen:
                residual[j] += 1
                ones.pop()

    if sum(rows) == sum(cols):
        rec(0)
    return out


def count_instance(instance: dict) -> int:
    return count_matrices(instance["u_degrees"], instance["w_degrees"], forbidden_cells(instance))


def enumerate_instance(instance: dict) -> list[frozenset[tuple[int, int]]]:
    return enumerate_matrices(instance["u_degrees"], instance["w_degrees"], forbidden_cells(instance))


def edge_list_problems(edges, instance: dict) -> list[str]:
    """Why a class-local edge list is not a realization of `instance`; [] if it is."""
    rows = instance["u_degrees"]
    cols = instance["w_degrees"]
    forbidden = forbidden_cells(instance)
    problems: list[str] = []
    seen: set[tuple[int, int]] = set()
    row_deg = [0] * len(rows)
    col_deg = [0] * len(cols)
    for pair in edges:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            problems.append(f"not a pair: {pair!r}")
            continue
        u, w = pair
        if not (isinstance(u, int) and isinstance(w, int) and 0 <= u < len(rows) and 0 <= w < len(cols)):
            problems.append(f"pair out of range: {pair!r}")
            continue
        if (u, w) in seen:
            problems.append(f"repeated edge {pair!r}")
            continue
        seen.add((u, w))
        if (u, w) in forbidden:
            problems.append(f"forbidden pair {pair!r}")
        row_deg[u] += 1
        col_deg[w] += 1
    for u, (got, want) in enumerate(zip(row_deg, rows)):
        if got != want:
            problems.append(f"u{u} has degree {got}, instance demands {want}")
    for w, (got, want) in enumerate(zip(col_deg, cols)):
        if got != want:
            problems.append(f"w{w} has degree {got}, instance demands {want}")
    return problems


def chi_square_uniform_p(counts) -> float:
    """p-value of Pearson's chi-square test of `counts` against uniform."""
    counts = list(counts)
    k, n = len(counts), sum(counts)
    if k < 2 or n == 0:
        return 1.0
    expected = n / k
    stat = sum((c - expected) ** 2 for c in counts) / expected
    return upper_gamma_q((k - 1) / 2.0, stat / 2.0)


def upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x): series below a+1, Lentz's
    continued fraction above it."""
    if x <= 0:
        return 1.0
    log_front = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1:
        term = total = 1.0 / a
        ap = a
        for _ in range(10_000):
            ap += 1
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        return max(0.0, 1.0 - total * math.exp(log_front))
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-15:
            break
    return math.exp(log_front) * h
