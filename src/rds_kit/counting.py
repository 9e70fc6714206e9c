"""Exact and approximate counting through the star-branching self-reduction.

Branching fixes the lowest-index chord (s, v) at the star center: the absent
branch adds it to the star, the present branch additionally lowers d(s) and
d(v).  A center with no remaining degree is retired (deleted) and the next
vertex hosts a fresh empty star, so both branches stay inside the
star+matching class and the present branch preserves half-regularity.

Children are built directly in global ids and are not validated again: a
star, a matching and degrees that only fall keep every structural
condition of a valid parent.  Only capacity can fail, when a child leaves a
vertex more demand than it has chords (the absent branch forbids a chord, a
retirement deletes a U-vertex); such a branch has no realization, and its
recursion ends in :class:`Exhausted` with a positive degree left, which
counts 0.

The approximate counter estimates each branch probability from chain
samples and multiplies the majority-branch reciprocals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import KIND_BIPARTITE, Pair, ProblemInstance
from .chain import default_burn_in, sample_edge_frequency
from .construct import greedy_construct
from .errors import Exhausted, PreconditionViolated
from .oracle import enumerate_all

THIN = 1  # the approximate counter reads every step of its chain
MAX_DOUBLINGS = 3  # retries, with doubled samples, of a level estimated at 0 or 1


def _delete_u_vertex(inst: ProblemInstance, s: int) -> ProblemInstance:
    """Drop a retired zero-degree U-vertex and its star; every later global id moves down one."""
    return ProblemInstance(
        KIND_BIPARTITE,
        inst.u_degrees[:s] + inst.u_degrees[s + 1:],
        inst.w_degrees,
        None,
        frozenset(),
        frozenset((a - (a > s), b - 1) for a, b in inst.matching if a != s),
    )


def _branch_child(
    inst: ProblemInstance, s: int, w_global: int, present: bool
) -> ProblemInstance | None:
    """The branch on chord (s, w): w joins the star of s, and the present
    branch also spends one degree of s and of w (None if either has none)."""
    u_deg, w_deg = inst.u_degrees, inst.w_degrees
    if present:
        j = w_global - inst.n_u
        if u_deg[s] < 1 or w_deg[j] < 1:
            return None
        u_deg = u_deg[:s] + (u_deg[s] - 1,) + u_deg[s + 1:]
        w_deg = w_deg[:j] + (w_deg[j] - 1,) + w_deg[j + 1:]
    return ProblemInstance(
        KIND_BIPARTITE, u_deg, w_deg, s, inst.star_leaves | {w_global}, inst.matching
    )


def retire_exhausted_centers(inst: ProblemInstance) -> ProblemInstance:
    """Delete star centers whose degree reached zero; the least remaining
    U-vertex hosts the next (empty) star.  Indices are compacted."""
    if not inst.is_bipartite_like:
        raise PreconditionViolated("branching is defined for bipartite kinds")
    work = inst
    while work.n_u > 0 and work.degree(work.effective_star_center) == 0:
        work = _delete_u_vertex(work, work.effective_star_center)
    return work


def branch_split(
    inst: ProblemInstance,
) -> tuple[Pair, ProblemInstance, ProblemInstance | None]:
    """The branching chord (s, v) plus the absent- and present-branch instances.

    Exhausted centers are retired first, so (s, v) and the returned branch
    instances refer to the compacted indexing of
    ``retire_exhausted_centers(inst)``.  Raises Exhausted when no branching
    chord is left anywhere; the caller then counts 1 if every remaining
    degree is zero and 0 otherwise.
    """
    work = retire_exhausted_centers(inst)
    if work.n_u == 0:
        raise Exhausted("no vertices left to branch on")
    s = work.effective_star_center
    chords = work.chords_at(s)
    if not chords:
        raise Exhausted(f"center {s} has positive degree but no chords")
    v = chords[0]
    return (s, v), _branch_child(work, s, v, False), _branch_child(work, s, v, True)


def exact_count(inst: ProblemInstance, max_chords: int = 40, method: str = "enumerate") -> int:
    """Number of realizations, by enumeration or by full branch recursion."""
    if method == "enumerate":
        return len(enumerate_all(inst, max_chords))
    if method != "branch":
        raise ValueError(f"unknown method {method!r}")

    def rec(work: ProblemInstance) -> int:
        try:
            _, absent, present = branch_split(work)
        except Exhausted:
            degrees = list(work.u_degrees) + list(work.w_degrees)
            return 1 if all(d == 0 for d in degrees) else 0
        total = rec(absent)
        if present is not None:
            total += rec(present)
        return total

    return rec(inst)


@dataclass
class CountLevel:
    chord: tuple[int, int]  # class-local (u, w)
    p_hat: float
    forced: bool
    degenerate: bool
    samples_used: int
    branch: str


@dataclass
class CountReport:
    mode: str
    value: float | int
    graphical: bool
    half_regular: bool
    levels: list[CountLevel] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        payload = {
            "mode": self.mode,
            "graphical": self.graphical,
            "half_regular": self.half_regular,
            "config": self.config,
        }
        if self.mode == "exact":
            payload["count"] = str(self.value)
        else:
            payload["estimate"] = float(self.value)
            payload["levels"] = [
                {
                    "chord": list(lv.chord),
                    "p_hat": lv.p_hat,
                    "forced": lv.forced,
                    "degenerate": lv.degenerate,
                    "samples_used": lv.samples_used,
                    "branch": lv.branch,
                }
                for lv in self.levels
            ]
        return payload


def exact_count_report(inst: ProblemInstance, max_chords: int = 40) -> CountReport:
    value = exact_count(inst, max_chords)
    return CountReport(
        mode="exact",
        value=value,
        graphical=value > 0,
        half_regular=inst.half_regular,
        config={"max_chords": max_chords},
    )


def approx_count(
    inst: ProblemInstance,
    samples_per_level: int = 1000,
    burn_in: int | None = None,
    seed: int = 0,
) -> CountReport:
    """Randomized estimate of the realization count via the self-reduction.

    Levels whose two branches are not both graphical are forced and skip
    sampling.  A sampled estimate of exactly 0 or 1 is retried with doubled
    cumulative samples up to ``MAX_DOUBLINGS`` times, then accepted and flagged.
    Deterministic for a fixed seed.
    """
    if not inst.is_bipartite_like:
        raise PreconditionViolated("approximate counting needs a bipartite-kind instance")
    config = {
        "samples_per_level": samples_per_level,
        "burn_in": burn_in,
        "seed": seed,
        "thin": THIN,
        "max_doublings": MAX_DOUBLINGS,
    }
    report = CountReport(
        mode="approximate",
        value=0.0,
        graphical=True,
        half_regular=inst.half_regular,
        config=config,
    )
    work = retire_exhausted_centers(inst)
    start = greedy_construct(work)  # always the greedy realization of `work`
    if start is None:
        report.graphical = False
        return report

    seed_seq = np.random.SeedSequence(seed)
    estimate = 1.0
    while True:
        try:
            (s, v), absent, present = branch_split(work)
        except Exhausted:
            degrees = list(work.u_degrees) + list(work.w_degrees)
            if any(degrees):
                estimate = 0.0
            break
        chord = (s, v - work.n_u)
        if present is not None:
            present = retire_exhausted_centers(present)  # the absent child never needs it
        absent_start = greedy_construct(absent)
        present_start = None if present is None else greedy_construct(present)
        absent_ok = absent_start is not None
        present_ok = present_start is not None
        if not (absent_ok and present_ok):
            p_hat = 1.0 if present_ok else 0.0
            work, start = (present, present_start) if present_ok else (absent, absent_start)
            report.levels.append(
                CountLevel(chord, p_hat, forced=True, degenerate=False,
                           samples_used=0, branch="present" if present_ok else "absent")
            )
            continue
        rng = np.random.Generator(np.random.Philox(seed_seq.spawn(1)[0]))
        level_burn = default_burn_in(work) if burn_in is None else burn_in
        hits = 0
        total = 0
        batch = samples_per_level
        state = start
        degenerate = False
        for attempt in range(MAX_DOUBLINGS + 1):
            batch_hits, state = sample_edge_frequency(
                work, state, (s, v), batch, level_burn if attempt == 0 else 0, THIN, rng
            )
            hits += batch_hits
            total += batch
            p_hat = hits / total
            degenerate = p_hat in (0.0, 1.0)
            if not degenerate:
                break
            batch = total  # double the cumulative sample size
        if p_hat >= 0.5:
            estimate /= p_hat
            work, start = present, present_start
            branch = "present"
        else:
            estimate /= 1.0 - p_hat
            work, start = absent, absent_start
            branch = "absent"
        report.levels.append(
            CountLevel(chord, p_hat, forced=False, degenerate=degenerate,
                       samples_used=total, branch=branch)
        )
    report.value = estimate
    return report
