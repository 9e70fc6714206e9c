"""Instance model, chord semantics, realizations and the directed/bipartite translation.

Vertices are global 0-based integers.  Bipartite and directed instances put the
U class first (global id ``i`` for U-index ``i``) and the W class after it
(global id ``n_u + j`` for W-index ``j``), so every cross pair (u, w) is already
normalized with u < w.  General instances use a single class 0..n-1.  All JSON
interfaces speak class-local indices; the conversion happens here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DegreeExceedsChords,
    DegreeSumMismatch,
    ForbiddenSetNotBipartite,
    IndexOutOfRange,
    LengthMismatch,
    NotAChord,
    NotDirectedKind,
    OverlappingMatching,
    StarCenterOutOfRange,
    SumMismatch,
    UnsupportedDirectedVariant,
    ValidationError,
)

KIND_BIPARTITE = "bipartite"
KIND_GENERAL = "general"
KIND_DIRECTED = "directed"
_KINDS = (KIND_BIPARTITE, KIND_GENERAL, KIND_DIRECTED)

Pair = tuple[int, int]


class ChordStatus(Enum):
    """Classification of a vertex pair.

    EDGE / NON_EDGE_CHORD need a realization; a bare instance query reports
    a chord pair as CHORD because the instance alone cannot split the two.
    """

    EDGE = "edge"
    NON_EDGE_CHORD = "non_edge_chord"
    FORBIDDEN_NON_CHORD = "forbidden_non_chord"
    INTRA_CLASS_NON_CHORD = "intra_class_non_chord"
    CHORD = "chord"


def norm_pair(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProblemInstance:
    """A degree sequence plus a forbidden star and partial matching.

    Build through :func:`validate_instance` or the factory helpers; direct
    construction skips validation.  ``u_degrees`` holds the full degree
    sequence for general instances (``w_degrees`` is then empty).
    """

    kind: str
    u_degrees: tuple[int, ...]
    w_degrees: tuple[int, ...]
    star_center: int | None
    star_leaves: frozenset[int]
    matching: frozenset[Pair]

    # -- sizes ---------------------------------------------------------

    @cached_property
    def n_u(self) -> int:
        return len(self.u_degrees)

    @cached_property
    def n_w(self) -> int:
        return len(self.w_degrees)

    @cached_property
    def n_vertices(self) -> int:
        return len(self.u_degrees) + len(self.w_degrees)

    @cached_property
    def is_bipartite_like(self) -> bool:
        return self.kind in (KIND_BIPARTITE, KIND_DIRECTED)

    def u(self, i: int) -> int:
        """Global id of U-vertex i."""
        if not 0 <= i < self.n_u:
            raise IndexOutOfRange(f"U index {i} out of range")
        return i

    def w(self, j: int) -> int:
        """Global id of W-vertex j."""
        if not self.is_bipartite_like:
            raise IndexOutOfRange("general instances have a single vertex class")
        if not 0 <= j < self.n_w:
            raise IndexOutOfRange(f"W index {j} out of range")
        return self.n_u + j

    def uw_pair(self, i: int, j: int) -> Pair:
        return (self.u(i), self.w(j))

    def degree(self, v: int) -> int:
        if v < 0 or v >= self.n_vertices:
            raise IndexOutOfRange(f"vertex {v} out of range")
        if v < self.n_u:
            return self.u_degrees[v]
        return self.w_degrees[v - self.n_u]

    def vertex_class(self, v: int) -> str:
        if not self.is_bipartite_like:
            return "V"
        return "U" if v < self.n_u else "W"

    # -- forbidden structure -------------------------------------------

    @cached_property
    def forbidden(self) -> frozenset[Pair]:
        """Star plus matching, de-duplicated."""
        pairs = set(self.matching)
        if self.star_center is not None:
            for leaf in self.star_leaves:
                pairs.add(norm_pair(self.star_center, leaf))
        return frozenset(pairs)

    @cached_property
    def forbidden_partners(self) -> dict[int, tuple[int, ...]]:
        """Vertex -> its forbidden partners, ascending; vertices without one are absent."""
        partners: dict[int, list[int]] = {}
        for a, b in self.forbidden:
            partners.setdefault(a, []).append(b)
            partners.setdefault(b, []).append(a)
        return {v: tuple(sorted(ps)) for v, ps in partners.items()}

    @cached_property
    def forbidden_mask(self) -> np.ndarray:
        """Read-only mask of the positions a :class:`ChordMatrix` never holds."""
        mask = _forbidden_mask(self)
        mask.setflags(write=False)
        return mask

    @cached_property
    def known_realizations(self) -> dict[frozenset[Pair], "Realization"]:
        """Realizations recorded by :func:`rds_kit.oracle.enumerate_all`, keyed by edge set.

        Filled only by enumeration, so sampling never grows it;
        :func:`realization_from_global_edges` returns a recorded object
        without validating it again.
        """
        return {}

    @cached_property
    def effective_star_center(self) -> int:
        """The designated star center; index 0 of U when none was given."""
        if self.star_center is not None:
            return self.star_center
        return 0

    @cached_property
    def half_regular(self) -> bool:
        """All U-degrees equal except possibly at the star center."""
        if not self.is_bipartite_like:
            return False
        s = self.effective_star_center
        rest = [d for i, d in enumerate(self.u_degrees) if i != s]
        return len(set(rest)) <= 1

    def same_class(self, a: int, b: int) -> bool:
        if not self.is_bipartite_like:
            return False
        return (a < self.n_u) == (b < self.n_u)

    def is_chord(self, a: int, b: int) -> bool:
        if a == b or self.same_class(a, b):
            return False
        return norm_pair(a, b) not in self.forbidden

    def chord_pairs(self) -> Iterator[Pair]:
        """All chords, lexicographically."""
        if self.is_bipartite_like:
            for u in range(self.n_u):
                for w in range(self.n_u, self.n_vertices):
                    if (u, w) not in self.forbidden:
                        yield (u, w)
        else:
            n = self.n_vertices
            for a in range(n):
                for b in range(a + 1, n):
                    if (a, b) not in self.forbidden:
                        yield (a, b)

    def chords_at(self, v: int) -> list[int]:
        """Chord partners of v, ascending."""
        if self.is_bipartite_like:
            others = range(self.n_u, self.n_vertices) if v < self.n_u else range(self.n_u)
        else:
            others = (x for x in range(self.n_vertices) if x != v)
        return [x for x in others if norm_pair(v, x) not in self.forbidden]

    @cached_property
    def chord_count(self) -> int:
        return sum(1 for _ in self.chord_pairs())


@dataclass(frozen=True)
class Realization:
    """A concrete simple graph realizing an instance.

    ``edges`` holds normalized global pairs; every edge is a chord and every
    vertex meets its target degree exactly (checked by :func:`make_realization`).
    """

    instance: ProblemInstance
    edges: frozenset[Pair]

    @cached_property
    def key(self) -> tuple[Pair, ...]:
        """Canonical identity: the sorted edge tuple."""
        return tuple(sorted(self.edges))

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only 0/1 values of :func:`adjacency_matrix`, built once."""
        values = _matrix_values(self)
        values.setflags(write=False)
        return values

    def has_edge(self, a: int, b: int) -> bool:
        return norm_pair(a, b) in self.edges

    def to_pairs(self) -> list[list[int]]:
        """Class-local edge list, sorted lexicographically."""
        inst = self.instance
        if inst.is_bipartite_like:
            return sorted([u, w - inst.n_u] for u, w in self.edges)
        return sorted([a, b] for a, b in self.edges)

    def to_json_dict(self) -> dict:
        return {"edges": self.to_pairs()}


def make_realization(inst: ProblemInstance, pairs: Iterable[Pair | list[int]]) -> Realization:
    """Build a realization from class-local pairs ((u, w) for bipartite kinds)."""
    edges = set()
    for p in pairs:
        a, b = p
        if inst.is_bipartite_like:
            edges.add(inst.uw_pair(a, b))
        else:
            if a == b or not 0 <= a < inst.n_vertices or not 0 <= b < inst.n_vertices:
                raise IndexOutOfRange(f"bad vertex pair {p!r}")
            edges.add(norm_pair(a, b))
    return realization_from_global_edges(inst, edges)


def realization_from_global_edges(inst: ProblemInstance, edges: Iterable[Pair]) -> Realization:
    """Build and validate a realization from global pairs, in either order.

    An edge set that enumeration recorded in ``inst.known_realizations``
    returns the recorded object; any other is validated in full.
    """
    edge_set = frozenset(map(tuple, edges))
    known = inst.known_realizations.get(edge_set)
    if known is None:
        edge_set = frozenset(norm_pair(a, b) for a, b in edge_set)
        known = inst.known_realizations.get(edge_set)
    if known is not None:
        return known
    _check_edges(inst, edge_set)
    return Realization(inst, edge_set)


def _check_edges(inst: ProblemInstance, edge_set: frozenset[Pair]) -> None:
    """Every pair is a chord and every vertex meets its degree."""
    degrees = [0] * inst.n_vertices
    for a, b in edge_set:
        if not inst.is_chord(a, b):
            raise NotAChord(f"pair {(a, b)} is not a chord")
        degrees[a] += 1
        degrees[b] += 1
    for v, d in enumerate(degrees):
        if d != inst.degree(v):
            raise ValidationError(
                f"vertex {v} has degree {d}, instance demands {inst.degree(v)}"
            )


def chord_status(
    inst: ProblemInstance, a: int, b: int, realization: Realization | None = None
) -> ChordStatus:
    """Classify the pair (a, b); needs a realization to split edge/non-edge."""
    n = inst.n_vertices
    if a == b or not 0 <= a < n or not 0 <= b < n:
        raise IndexOutOfRange(f"bad vertex pair {(a, b)}")
    if inst.same_class(a, b):
        return ChordStatus.INTRA_CLASS_NON_CHORD
    if norm_pair(a, b) in inst.forbidden:
        return ChordStatus.FORBIDDEN_NON_CHORD
    if realization is None:
        return ChordStatus.CHORD
    if realization.has_edge(a, b):
        return ChordStatus.EDGE
    return ChordStatus.NON_EDGE_CHORD


# ---------------------------------------------------------------------------
# validation / factories
# ---------------------------------------------------------------------------


def _check_common(inst: ProblemInstance) -> ProblemInstance:
    n = inst.n_vertices
    for seq in (inst.u_degrees, inst.w_degrees):
        for d in seq:
            if d < 0:
                raise ValidationError(f"negative degree {d}")
    if inst.is_bipartite_like:
        if sum(inst.u_degrees) != sum(inst.w_degrees):
            raise DegreeSumMismatch(
                f"U degrees sum to {sum(inst.u_degrees)}, W degrees to {sum(inst.w_degrees)}"
            )
    else:
        if sum(inst.u_degrees) % 2 != 0:
            raise DegreeSumMismatch("general degree sequence has odd total")

    # star indices
    if inst.star_center is not None:
        if inst.is_bipartite_like and not 0 <= inst.star_center < inst.n_u:
            raise StarCenterOutOfRange(f"star center {inst.star_center} not a U-vertex")
        if not inst.is_bipartite_like and not 0 <= inst.star_center < n:
            raise StarCenterOutOfRange(f"star center {inst.star_center} out of range")
    elif inst.star_leaves:
        raise StarCenterOutOfRange("star leaves given without a center")
    for leaf in inst.star_leaves:
        if inst.is_bipartite_like:
            if not inst.n_u <= leaf < n:
                raise StarCenterOutOfRange(f"star leaf {leaf} not a W-vertex")
        elif not 0 <= leaf < n:
            raise StarCenterOutOfRange(f"star leaf {leaf} out of range")
        if leaf == inst.star_center:
            raise StarCenterOutOfRange("star leaf equals the center")

    # matching: pairwise disjoint endpoints
    seen: set[int] = set()
    for a, b in inst.matching:
        if a == b or not 0 <= a < n or not 0 <= b < n:
            raise ValidationError(f"bad matching pair {(a, b)}")
        if inst.is_bipartite_like and inst.same_class(a, b):
            raise ValidationError(f"matching pair {(a, b)} lies inside one class")
        if a in seen or b in seen:
            raise OverlappingMatching(f"matching endpoint reused in {(a, b)}")
        seen.add(a)
        seen.add(b)

    # degree never exceeds the capacity of the opposite side
    for v in range(n):
        cap = (inst.n_w if v < inst.n_u else inst.n_u) if inst.is_bipartite_like else n - 1
        if inst.degree(v) > cap:
            raise DegreeExceedsChords(f"vertex {v} demands {inst.degree(v)} of {cap} possible edges")

    # a star+matching union is bipartite unless a matching pair joins two leaves
    if not inst.is_bipartite_like and inst.star_center is not None:
        for a, b in inst.matching:
            if a in inst.star_leaves and b in inst.star_leaves:
                raise ForbiddenSetNotBipartite(
                    f"matching pair {(a, b)} closes a triangle through the star center"
                )
    return inst


def bipartite_instance(
    u_degrees: Iterable[int],
    w_degrees: Iterable[int],
    star_center: int | None = None,
    star_leaves: Iterable[int] = (),
    matching: Iterable[Pair | list[int]] = (),
    kind: str = KIND_BIPARTITE,
) -> ProblemInstance:
    """Bipartite (or directed-representation) instance from class-local data."""
    u_deg = tuple(_as_int(d, "U degree") for d in u_degrees)
    w_deg = tuple(_as_int(d, "W degree") for d in w_degrees)
    n_u = len(u_deg)
    center = None if star_center is None else _as_int(star_center, "star center")
    leaves = frozenset(n_u + _as_int(j, "star leaf") for j in star_leaves)
    pairs = set()
    for p in matching:
        i, j = _as_int(p[0], "matching index"), _as_int(p[1], "matching index")
        if not (0 <= i < n_u and 0 <= j < len(w_deg)):
            raise ValidationError(f"matching pair {p!r} out of range")
        pairs.add((i, n_u + j))
    inst = ProblemInstance(kind, u_deg, w_deg, center, leaves, frozenset(pairs))
    return _check_common(inst)


def general_instance(
    degrees: Iterable[int],
    star_center: int | None = None,
    star_leaves: Iterable[int] = (),
    matching: Iterable[Pair | list[int]] = (),
) -> ProblemInstance:
    degs = tuple(_as_int(d, "degree") for d in degrees)
    center = None if star_center is None else _as_int(star_center, "star center")
    leaves = frozenset(_as_int(v, "star leaf") for v in star_leaves)
    pairs = frozenset(
        norm_pair(_as_int(p[0], "matching index"), _as_int(p[1], "matching index"))
        for p in matching
    )
    inst = ProblemInstance(KIND_GENERAL, degs, (), center, leaves, pairs)
    return _check_common(inst)


def from_directed(
    out_degrees: Iterable[int],
    in_degrees: Iterable[int],
    allow_opposite: bool = True,
) -> ProblemInstance:
    """Bipartite representation of a directed degree bisequence.

    Vertex x becomes an out-copy u_x and an in-copy w_x; the diagonal matching
    forbids loops.  Zero-degree copies are kept as isolated vertices.
    """
    out_deg = tuple(_as_int(d, "out-degree") for d in out_degrees)
    in_deg = tuple(_as_int(d, "in-degree") for d in in_degrees)
    if len(out_deg) != len(in_deg):
        raise LengthMismatch(f"{len(out_deg)} out-degrees vs {len(in_deg)} in-degrees")
    if sum(out_deg) != sum(in_deg):
        raise SumMismatch(f"out-degrees sum to {sum(out_deg)}, in-degrees to {sum(in_deg)}")
    if not allow_opposite:
        raise UnsupportedDirectedVariant(
            "excluding oppositely directed edge pairs is not a star+matching restriction"
        )
    diagonal = [(i, i) for i in range(len(out_deg))]
    return bipartite_instance(out_deg, in_deg, matching=diagonal, kind=KIND_DIRECTED)


def to_directed(real: Realization) -> list[Pair]:
    """Directed edge list (x, y) of a realization built by from_directed."""
    inst = real.instance
    if inst.kind != KIND_DIRECTED:
        raise NotDirectedKind(f"instance kind is {inst.kind!r}")
    return sorted((u, w - inst.n_u) for u, w in real.edges)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def validate_instance(raw: Mapping) -> ProblemInstance:
    """Validate a parsed JSON instance description."""
    if not isinstance(raw, Mapping):
        raise ValidationError("instance description must be a JSON object")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"kind must be one of {_KINDS}, got {kind!r}")
    star_center = raw.get("star_center")
    star_leaves = raw.get("star_leaves", ())
    matching = raw.get("matching", ())
    try:
        if not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in matching
        ):
            raise ValidationError("matching must be a list of two-element pairs")
        if kind == KIND_GENERAL:
            return general_instance(raw["degrees"], star_center, star_leaves, matching)
        if kind == KIND_DIRECTED:
            out_deg = list(raw["out_degrees"])
            in_deg = list(raw["in_degrees"])
            inst = from_directed(out_deg, in_deg)
            diagonal = set(inst.matching)
            if matching:
                given = {inst.uw_pair(int(p[0]), int(p[1])) for p in matching}
                if given != diagonal:
                    raise ValidationError("directed instances carry exactly the diagonal matching")
            if star_center is not None or star_leaves:
                inst = bipartite_instance(
                    out_deg,
                    in_deg,
                    star_center,
                    star_leaves,
                    [(i, i) for i in range(len(out_deg))],
                    kind=KIND_DIRECTED,
                )
            return inst
        return bipartite_instance(
            raw["u_degrees"], raw["w_degrees"], star_center, star_leaves, matching
        )
    except KeyError as exc:
        raise ValidationError(f"missing field {exc.args[0]!r} for kind {kind!r}") from None
    except TypeError as exc:
        raise ValidationError(f"malformed instance field: {exc}") from None


def instance_to_json(inst: ProblemInstance) -> dict:
    """JSON object for an instance, class-local indices."""
    out: dict = {"kind": inst.kind}
    if inst.kind == KIND_GENERAL:
        out["degrees"] = list(inst.u_degrees)
        out["matching"] = sorted([a, b] for a, b in inst.matching)
        out["star_leaves"] = sorted(inst.star_leaves)
    else:
        if inst.kind == KIND_DIRECTED:
            out["out_degrees"] = list(inst.u_degrees)
            out["in_degrees"] = list(inst.w_degrees)
        else:
            out["u_degrees"] = list(inst.u_degrees)
            out["w_degrees"] = list(inst.w_degrees)
        out["matching"] = sorted([a, b - inst.n_u] for a, b in inst.matching)
        out["star_leaves"] = sorted(j - inst.n_u for j in inst.star_leaves)
    out["star_center"] = inst.star_center
    return out


def load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_instance(json.load(fh))


# ---------------------------------------------------------------------------
# matrix view
# ---------------------------------------------------------------------------


@dataclass
class ChordMatrix:
    """Dense chord-position matrix.

    For bipartite kinds rows are W-vertices (bottom row = w_0) and columns are
    U-vertices, so column sums are U-degrees and row sums are W-degrees; for
    general instances the matrix is the symmetric n-by-n adjacency view.
    Forbidden positions are masked off and excluded from sums and Hamming
    distances.  A realization view holds 0/1; audit arithmetic may hold -1..2.
    """

    instance: ProblemInstance
    values: np.ndarray
    forbidden: np.ndarray

    def copy(self) -> "ChordMatrix":
        return ChordMatrix(self.instance, self.values.copy(), self.forbidden)

    def column_sums(self) -> np.ndarray:
        return np.where(self.forbidden, 0, self.values).sum(axis=0)

    def row_sums(self) -> np.ndarray:
        return np.where(self.forbidden, 0, self.values).sum(axis=1)

    def hamming(self, other: "ChordMatrix") -> int:
        """Number of chord positions with different values."""
        diff = (self.values != other.values) & ~self.forbidden
        return int(diff.sum())

    def __str__(self) -> str:
        n_w, n_u = self.values.shape
        lines = []
        for j in reversed(range(n_w)):
            cells = [
                "✠" if self.forbidden[j, i] else str(int(self.values[j, i]))
                for i in range(n_u)
            ]
            lines.append(" ".join(f"{c:>2}" for c in cells))
        return "\n".join(lines)


def _forbidden_mask(inst: ProblemInstance) -> np.ndarray:
    if inst.is_bipartite_like:
        mask = np.zeros((inst.n_w, inst.n_u), dtype=bool)
        for a, b in inst.forbidden:
            mask[b - inst.n_u, a] = True
    else:
        n = inst.n_vertices
        mask = np.eye(n, dtype=bool)
        for a, b in inst.forbidden:
            mask[a, b] = mask[b, a] = True
    return mask


def _matrix_values(real: Realization) -> np.ndarray:
    inst = real.instance
    if inst.is_bipartite_like:
        values = np.zeros((inst.n_w, inst.n_u), dtype=np.int8)
        for u, w in real.edges:
            values[w - inst.n_u, u] = 1
    else:
        n = inst.n_vertices
        values = np.zeros((n, n), dtype=np.int8)
        for a, b in real.edges:
            values[a, b] = values[b, a] = 1
    return values


def adjacency_matrix(real: Realization) -> ChordMatrix:
    """0/1 matrix of a realization with forbidden positions marked.

    The values are a writable copy of the cached ``real.matrix``; the mask is
    the instance's read-only ``forbidden_mask``.
    """
    return ChordMatrix(real.instance, real.matrix.copy(), real.instance.forbidden_mask)
