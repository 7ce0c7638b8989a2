"""Moment polytopes of contact toric manifolds and their one-skeleta.

A :class:`MomentPolytope` is given combinatorially: rational vertex
coordinates, facet normals (vectors in the torus Lie algebra) and the
vertex-facet incidence.  For a simple polytope of affine dimension
n = rank - 1 the one-skeleton becomes a GKM graph: the isotropy of a
vertex is the span of the normals of the n facets through it, the
isotropy of an edge the span of the n-1 normals the two endpoints share.
No convex-hull computation happens here; incidence is trusted input and
validated combinatorially.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputShapeError, IsotropyRankError, SimplicityError
from .exactlin import _as_rational, canonical_subspace, is_int, vector_from_json, vector_to_json
from .gkmcore import GkmEdge, GkmGraph, GkmVertex, _require_valid


@dataclass(frozen=True)
class PolytopeVertex:
    id: str
    coords: tuple[Fraction, ...]


@dataclass(frozen=True)
class PolytopeFacet:
    normal: tuple[Fraction, ...]
    vertices: tuple[str, ...]


@dataclass(frozen=True)
class MomentPolytope:
    """Combinatorial moment polytope data in Q^rank."""

    rank: int
    vertices: tuple[PolytopeVertex, ...]
    facets: tuple[PolytopeFacet, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise InputShapeError("polytope rank must be at least 1")
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise InputShapeError("duplicate polytope vertex ids")
        known = set(ids)
        for v in self.vertices:
            if len(v.coords) != self.rank:
                raise InputShapeError(
                    f"vertex {v.id!r} has {len(v.coords)} coordinates, expected {self.rank}"
                )
        for i, f in enumerate(self.facets):
            if len(f.normal) != self.rank:
                raise InputShapeError(f"facet {i} normal has wrong length")
            if len(set(f.vertices)) != len(f.vertices):
                raise InputShapeError(f"facet {i} lists a vertex twice: {list(f.vertices)}")
            for vid in f.vertices:
                if vid not in known:
                    raise InputShapeError(f"facet {i} references unknown vertex {vid!r}")

    def to_json(self):
        return {
            "rank": self.rank,
            "vertices": [
                {"id": v.id, "coords": vector_to_json(v.coords)} for v in self.vertices
            ],
            "facets": [
                {"normal": vector_to_json(f.normal), "vertices": list(f.vertices)}
                for f in self.facets
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "MomentPolytope":
        if not isinstance(obj, dict) or "rank" not in obj:
            raise InputShapeError("polytope JSON needs 'rank', 'vertices', 'facets'")
        rank = obj["rank"]
        if not is_int(rank):
            raise InputShapeError("rank must be an integer")
        for key in ("vertices", "facets"):
            if key in obj and not isinstance(obj[key], list):
                raise InputShapeError(f"{key} must be an array")
        vertices = []
        for vj in obj.get("vertices", []):
            if not isinstance(vj, dict) or "id" not in vj or "coords" not in vj:
                raise InputShapeError("each polytope vertex needs 'id' and 'coords'")
            vertices.append(PolytopeVertex(str(vj["id"]), vector_from_json(vj["coords"])))
        facets = []
        for fj in obj.get("facets", []):
            if not isinstance(fj, dict) or "normal" not in fj or "vertices" not in fj:
                raise InputShapeError("each facet needs 'normal' and 'vertices'")
            if not isinstance(fj["vertices"], list):
                raise InputShapeError("facet 'vertices' must be an array of vertex ids")
            facets.append(
                PolytopeFacet(
                    vector_from_json(fj["normal"]),
                    tuple(str(v) for v in fj["vertices"]),
                )
            )
        return cls(rank, tuple(vertices), tuple(facets))


def polytope_skeleton(polytope: MomentPolytope) -> GkmGraph:
    """One-skeleton of a simple moment polytope as a GKM graph.

    Vertices become graph vertices with isotropy spanned by the normals of
    the n facets through them; pairs of vertices sharing exactly n-1
    facets become edges with the shared normals' span.  The output carries
    ``manifold_dim = 2n+1`` metadata and passes validation.
    """
    n = polytope.rank - 1
    facets_of: dict[str, set[int]] = {v.id: set() for v in polytope.vertices}
    for i, f in enumerate(polytope.facets):
        for vid in f.vertices:
            facets_of[vid].add(i)
    bad = {vid: len(fs) for vid, fs in facets_of.items() if len(fs) != n}
    if bad:
        raise SimplicityError(
            f"every vertex of a simple polytope of dimension {n} lies on exactly "
            f"{n} facets; violations: {bad}"
        )

    vertices = []
    for v in polytope.vertices:
        span = canonical_subspace(
            [polytope.facets[i].normal for i in sorted(facets_of[v.id])],
            polytope.rank,
        )
        if span.dim != n:
            raise IsotropyRankError(
                f"facet normals at vertex {v.id!r} span dimension {span.dim}, expected {n}"
            )
        vertices.append(GkmVertex(id=v.id, isotropy=span))

    edges = []
    order = [v.id for v in polytope.vertices]
    for a_idx in range(len(order)):
        for b_idx in range(a_idx + 1, len(order)):
            a, b = order[a_idx], order[b_idx]
            shared = facets_of[a] & facets_of[b]
            if len(shared) != n - 1:
                continue
            span = canonical_subspace(
                [polytope.facets[i].normal for i in sorted(shared)], polytope.rank
            )
            if span.dim != n - 1:
                raise IsotropyRankError(
                    f"shared facet normals along edge {a!r}-{b!r} span dimension "
                    f"{span.dim}, expected {n - 1}"
                )
            edges.append(GkmEdge(id=f"{a}|{b}", source=a, target=b, isotropy=span))

    graph = GkmGraph(
        rank=polytope.rank,
        vertices=tuple(vertices),
        edges=tuple(edges),
        manifold_dim=2 * n + 1,
        bottom_orbit_dim=1,
    )
    _require_valid(graph)
    return graph


def simplex_polytope(n: int, weights) -> MomentPolytope:
    """Moment simplex of an ellipsoid with weights a_0..a_n.

    Vertex j sits at (1/a_j) e_j in Q^(n+1); facet j has normal e_j and
    contains every vertex except j.  The skeleton is independent of the
    weights (incidence does not move with them).
    """
    weights = [_as_rational(w) for w in weights]
    if n < 1:
        raise InputShapeError("simplex polytope requires n >= 1")
    if len(weights) != n + 1:
        raise InputShapeError(f"expected {n + 1} weights, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise InputShapeError("ellipsoid weights must be positive")
    rank = n + 1
    vertices = tuple(
        PolytopeVertex(
            id=f"v{j}",
            coords=tuple(1 / weights[j] if k == j else Fraction(0) for k in range(rank)),
        )
        for j in range(rank)
    )
    facets = tuple(
        PolytopeFacet(
            normal=tuple(Fraction(1) if k == j else Fraction(0) for k in range(rank)),
            vertices=tuple(f"v{i}" for i in range(rank) if i != j),
        )
        for j in range(rank)
    )
    return MomentPolytope(rank, vertices, facets)
