"""Builtin GKM graph generators.

Four families, ready for the pipeline:

* ``builtin_simplex(n)``: the one-skeleton of the moment n-simplex, with
  coordinate isotropies, the graph of an ellipsoid/odd sphere of dimension
  2n+1 under its full torus;
* ``builtin_fiber_join(n, g)``: the simplex skeleton with every fiber the
  cohomology of a closed genus-g surface, the graph of a fiberwise
  ellipsoid bundle over the surface;
* ``builtin_hirzebruch(m)``: the rank-2 graph of a circle bundle over a
  Hirzebruch surface whose two critical components are the lens spaces
  L(m,1) and L(2m,1);
* ``builtin_stiefel()``: the frozen graph of a 7-dimensional real
  cohomology sphere (the Stiefel manifold of 2-frames in R^5) with exactly
  four closed Reeb orbits.

The Stiefel graph data is derived offline from the torus action on
2-frames; the derivation lives in ``scripts/derive_stiefel_graph.py`` and
regenerating it must reproduce the frozen constant below
(tests/test_examples.py enforces this, and the acceptance suite gates on
the resulting basic series).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .errors import InputShapeError
from .exactlin import MatrixQ, _as_rational, canonical_subspace
from .gkmcore import GkmEdge, GkmGraph, GkmVertex, GradedMap, GradedVS
from .toric import polytope_skeleton, simplex_polytope


def builtin_simplex(n: int) -> GkmGraph:
    """One-skeleton of the moment simplex of the round ellipsoid S^(2n+1).

    Vertex j carries the hyperplane {x_j = 0} of Q^(n+1), the edge {j, j'}
    the coordinate subspace {x_j = x_j' = 0}; all fibers are points.
    """
    if n < 1:
        raise InputShapeError("simplex requires n >= 1")
    return polytope_skeleton(simplex_polytope(n, [1] * (n + 1)))


def surface_cohomology(genus: int) -> GradedVS:
    """H of a closed orientable genus-g surface: dims 1, 2g, 1."""
    if genus < 0:
        raise InputShapeError("genus must be nonnegative")
    dims = {0: 1, 2: 1}
    if genus:
        dims[1] = 2 * genus
    return GradedVS.of(dims)


def builtin_fiber_join(n: int, genus: int) -> GkmGraph:
    """Simplex skeleton with surface-cohomology fibers and identity pullbacks.

    Models the total space of an ellipsoid bundle over a closed genus-g
    surface; the equivariant series is the simplex series convolved with
    (1, 2g, 1).
    """
    if n < 1:
        raise InputShapeError("fiber join requires n >= 1")
    skeleton = builtin_simplex(n)
    fiber = surface_cohomology(genus)
    ident = GradedMap.identity(fiber)
    return replace(
        skeleton,
        vertices=tuple(replace(v, fiber=fiber) for v in skeleton.vertices),
        edges=tuple(
            replace(e, edge_fiber=fiber, pullback_source=ident, pullback_target=ident)
            for e in skeleton.edges
        ),
        manifold_dim=2 * n + 3,
        bottom_orbit_dim=None,
    )


def builtin_hirzebruch(m: int, pullback_scale: Fraction | int | str = 1) -> GkmGraph:
    """Rank-2 graph of a circle bundle over a Hirzebruch surface.

    The two critical components are circle bundles over spheres with Euler
    numbers m and 2m (the lens spaces L(m,1) and L(2m,1)); their orbit
    spaces are rational cohomology 2-spheres, so both fibers have dims
    (1, 0, 1) in degrees 0..2.  The degree-2 pullback scalar is a free
    nonzero parameter (kernel dimensions are insensitive to it); the
    default is 1.
    """
    if m < 1:
        raise InputShapeError("hirzebruch requires m >= 1")
    scale = _as_rational(pullback_scale)
    if scale == 0:
        raise InputShapeError("degree-2 pullback scalar must be nonzero")
    sphere = GradedVS.of({0: 1, 2: 1})
    scaled = GradedMap(
        sphere,
        sphere,
        ((0, MatrixQ.identity(1)), (2, MatrixQ.from_rows([[scale]]))),
    )
    vertices = (
        GkmVertex(
            id=f"L({m},1)",
            isotropy=canonical_subspace([(1, 0)], 2),
            fiber=sphere,
        ),
        GkmVertex(
            id=f"L({2 * m},1)",
            isotropy=canonical_subspace([(0, 1)], 2),
            fiber=sphere,
        ),
    )
    edges = (
        GkmEdge(
            id="e",
            source=f"L({m},1)",
            target=f"L({2 * m},1)",
            isotropy=canonical_subspace([], 2),
            edge_fiber=sphere,
            pullback_source=GradedMap.identity(sphere),
            pullback_target=scaled,
        ),
    )
    return GkmGraph(rank=2, vertices=vertices, edges=edges, manifold_dim=5)


# Frozen graph of the 2-frame Stiefel manifold of R^5 under its rank-3
# torus (two left block rotations and the frame rotation).  Derived by
# scripts/derive_stiefel_graph.py; do not edit by hand.
STIEFEL_VERTEX_ISOTROPIES = {
    "P12+": ((1, 0, 1), (0, 1, 0)),
    "P12-": ((1, 0, -1), (0, 1, 0)),
    "P34+": ((1, 0, 0), (0, 1, 1)),
    "P34-": ((1, 0, 0), (0, 1, -1)),
}
STIEFEL_EDGE_ISOTROPIES = {
    ("P12+", "P12-"): (0, 1, 0),
    ("P12+", "P34+"): (1, 1, 1),
    ("P12+", "P34-"): (1, -1, 1),
    ("P12-", "P34+"): (1, -1, -1),
    ("P12-", "P34-"): (1, 1, -1),
    ("P34+", "P34-"): (1, 0, 0),
}


def builtin_stiefel() -> GkmGraph:
    """Frozen graph of the Stiefel manifold of 2-frames in R^5.

    Four one-dimensional orbits (the oriented coordinate 2-planes in the
    (1,2)- and (3,4)-directions), complete graph, point fibers.
    """
    vertices = tuple(
        GkmVertex(id=name, isotropy=canonical_subspace(rows, 3))
        for name, rows in STIEFEL_VERTEX_ISOTROPIES.items()
    )
    edges = tuple(
        GkmEdge(
            id=f"{a}|{b}",
            source=a,
            target=b,
            isotropy=canonical_subspace([row], 3),
        )
        for (a, b), row in STIEFEL_EDGE_ISOTROPIES.items()
    )
    return GkmGraph(
        rank=3,
        vertices=vertices,
        edges=edges,
        manifold_dim=7,
        bottom_orbit_dim=1,
    )
