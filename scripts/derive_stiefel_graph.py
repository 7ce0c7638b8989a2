#!/usr/bin/env python3
"""Derivation of the frozen Stiefel graph in gkmcalc.examples.

The Stiefel manifold of orthonormal 2-frames (u, v) in R^5 carries the
rank-3 torus generated by

* X1: left rotation in the (1,2)-coordinate plane,
* X2: left rotation in the (3,4)-coordinate plane,
* X3: the frame rotation (u, v) -> (u cos s + v sin s, -u sin s + v cos s),

acting with exactly four one-dimensional orbits, through the frames
(e1,e2), (e2,e1), (e3,e4), (e4,e3) (the oriented coordinate 2-planes
fixed by the two left rotations).  This script computes, with exact
rational arithmetic only:

1. the isotropy subalgebra at each of the four orbits, as the kernel of
   (a1, a2, a3) -> a1 X1 + a2 X2 + a3 X3 evaluated at the frame;
2. the candidate edge isotropies as pairwise intersections of vertex
   isotropies (each must be a line);
3. a witness that every such line is the kernel of exactly one isotropy
   weight: the linearized action of a generator Z of the line on the
   tangent space at each endpoint must have a 3-dimensional kernel
   (orbit direction + one 2-dimensional weight plane), while a generic
   element of the vertex isotropy must have a 1-dimensional kernel.

The resulting graph (complete graph on the four orbits) is frozen into
``gkmcalc.examples``; tests/test_examples.py asserts the frozen constant
equals the output of :func:`derive_graph`.

Sign conventions: X3 is normalized so its fundamental field at (u, v) is
(v, -u).  Flipping any generator's sign applies a global linear
automorphism of the torus algebra and changes no computed dimension.

Run directly to print the graph JSON:

    python scripts/derive_stiefel_graph.py
"""

import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkmcalc.exactlin import MatrixQ, canonical_subspace, kernel_basis
from gkmcalc.gkmcore import GkmEdge, GkmGraph, GkmVertex

N = 5  # frames live in R^5


def rotation_generator(i, j):
    """Elementary rotation generator: +1 at (i,j), -1 at (j,i)."""
    m = [[0] * N for _ in range(N)]
    m[i][j] = 1
    m[j][i] = -1
    return m


def commutator(a, b):
    ab = [[sum(a[i][k] * b[k][j] for k in range(N)) for j in range(N)] for i in range(N)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(N)) for j in range(N)] for i in range(N)]
    return [[ab[i][j] - ba[i][j] for j in range(N)] for i in range(N)]


def unit(i):
    v = [0] * N
    v[i] = 1
    return v


E12 = rotation_generator(0, 1)
E34 = rotation_generator(2, 3)

ORBIT_FRAMES = {
    "P12+": (unit(0), unit(1)),
    "P12-": (unit(1), unit(0)),
    "P34+": (unit(2), unit(3)),
    "P34-": (unit(3), unit(2)),
}


def check_bracket_relations():
    """Sanity: the rotation generators satisfy the expected brackets."""
    zero = [[0] * N for _ in range(N)]
    for (i, j), (k, l) in combinations([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 2):
        got = commutator(rotation_generator(i, j), rotation_generator(k, l))
        if len({i, j, k, l}) == 4:
            assert got == zero, "disjoint rotations must commute"
        elif i == k:
            assert got == rotation_generator(l, j)


def matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(N)) for i in range(N)]


def fundamental_fields(u, v):
    """Values of X1, X2, X3 at the frame (u, v), as vectors in R^10."""
    f1 = matvec(E12, u) + matvec(E12, v)
    f2 = matvec(E34, u) + matvec(E34, v)
    f3 = list(v) + [-x for x in u]
    return f1, f2, f3


def isotropy_subalgebra(u, v):
    """Kernel of (a1,a2,a3) -> a1 X1 + a2 X2 + a3 X3 at the frame."""
    f1, f2, f3 = fundamental_fields(u, v)
    columns = MatrixQ.from_rows([[f1[i], f2[i], f3[i]] for i in range(2 * N)], 3)
    rows = kernel_basis(columns).row_lists()
    return canonical_subspace(rows, 3)


def tangent_space(u, v):
    """RREF basis of the tangent space at (u, v) inside R^10."""
    constraints = MatrixQ.from_rows(
        [list(u) + [0] * N, [0] * N + list(v), list(v) + list(u)], 2 * N
    )
    return kernel_basis(constraints)


def linearized_action(coeffs, u, v, tangent):
    """Matrix of the isotropy element on the tangent space.

    For Z = a1 X1 + a2 X2 + a3 X3 in the isotropy at (u, v), the flow on
    ambient tangent coordinates (x, y) linearizes to
    (x, y) -> (L x + c y, L y - c x) with L = a1 E12 + a2 E34 and c = a3.
    """
    a1, a2, c = coeffs
    L = [[a1 * E12[i][j] + a2 * E34[i][j] for j in range(N)] for i in range(N)]
    piv = [next(j for j in range(2 * N) if tangent.entry(i, j)) for i in range(tangent.rows)]
    cols = []
    for b in range(tangent.rows):
        t = tangent.row(b)
        x, y = t[:N], t[N:]
        ix = [sum(L[i][j] * x[j] for j in range(N)) + c * y[i] for i in range(N)]
        iy = [sum(L[i][j] * y[j] for j in range(N)) - c * x[i] for i in range(N)]
        img = ix + iy
        coords = [img[p] for p in piv]
        # the image must stay tangent; reading coordinates off the RREF
        # pivots is exact, so verify the reconstruction
        recon = [
            sum(coords[r] * tangent.entry(r, j) for r in range(tangent.rows))
            for j in range(2 * N)
        ]
        assert recon == list(img), "isotropy action left the tangent space"
        cols.append(coords)
    return MatrixQ.from_rows(
        [[cols[b][i] for b in range(tangent.rows)] for i in range(tangent.rows)]
    )


def intersect_lines(a, b):
    """Intersection of two subspaces given by RREF row bases."""
    ra, rb = a.rows, b.rows
    stacked = MatrixQ.from_rows(
        [
            [ra[i][d] if i < len(ra) else -rb[i - len(ra)][d] for i in range(len(ra) + len(rb))]
            for d in range(a.ambient_dim)
        ],
        len(ra) + len(rb),
    )
    combos = kernel_basis(stacked).row_lists()
    vecs = [
        [sum(c[i] * ra[i][d] for i in range(len(ra))) for d in range(a.ambient_dim)]
        for c in combos
    ]
    return canonical_subspace(vecs, a.ambient_dim)


def kernel_dim_on_tangent(coeffs, u, v):
    action = linearized_action(coeffs, u, v, tangent_space(u, v))
    return kernel_basis(action).rows


def derive_graph():
    check_bracket_relations()
    isotropies = {
        name: isotropy_subalgebra(u, v) for name, (u, v) in ORBIT_FRAMES.items()
    }
    for name, sub in isotropies.items():
        assert sub.dim == 2, f"vertex {name} isotropy must be a plane in the rank-3 algebra"

    names = list(ORBIT_FRAMES)
    edges = []
    for a, b in combinations(names, 2):
        line = intersect_lines(isotropies[a], isotropies[b])
        assert line.dim == 1, f"isotropies of {a} and {b} must meet in a line"
        generator = list(line.rows[0])
        for endpoint in (a, b):
            u, v = ORBIT_FRAMES[endpoint]
            # orbit direction + one weight plane = 3; a generic isotropy
            # element keeps only the orbit direction
            assert kernel_dim_on_tangent(generator, u, v) == 3, (
                f"{a}-{b} generator is not a single weight kernel at {endpoint}"
            )
            span = isotropies[endpoint].rows
            generic = [
                span[0][j] + Fraction(7, 3) * span[1][j] for j in range(3)
            ]
            assert kernel_dim_on_tangent(generic, u, v) == 1
        edges.append(
            GkmEdge(
                id=f"{a}|{b}",
                source=a,
                target=b,
                isotropy=line,
            )
        )
    vertices = tuple(GkmVertex(id=n, isotropy=isotropies[n]) for n in names)
    return GkmGraph(
        rank=3,
        vertices=vertices,
        edges=tuple(edges),
        manifold_dim=7,
        bottom_orbit_dim=1,
    )


def main():
    graph = derive_graph()
    json.dump(graph.to_json(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
