"""Adapted vertex coordinates: the kernel dimensions of ``equivariant_dims``.

``equivariant_dims`` writes each vertex's polynomials in a basis of its
isotropy chosen from the graph (``gkmcore._adapted_bases``).  Dimensions
do not depend on that choice, so they are checked against the canonical
system, kept as the oracle, and against the dense path; on toric skeletons
the adapted system has two nonzeros per row, an identification system that
``equivariant_dims`` counts from faces (see ``test_face_count.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc.examples import builtin_fiber_join, builtin_simplex, builtin_stiefel
from gkmcalc import gkmcore
from gkmcalc.exactlin import (
    canonical_subspace,
    coordinates,
    dual_basis,
    hyperplane_normals,
    reduce_int_rows,
)
from gkmcalc.gkmcore import (
    GkmEdge,
    GkmGraph,
    GkmVertex,
    _adapted_bases,
    _constraint_rows,
    _ends,
    _layout,
    equivariant_dims,
)
from gkmcalc.symalg import restriction, restriction_images, sym_dim

from oracles import dense, dense_equivariant_dims, expanded_restriction_images, hyperplane_normal
from test_gkmcore import coordinate_changes, fixture_graph

GENERIC = {"generic_simplex4": 8, "generic_cube3": 8, "generic_cube4": 6, "generic_cube5": 4}


def systems(graph, max_degree, bases=None):
    """``(total degree, rows, columns)`` of each nonempty constraint system."""
    for m in range(max_degree + 1):
        blocks, total = _layout(graph, m)
        if total:
            yield m, _constraint_rows(graph, m, blocks, total, _ends(graph, bases)), total


def canonical_dims(graph, max_degree):
    # pivots of the full reduction: the fixed-order loop, not the rank_only
    # union-find that equivariant_dims runs on two-entry systems
    dims = [0] * (max_degree + 1)
    for m, rows, total in systems(graph, max_degree):
        dims[m] = total - len(reduce_int_rows(rows, total)[1])
    return dims


def but_one(basis):
    """Each tuple of the rows of ``basis`` but one, in order."""
    return [basis[:s] + basis[s + 1:] for s in range(len(basis))]


@pytest.mark.parametrize("name", GENERIC)
def test_generic_dims_match_canonical_and_dense(name):
    graph = fixture_graph(name)
    cutoff = GENERIC[name]
    dims = list(equivariant_dims(graph, cutoff).coeffs)
    assert dims == canonical_dims(graph, cutoff) == dense_equivariant_dims(graph, cutoff)


def test_stiefel_dims_match_canonical_and_dense():
    graph = builtin_stiefel()
    dims = list(equivariant_dims(graph, 12).coeffs)
    assert dims == canonical_dims(graph, 12) == dense_equivariant_dims(graph, 12)


@pytest.mark.parametrize("name", GENERIC)
def test_generic_rows_have_two_nonzeros(name):
    # every edge is kept at both of its endpoints and both have its lines, so
    # each restriction sends a monomial to one monomial; the canonical
    # system of the same graph is denser
    graph = fixture_graph(name)
    bases = vertex_bases, edge_bases = _adapted_bases(graph)
    for e in graph.edges:
        for vid in (e.source, e.target):
            assert edge_bases[e.id] in but_one(vertex_bases[vid])
    for m, rows, _ in systems(graph, 8, bases):
        assert rows and all(len(row) == 2 for row in rows), m
    assert any(len(row) > 2 for _, rows, _ in systems(graph, 4) for row in rows)


def test_stiefel_takes_the_fallback():
    # valence 3 in dimension 2: each vertex keeps two of its edges, and an
    # edge kept at neither endpoint keeps its canonical basis
    graph = builtin_stiefel()
    vertex_bases, edge_bases = _adapted_bases(graph)
    fallback = [e for e in graph.edges
                if not any(set(edge_bases[e.id]) <= set(vertex_bases[vid])
                           for vid in (e.source, e.target))]
    assert fallback
    for edge in fallback:
        assert edge_bases[edge.id] == edge.isotropy.rows


def crossed_planes():
    """Three vertices with isotropy Q^3 and five planes between them, each
    vertex keeping three of its edges: u keeps e0, e1, e2 and v keeps e1,
    e3, e4, so the two ends of e1 have different lines in its plane."""
    space = canonical_subspace([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    planes = [[(1, 0, 0), (0, 1, 0)], [(1, 0, 1), (0, 1, 1)], [(1, 1, 0), (0, 0, 1)],
              [(1, 0, 2), (0, 1, 3)], [(1, 2, 0), (0, 1, 1)]]
    ends = [("u", "w"), ("u", "v"), ("u", "w"), ("v", "w"), ("v", "w")]
    return GkmGraph(3, tuple(GkmVertex(vid, space) for vid in "uvw"),
                    tuple(GkmEdge(f"e{i}", a, b, canonical_subspace(plane, 3))
                          for i, ((a, b), plane) in enumerate(zip(ends, planes))))


@pytest.mark.parametrize("name", [*GENERIC, "stiefel", "fiber_join(2,1)", "crossed"])
def test_drops_name_the_line_an_edge_basis_leaves_out(name):
    # where an edge's basis is a vertex's lines but the one at s, the pair's
    # forms are unit forms over 1, line s's empty, and its maps are the ones
    # coordinates gives on the same pair; where the two ends of an edge keep
    # it with different lines, the end whose lines the edge did not take
    # gets the forms of coordinates, and the dims are the canonical system's
    graph = {"stiefel": builtin_stiefel(), "fiber_join(2,1)": builtin_fiber_join(2, 1),
             "crossed": crossed_planes()}.get(name) or fixture_graph(name)
    vertex_bases, edge_bases = _adapted_bases(graph)
    for e in graph.edges:
        for vid in (e.source, e.target):
            ambient, sub = vertex_bases[vid], edge_bases[e.id]
            _, den, forms, _ = restriction(ambient, sub)
            if sub in but_one(ambient):
                s = but_one(ambient).index(sub)
                assert den == 1 and forms == tuple(((k - (k > s), 1),) if k != s else ()
                                                   for k in range(len(ambient)))
            for d in range(4):
                assert dense(restriction_images(restriction(ambient, sub), d),
                             sym_dim(len(sub), d)) == dense(
                    expanded_restriction_images(ambient, sub, d), sym_dim(len(sub), d))
    if name == "crossed":
        assert edge_bases["e1"] in but_one(vertex_bases["u"])
        ambient, sub = vertex_bases["v"], edge_bases["e1"]
        _, den, forms, _ = restriction(ambient, sub)
        inc = coordinates(ambient, sub)
        assert sub not in but_one(ambient)
        assert (den, forms) == (inc[0], tuple(map(tuple, inc[1])))
        assert den != 1 or any(len(form) > 1 for form in forms)
        assert list(equivariant_dims(graph, 6).coeffs) == canonical_dims(graph, 6)


def test_coordinate_graphs_keep_the_canonical_bases():
    # where every incident isotropy is a coordinate hyperplane the canonical
    # basis is taken without elimination: it is the rule's own choice there,
    # and the row an edge's basis leaves out is where its unit normal is 1
    for graph in (builtin_simplex(3), builtin_fiber_join(2, 1)):
        vertex_bases, edge_bases = _adapted_bases(graph)
        assert vertex_bases == {v.id: v.isotropy.rows for v in graph.vertices}
        assert edge_bases == {e.id: e.isotropy.rows for e in graph.edges}
        for v in graph.vertices:
            edges = sorted((e for e in graph.edges if v.id in (e.source, e.target)),
                           key=lambda e: e.id)
            normals = [hyperplane_normal(v.isotropy, e.isotropy) for e in edges]
            assert [edge_bases[e.id] for e in edges] == [
                but_one(v.isotropy.rows)[normal.index(1)] for normal in normals]
            kept, lines = dual_basis(v.isotropy, normals)
            assert kept[:len(edges)] == list(range(len(edges)))
            assert tuple(sorted(lines, reverse=True)) == v.isotropy.rows


def test_normals_only_where_dual_basis_reads_them(monkeypatch):
    # validation decides containment and codimension without normals, and
    # the adapted bases ask for them only at vertices that take dual_basis:
    # none on coordinate graphs, one per incidence on a generic skeleton
    asked = []

    def counted(ambient, subs):
        asked.append(len(subs))
        return hyperplane_normals(ambient, subs)

    monkeypatch.setattr(gkmcore, "hyperplane_normals", counted)
    for graph in (builtin_simplex(3), builtin_fiber_join(2, 1)):
        equivariant_dims(graph, 4)
    assert sum(asked) == 0
    graph = fixture_graph("generic_cube3")
    equivariant_dims(graph, 4)
    assert sum(asked) == 2 * len(graph.edges)


METAMORPHIC = {
    "stiefel": (builtin_stiefel(), 10),
    "generic_simplex4": (fixture_graph("generic_simplex4"), 6),
    "generic_cube3": (fixture_graph("generic_cube3"), 6),
    "fiber_join(2,1)": (builtin_fiber_join(2, 1), 6),
}
REFERENCE = {name: equivariant_dims(g, cutoff) for name, (g, cutoff) in METAMORPHIC.items()}


@st.composite
def relabelled(draw):
    """``(name, graph)``: a graph of ``METAMORPHIC`` under new vertex and edge
    ids, in a new vertex and edge order, with edges reversed at random, in
    new torus coordinates.  The ids set the order in which each vertex
    offers its edges to the adapted basis, so its choice changes."""
    name = draw(st.sampled_from(sorted(METAMORPHIC)))
    graph, _ = METAMORPHIC[name]
    moved = draw(coordinate_changes(graph.rank))
    vids = draw(st.permutations([f"v{i}" for i in range(len(graph.vertices))]))
    eids = draw(st.permutations([f"e{i}" for i in range(len(graph.edges))]))
    vid = {v.id: new for v, new in zip(graph.vertices, vids)}
    vertices = [GkmVertex(vid[v.id], moved(v.isotropy), v.fiber) for v in graph.vertices]
    edges = []
    for e, new in zip(graph.edges, eids):
        ends = ((vid[e.source], e.pullback_source), (vid[e.target], e.pullback_target))
        if draw(st.booleans()):
            ends = ends[::-1]
        (src, p_src), (tgt, p_tgt) = ends
        edges.append(GkmEdge(new, src, tgt, moved(e.isotropy), e.edge_fiber, p_src, p_tgt))
    return name, GkmGraph(
        rank=graph.rank,
        vertices=tuple(draw(st.permutations(vertices))),
        edges=tuple(draw(st.permutations(edges))),
        manifold_dim=graph.manifold_dim,
        bottom_orbit_dim=graph.bottom_orbit_dim,
    )


@settings(max_examples=30, deadline=None)
@given(relabelled())
def test_dims_do_not_depend_on_labels_order_or_coordinates(case):
    name, graph = case
    assert equivariant_dims(graph, METAMORPHIC[name][1]) == REFERENCE[name]
