"""The face count of ``equivariant_dims`` against the slot path.

Where the graph is point-fibered with identity pullbacks and every edge's
lines in the adapted bases are lines of both its ends, as on a toric
skeleton, ``gkmcore._face_dims`` counts the kernel once per graph from the
faces of its 1-skeleton.  The slot path, ``gkmcore._slot_dims``, which ranks
each degree's constraint system, is kept as its oracle: the face count at
every cutoff must be the slot path's dimensions up to that cutoff, and where
the face count does not apply it says so for every cutoff.
"""

import json
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkmcalc.errors import InputShapeError
from gkmcalc.examples import builtin_simplex
from gkmcalc.exactlin import canonical_subspace
from gkmcalc.gkmcore import (
    GkmEdge,
    GkmGraph,
    GkmVertex,
    _adapted_bases,
    _face_dims,
    _slot_dims,
    equivariant_dims,
    graph_from_json,
    validate_graph,
)
from gkmcalc.toric import polytope_skeleton, simplex_polytope

from oracles import dense_equivariant_dims
from test_adapted import crossed_planes, relabelled
from test_gkmcore import BUILTINS, DATA, coordinate_changes

FACES = ("simplex", "weighted")  # the builtin families that count faces


def faces_against_slots(graph, cutoff):
    """The face count at every cutoff up to ``cutoff``, each against the slot
    path's dimensions in the same bases, or None where it does not apply;
    ``equivariant_dims`` returns the slot path's dimensions either way."""
    bases = _adapted_bases(graph)
    slots = _slot_dims(graph, bases, cutoff)
    assert list(equivariant_dims(graph, cutoff).coeffs) == slots
    faces = [_face_dims(graph, bases, c) for c in range(cutoff + 1)]
    if faces[-1] is None:
        assert faces == [None] * (cutoff + 1)
        return None
    for c, dims in enumerate(faces):
        assert dims == slots[:c + 1], c
    return faces[-1]


FAMILIES = {
    **BUILTINS,
    "simplex(5)": (builtin_simplex, 5),
    **{f"weighted simplex({len(w) - 1})": (lambda w=w: polytope_skeleton(
        simplex_polytope(len(w) - 1, w)),) for w in ((1, 2, 3), (1, 2, 3, 5), (2, 3, 5, 7, 11))},
}


@pytest.mark.parametrize("name", FAMILIES)
def test_builtin_families(name):
    make, *args = FAMILIES[name]
    graph = make(*args)
    assert (faces_against_slots(graph, 12) is not None) == name.startswith(FACES)


def test_data_and_golden_graphs():
    # every valid graph document under tests/data and its CLI golden corpus
    paths = sorted([*DATA.glob("*.json"), *(DATA / "cli_golden").glob("*.graph.json")])
    counted, ranked = [], []
    for path in paths:
        try:
            graph = graph_from_json(json.loads(path.read_text()))
        except InputShapeError:
            continue
        if validate_graph(graph).valid:
            cutoff = 6 if len(graph.edges) > 12 else 10
            (ranked if faces_against_slots(graph, cutoff) is None else counted).append(path.stem)
    assert counted == ["double_edge.graph", "simplex1_dim7.graph", "simplex2_dim7.graph",
                       "simplex2_no_dim.graph", "simplex3.graph", "generic_cube3",
                       "generic_cube4", "generic_cube5", "generic_simplex4"]
    assert len(ranked) == 6, ranked


@pytest.mark.parametrize("k", range(5))
def test_single_vertex_without_edges(k):
    # the kernel is the polynomial ring on Q^k: C(d + k - 1, k - 1) in degree 2d
    rank = max(k, 1)
    space = canonical_subspace([[int(i == j) for j in range(rank)] for i in range(k)], rank)
    graph = GkmGraph(rank, (GkmVertex("p", space),), ())
    want = [0 if m % 2 else comb(m // 2 + k - 1, k - 1) if k else int(m == 0)
            for m in range(15)]
    assert faces_against_slots(graph, 14) == want


def test_edge_with_the_lines_of_one_end_is_ranked():
    # e1 takes u's lines, which v does not have: the slot path ranks it
    graph = crossed_planes()
    vertex_bases, edge_bases = _adapted_bases(graph)
    assert not set(edge_bases["e1"]) <= set(vertex_bases["v"])
    assert faces_against_slots(graph, 6) is None


def test_non_identity_point_pullback_is_ranked():
    # a point pulled back by 2 along one edge of a triangle: the loop scales
    # a constant by 2, so degree 0 is 0, which no face count can give
    doc = builtin_simplex(2).to_json()
    doc["edges"][0].update(edge_fiber={"dims": [[0, 1]]}, pullback_source={"0": [["2"]]},
                           pullback_target={"0": [["1"]]})
    graph = graph_from_json(doc)
    assert faces_against_slots(graph, 8) is None
    assert equivariant_dims(graph, 8).coeffs[0] == 0
    assert list(equivariant_dims(graph, 8).coeffs) == dense_equivariant_dims(graph, 8)


@st.composite
def skeletons(draw):
    """A toric skeleton: a coordinate or weighted simplex in new torus
    coordinates, or the 1-skeleton of a simplex or cube whose facet normals
    are drawn at random, so their lines are in general position."""
    kind = draw(st.sampled_from(("coordinate", "weighted", "simplex", "cube")))
    n = draw(st.integers(1, 4 if kind != "cube" else 3))
    if kind in ("coordinate", "weighted"):
        weights = draw(st.lists(st.integers(1, 5), min_size=n + 1, max_size=n + 1))
        graph = (builtin_simplex(n) if kind == "coordinate"
                 else polytope_skeleton(simplex_polytope(n, weights)))
        moved = draw(coordinate_changes(graph.rank))
        return GkmGraph(graph.rank, tuple(GkmVertex(v.id, moved(v.isotropy))
                                          for v in graph.vertices),
                        tuple(GkmEdge(e.id, e.source, e.target, moved(e.isotropy))
                              for e in graph.edges))
    rank = n + 1
    facets = n + 1 if kind == "simplex" else 2 * n
    normals = [draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
               for _ in range(facets)]
    if kind == "simplex":  # vertex j misses facet j
        vertices = {f"v{j}": {i for i in range(facets) if i != j} for j in range(facets)}
    else:  # a vertex is a sign per axis, on facet 2 * axis or 2 * axis + 1
        vertices = {"".join(map(str, signs)): {2 * a + s for a, s in enumerate(signs)}
                    for signs in ([(c >> a) & 1 for a in range(n)] for c in range(2 ** n))}

    def span(on):
        return canonical_subspace([normals[i] for i in sorted(on)], rank)

    names = sorted(vertices)
    graph = GkmGraph(rank, tuple(GkmVertex(v, span(vertices[v])) for v in names),
                     tuple(GkmEdge(f"{a}|{b}", a, b, span(vertices[a] & vertices[b]))
                           for i, a in enumerate(names) for b in names[i + 1:]
                           if len(vertices[a] & vertices[b]) == n - 1))
    assume(validate_graph(graph).valid)
    return graph


@settings(max_examples=40, deadline=None)
@given(skeletons())
def test_drawn_skeletons_count_faces(graph):
    assert faces_against_slots(graph, 8) is not None


@settings(max_examples=20, deadline=None)
@given(relabelled())
def test_relabelled_graphs(case):
    name, graph = case
    assert (faces_against_slots(graph, 6) is not None) == name.startswith("generic")
