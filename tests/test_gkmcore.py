"""Tests for the GKM graph model, validation and kernel computation."""

import json
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkmcalc.errors import (
    InputShapeError,
    SubspaceContainmentError,
    UnsupportedRingStructureError,
    ValidationError,
)
from gkmcalc.examples import (
    builtin_fiber_join,
    builtin_hirzebruch,
    builtin_simplex,
    builtin_stiefel,
)
from gkmcalc import gkmcore
from gkmcalc.exactlin import MatrixQ, canonical_subspace, vector_to_json
from gkmcalc.gkmcore import (
    EquivariantClass,
    GkmEdge,
    GkmGraph,
    GkmVertex,
    GradedMap,
    GradedVS,
    class_product,
    equivariant_basis,
    equivariant_dims,
    graph_from_json,
    validate_graph,
    _adapted_bases,
    _classes_from_rows,
    _constraint_rows,
    _ends,
    _layout,
    _slot_dims,
    _slots,
)
from gkmcalc.symalg import _graded, restriction, restriction_images
from gkmcalc.toric import polytope_skeleton, simplex_polytope

from oracles import (
    convolve,
    dense_equivariant_basis,
    dense_equivariant_dims,
    dict_constraint_rows,
    edgewise_class_product,
    hirzebruch_equivariant_oracle,
    probing_constraint_rows,
    probing_layout,
    rank_of_rows,
    simplex_equivariant_oracle,
    union_find_equivariant_dims,
)
from test_exactlin import invertible_matrix


def two_vertex_graph(v0_rows, v1_rows, edge_rows, rank=2, **kw):
    return GkmGraph(
        rank=rank,
        vertices=(
            GkmVertex("a", canonical_subspace(v0_rows, rank)),
            GkmVertex("b", canonical_subspace(v1_rows, rank)),
        ),
        edges=(
            GkmEdge("e", "a", "b", canonical_subspace(edge_rows, rank)),
        ),
        **kw,
    )


class TestValidation:
    def test_simplex_graph_valid(self):
        report = validate_graph(builtin_simplex(1))
        assert report.valid
        assert not report.failures

    def test_gkm_condition_violated(self):
        # two parallel edges with the same edge isotropy at both vertices
        g = GkmGraph(
            rank=3,
            vertices=(
                GkmVertex("a", canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)),
                GkmVertex("b", canonical_subspace([(1, 0, 0), (0, 0, 1)], 3)),
            ),
            edges=(
                GkmEdge("e1", "a", "b", canonical_subspace([(1, 0, 0)], 3)),
                GkmEdge("e2", "a", "b", canonical_subspace([(2, 0, 0)], 3)),
            ),
        )
        report = validate_graph(g)
        assert not report.valid
        assert "GKM_CONDITION" in report.failures

    def test_parallel_edges_with_distinct_isotropy_allowed(self):
        g = GkmGraph(
            rank=3,
            vertices=(
                GkmVertex("a", canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)),
                GkmVertex("b", canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)),
            ),
            edges=(
                GkmEdge("e1", "a", "b", canonical_subspace([(1, 0, 0)], 3)),
                GkmEdge("e2", "a", "b", canonical_subspace([(0, 1, 0)], 3)),
            ),
        )
        assert validate_graph(g).valid

    def test_disconnected(self):
        s1 = builtin_simplex(1)
        shifted = GkmGraph(
            rank=2,
            vertices=s1.vertices
            + tuple(
                GkmVertex(v.id + "'", v.isotropy, v.fiber) for v in s1.vertices
            ),
            edges=s1.edges
            + tuple(
                GkmEdge(e.id + "'", e.source + "'", e.target + "'", e.isotropy)
                for e in s1.edges
            ),
        )
        report = validate_graph(shifted)
        assert not report.valid
        assert "DISCONNECTED" in report.failures

    def test_self_loop(self):
        g = GkmGraph(
            rank=2,
            vertices=(GkmVertex("a", canonical_subspace([(1, 0)], 2)),),
            edges=(GkmEdge("loop", "a", "a", canonical_subspace([], 2)),),
        )
        report = validate_graph(g)
        assert not report.valid
        assert "SELF_LOOP" in report.failures

    def test_containment_violation(self):
        # edge isotropy not contained in the second endpoint isotropy: a
        # failure, held on the graph, so revalidating returns the same
        # report, and an error on restriction
        g = two_vertex_graph([(1, 0)], [(0, 1)], [(1, 0)])
        assert validate_graph(g) is validate_graph(g)
        for _ in range(2):
            report = validate_graph(g)
            assert not report.valid
            assert "CONTAINMENT" in report.failures
            assert next(c for c in report.checks if c.name == "CONTAINMENT").detail == (
                "containment/codimension violations at [('e', 'a'), ('e', 'b')]"
            )
        with pytest.raises(SubspaceContainmentError):
            restriction(g.vertex("b").isotropy.rows, g.edges[0].isotropy.rows)
        restriction_images(restriction(g.vertex("a").isotropy.rows, g.edges[0].isotropy.rows),
                           1)

    def test_codimension_violation(self):
        # containment holds but codimension is 2, not 1
        g = GkmGraph(
            rank=3,
            vertices=(
                GkmVertex("a", canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)),
                GkmVertex("b", canonical_subspace([(1, 0, 0), (0, 0, 1)], 3)),
            ),
            edges=(GkmEdge("e", "a", "b", canonical_subspace([], 3)),),
        )
        report = validate_graph(g)
        assert "CONTAINMENT" in report.failures

    def test_unequal_vertex_dimensions(self):
        g = GkmGraph(
            rank=3,
            vertices=(
                GkmVertex("a", canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)),
                GkmVertex("b", canonical_subspace([(1, 0, 0)], 3)),
            ),
            edges=(GkmEdge("e", "a", "b", canonical_subspace([(1, 0, 0)], 3)),),
        )
        report = validate_graph(g)
        assert "ISOTROPY_DIMENSIONS" in report.failures

    def test_unknown_vertex_reference(self):
        with pytest.raises(InputShapeError):
            GkmGraph(
                rank=2,
                vertices=(GkmVertex("a", canonical_subspace([(1, 0)], 2)),),
                edges=(GkmEdge("e", "a", "ghost", canonical_subspace([], 2)),),
            )

    def test_advisory_edge_count(self):
        report = validate_graph(builtin_simplex(2))
        check = next(c for c in report.checks if c.name == "EDGE_COUNT")
        assert check.passed and not check.mandatory

    def test_advisory_edge_count_failure_not_invalidating(self):
        # a segment graph labeled as a 5-manifold: expects 2 edges per vertex
        g = two_vertex_graph(
            [(1, 0)], [(0, 1)], [], manifold_dim=5, bottom_orbit_dim=1
        )
        report = validate_graph(g)
        assert report.valid
        assert not next(c for c in report.checks if c.name == "EDGE_COUNT").passed

    def test_fiber_map_wiring_failure(self):
        sphere = GradedVS.of({0: 1, 2: 1})
        g = GkmGraph(
            rank=2,
            vertices=(
                GkmVertex("a", canonical_subspace([(1, 0)], 2), fiber=sphere),
                GkmVertex("b", canonical_subspace([(0, 1)], 2), fiber=sphere),
            ),
            edges=(
                GkmEdge(
                    "e",
                    "a",
                    "b",
                    canonical_subspace([], 2),
                    edge_fiber=GradedVS.point(),
                    pullback_source=GradedMap.identity(sphere),
                    pullback_target=GradedMap.identity(sphere),
                ),
            ),
        )
        report = validate_graph(g)
        assert not report.valid
        assert "FIBER_MAPS" in report.failures

    def test_invalid_graph_rejected_by_computation(self):
        g = two_vertex_graph([(1, 0)], [(0, 1)], [(1, 0)])
        with pytest.raises(ValidationError):
            equivariant_dims(g, 4)


SIMPLEX1_DIMS = tuple(simplex_equivariant_oracle(1, 12))
SIMPLEX2_DIMS = tuple(simplex_equivariant_oracle(2, 12))


class TestEquivariantDims:
    def test_simplex_1(self):
        assert equivariant_dims(builtin_simplex(1), 12).coeffs == SIMPLEX1_DIMS
        assert SIMPLEX1_DIMS[:6] == (1, 0, 2, 0, 2, 0)

    def test_simplex_2(self):
        assert equivariant_dims(builtin_simplex(2), 12).coeffs == SIMPLEX2_DIMS
        assert SIMPLEX2_DIMS[2::2] == (3, 6, 9, 12, 15, 18)

    def test_single_vertex_line_isotropy(self):
        g = GkmGraph(
            rank=2,
            vertices=(GkmVertex("a", canonical_subspace([(1, 1)], 2)),),
            edges=(),
        )
        dims = equivariant_dims(g, 8)
        assert dims.coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_fiber_join_is_convolution(self):
        base = [c for c in equivariant_dims(builtin_simplex(1), 12).coeffs]
        expected = tuple(convolve(base, [1, 0, 1], 12))
        got = equivariant_dims(builtin_fiber_join(1, 0), 12).coeffs
        assert got == expected
        assert got[:8] == (1, 0, 3, 0, 4, 0, 4, 0)

    def test_hirzebruch_hand_kernel(self):
        expected = tuple(hirzebruch_equivariant_oracle(12))
        for m in (1, 2, 3):
            assert equivariant_dims(builtin_hirzebruch(m), 12).coeffs == expected

    def test_hirzebruch_pullback_scale_free_parameter(self):
        base = equivariant_dims(builtin_hirzebruch(1), 10)
        scaled = equivariant_dims(builtin_hirzebruch(1, pullback_scale=Fraction(3, 2)), 10)
        assert base == scaled

    def test_negative_cutoff(self):
        with pytest.raises(InputShapeError):
            equivariant_dims(builtin_simplex(1), -1)

    def test_cutoff_echoed(self):
        assert equivariant_dims(builtin_simplex(1), 9).cutoff == 9

    def test_odd_degrees_vanish_for_even_fibers(self):
        for g in (builtin_simplex(1), builtin_simplex(2), builtin_stiefel(),
                  builtin_hirzebruch(2), builtin_fiber_join(2, 0)):
            dims = equivariant_dims(g, 13)
            assert all(dims[d] == 0 for d in range(1, 14, 2))

    def test_point_fiber_reduction(self):
        # explicit point fibers with identity pullbacks = plain skeleton
        for n in (1, 2):
            skeleton = builtin_simplex(n)
            pt = GradedVS.point()
            ident = GradedMap.identity(pt)
            dressed = GkmGraph(
                rank=skeleton.rank,
                vertices=tuple(
                    GkmVertex(v.id, v.isotropy, pt) for v in skeleton.vertices
                ),
                edges=tuple(
                    GkmEdge(e.id, e.source, e.target, e.isotropy, pt, ident, ident)
                    for e in skeleton.edges
                ),
            )
            assert equivariant_dims(dressed, 12) == equivariant_dims(skeleton, 12)

    def test_endpoint_without_the_edge_fiber_degree(self):
        # the edge fiber has degree 2 but vertex a's point fiber does not, so
        # only b's block enters the degree-2 fiber rows of the edge
        sphere = GradedVS.of({0: 1, 2: 1})
        pt = GradedVS.point()
        g = GkmGraph(
            rank=2,
            vertices=(
                GkmVertex("a", canonical_subspace([(1, 0)], 2)),
                GkmVertex("b", canonical_subspace([(0, 1)], 2), fiber=sphere),
            ),
            edges=(
                GkmEdge(
                    "e",
                    "a",
                    "b",
                    canonical_subspace([], 2),
                    edge_fiber=sphere,
                    pullback_source=GradedMap.from_json({"0": [[1]]}, pt, sphere),
                    pullback_target=GradedMap.identity(sphere),
                ),
            ),
        )
        dims = equivariant_dims(g, 10).coeffs
        assert dims == (1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3)
        assert list(dims) == dense_equivariant_dims(g, 10)

    def test_basis_recombination_invariance(self):
        rng = random.Random(17)
        g = builtin_simplex(2)
        base = equivariant_dims(g, 8)
        for _ in range(5):
            assert equivariant_dims(recombined(g, rng), 8) == base


def recombined(graph, rng):
    """Rebuild a graph with every isotropy given by a recombined spanning set."""

    def mix(subspace):
        rows = subspace.rows
        k = len(rows)
        if k == 0:
            return subspace
        coeffs = invertible_matrix(rng, k)
        mixed = [
            [
                sum(coeffs[i][l] * rows[l][j] for l in range(k))
                for j in range(subspace.ambient_dim)
            ]
            for i in range(k)
        ]
        return canonical_subspace(mixed, subspace.ambient_dim)

    return GkmGraph(
        rank=graph.rank,
        vertices=tuple(
            GkmVertex(v.id, mix(v.isotropy), v.fiber) for v in graph.vertices
        ),
        edges=tuple(
            GkmEdge(
                e.id, e.source, e.target, mix(e.isotropy),
                e.edge_fiber, e.pullback_source, e.pullback_target,
            )
            for e in graph.edges
        ),
        manifold_dim=graph.manifold_dim,
        bottom_orbit_dim=graph.bottom_orbit_dim,
    )


def class_vector(graph, cls):
    """Flatten a kernel class into layout coordinates (tests only)."""
    blocks, total = _layout(graph, cls.degree)
    vec = [Fraction(0)] * total
    for (vid, d, q), (offset, _, fdim) in blocks.items():
        m = cls.component(vid, d, q)
        if m is None:
            continue
        for i in range(m.rows):
            for j in range(m.cols):
                vec[offset + i * fdim + j] = m.entry(i, j)
    return vec


class TestEquivariantBasis:
    def test_constants_glue(self):
        g = builtin_simplex(1)
        basis = equivariant_basis(g, 0)
        assert len(basis) == 1
        c = basis[0]
        vals = [c.component(v.id, 0, 0).entry(0, 0) for v in g.vertices]
        assert vals[0] == vals[1] != 0

    def test_degree_two_simplex1(self):
        g = builtin_simplex(1)
        basis = equivariant_basis(g, 2)
        assert len(basis) == 2
        # zero edge isotropy leaves positive degrees unconstrained:
        # the RREF kernel basis is supported on one vertex each
        supports = [
            {vid for vid, _, _, _ in cls.components} for cls in basis
        ]
        assert supports == [{"v0"}, {"v1"}]

    def test_odd_degree_empty(self):
        assert equivariant_basis(builtin_simplex(2), 3) == []

    def test_class_json(self):
        [unit] = equivariant_basis(builtin_simplex(1), 0)
        assert unit.to_json() == {
            "degree": 0,
            "components": [
                {"vertex": v, "poly_degree": 0, "fiber_degree": 0, "coefficients": [[1]]}
                for v in ("v0", "v1")
            ],
        }

    def test_basis_matches_dims(self):
        for g in (builtin_simplex(2), builtin_hirzebruch(1), builtin_fiber_join(1, 1)):
            dims = equivariant_dims(g, 6)
            for m in range(7):
                assert len(equivariant_basis(g, m)) == dims[m]

    def test_basis_elements_satisfy_constraints(self):
        from gkmcalc.gkmcore import _constraint_rows, _ends

        g = builtin_stiefel()
        for m in (2, 4):
            blocks, total = _layout(g, m)
            rows = _constraint_rows(g, m, blocks, total, _ends(g))
            for cls in equivariant_basis(g, m):
                vec = class_vector(g, cls)
                assert not any(sum(v * vec[c] for c, v in row.items()) for row in rows)


class TestClassProduct:
    def test_identity_with_constants(self):
        g = builtin_simplex(2)
        one = equivariant_basis(g, 0)[0]
        # normalize: RREF basis starts with leading coefficient 1
        for cls in equivariant_basis(g, 4):
            prod = class_product(g, one, cls)
            assert class_vector(g, prod) == class_vector(g, cls)

    def test_square_on_simplex1(self):
        g = builtin_simplex(1)
        u0 = equivariant_basis(g, 2)[0]
        sq = class_product(g, u0, u0)
        assert sq.degree == 4
        assert {vid for vid, _, _, _ in sq.components} == {"v0"}
        poly = sq.vertex_polynomial(g, "v0")
        assert poly == {(2,): Fraction(1)}

    def test_products_stay_in_kernel(self):
        g = builtin_simplex(2)
        deg2 = equivariant_basis(g, 2)
        kernel4 = [class_vector(g, c) for c in equivariant_basis(g, 4)]
        _, total = _layout(g, 4)
        base_rank = rank_of_rows([list(r) for r in kernel4], total)
        assert base_rank == len(kernel4)
        for x in deg2:
            for y in deg2:
                prod = class_product(g, x, y)
                stacked = [list(r) for r in kernel4] + [class_vector(g, prod)]
                assert rank_of_rows(stacked, total) == base_rank

    def test_nonpoint_fibers_rejected(self):
        g = builtin_fiber_join(1, 0)
        a = equivariant_basis(g, 0)[0]
        with pytest.raises(UnsupportedRingStructureError):
            class_product(g, a, a)

    def test_product_leaving_kernel_rejected(self):
        # a -1 pullback on one edge: the kernel is not closed under the
        # componentwise product (1 of the 9 products of degree-2 basis
        # classes leaves the degree-4 kernel), so every product is refused
        # up front, naming the edge, while dims and bases stay available
        g = builtin_simplex(2)
        minus = GradedMap.from_json({"0": [[-1]]}, GradedVS.point(), GradedVS.point())
        e = g.edges[1]
        flipped = GkmEdge(e.id, e.source, e.target, e.isotropy, e.edge_fiber, minus,
                          e.pullback_target)
        g = GkmGraph(g.rank, g.vertices, (g.edges[0], flipped) + g.edges[2:])
        assert validate_graph(g).valid
        assert list(equivariant_dims(g, 6).coeffs) == dense_equivariant_dims(g, 6)
        for degree in (0, 2, 4):
            assert equivariant_basis(g, degree) == dense_equivariant_basis(g, degree)
        deg2 = equivariant_basis(g, 2)
        named = re.escape(repr(e.id))
        for x in deg2:
            for y in deg2:
                with pytest.raises(UnsupportedRingStructureError, match=named):
                    class_product(g, x, y)

    def test_non_kernel_input_rejected(self):
        g = builtin_simplex(2)
        fake = EquivariantClass(
            2,
            (("v0", 1, 0, MatrixQ.from_rows([[1], [0]])),),
        )
        with pytest.raises(InputShapeError):
            class_product(g, fake, fake)

    @pytest.mark.parametrize("graph_n, a_n, b_n", [(3, 2, 3), (2, 3, 3)],
                             ids=["mixed-on-simplex3", "simplex3-on-simplex2"])
    def test_class_of_another_graph_rejected(self, graph_n, a_n, b_n):
        # degree-2 classes of simplex(2) have 2x1 vertex blocks and those of
        # simplex(3) 3x1 blocks, so the mismatch shows at the first block
        # (at the parent: an IndexError, and a product of truncated columns)
        a = equivariant_basis(builtin_simplex(a_n), 2)[0]
        b = equivariant_basis(builtin_simplex(b_n), 2)[0]
        with pytest.raises(InputShapeError, match=re.escape("('v0', 1, 0)")):
            class_product(builtin_simplex(graph_n), a, b)


class TestGraphJson:
    def test_round_trip_builtins(self):
        for g in (
            builtin_simplex(2),
            builtin_fiber_join(1, 1),
            builtin_hirzebruch(2),
            builtin_stiefel(),
        ):
            assert graph_from_json(json.loads(json.dumps(g.to_json()))) == g

    def test_round_trip_scaled_pullback(self):
        # a degree-2 pullback of 1/2 is not the identity, so the edge writes
        # its fiber and both pullbacks
        g = builtin_hirzebruch(2, "1/2")
        [edge] = g.to_json()["edges"]
        assert edge["edge_fiber"] == {"dims": [[0, 1], [2, 1]]}
        assert edge["pullback_source"] == {"0": [[1]], "2": [[1]]}
        assert edge["pullback_target"] == {"0": [[1]], "2": [["1/2"]]}
        assert graph_from_json(json.loads(json.dumps(g.to_json()))) == g

    def test_point_fiber_defaults(self):
        obj = {
            "rank": 2,
            "vertices": [
                {"id": "a", "isotropy": [[1, 0]]},
                {"id": "b", "isotropy": [[0, 1]]},
            ],
            "edges": [{"id": "e", "source": "a", "target": "b", "isotropy": []}],
        }
        g = graph_from_json(obj)
        assert g.is_point_fibered
        assert g.edges[0].pullback_source.is_identity

    def test_wide_declared_fiber(self):
        # two vertices of fiber dimension d and one edge with defaulted
        # pullbacks: each identity pullback is d unit rows, so the parse is
        # linear in d (10 MB traced at d = 300 when it built d x d matrices)
        obj = json.loads((DATA / "wide_fiber.json").read_text())
        for v in obj["vertices"]:
            v["fiber"]["dims"] = [[0, 300]]
        tracemalloc.start()
        try:
            graph = graph_from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert json.dumps(graph.to_json()) == json.dumps(obj)

    def test_normalized_single_map_form(self):
        # only pullback_target given: edge fiber = source fiber, source id
        obj = {
            "rank": 2,
            "vertices": [
                {"id": "a", "isotropy": [[1, 0]], "fiber": {"dims": [[0, 1], [2, 1]]}},
                {"id": "b", "isotropy": [[0, 1]], "fiber": {"dims": [[0, 1], [2, 1]]}},
            ],
            "edges": [
                {
                    "id": "e",
                    "source": "a",
                    "target": "b",
                    "isotropy": [],
                    "pullback_target": {"0": [[1]], "2": [["5/2"]]},
                }
            ],
        }
        g = graph_from_json(obj)
        e = g.edges[0]
        assert e.edge_fiber == g.vertex("a").fiber
        assert e.pullback_source.is_identity
        assert dict(e.pullback_target.blocks)[2] == ((2, ((0, 5),)),)  # 5/2
        assert validate_graph(g).valid

    def test_rational_isotropy_entries(self):
        obj = {
            "rank": 2,
            "vertices": [{"id": "a", "isotropy": [["1/3", "2/3"]]}],
            "edges": [],
        }
        g = graph_from_json(obj)
        assert g.vertex("a").isotropy == canonical_subspace([(1, 2)], 2)

    def test_bad_rank(self):
        with pytest.raises(InputShapeError):
            graph_from_json({"vertices": [], "edges": []})

    def test_unknown_reference_in_json(self):
        obj = {
            "rank": 2,
            "vertices": [{"id": "a", "isotropy": [[1, 0]]}],
            "edges": [{"id": "e", "source": "a", "target": "zz", "isotropy": []}],
        }
        with pytest.raises(InputShapeError):
            graph_from_json(obj)


class TestGradedTypes:
    def test_graded_vs_drops_zero_dims(self):
        vs = GradedVS.of({0: 1, 1: 0, 2: 3})
        assert vs.degrees() == (0, 2)
        assert vs.total() == 4

    # the int row of the 1x1 identity
    ONE = (1, ((0, 1),))

    def test_graded_map_block_shape_enforced(self):
        sphere = GradedVS.of({0: 1, 2: 1})
        with pytest.raises(InputShapeError):
            GradedMap(sphere, sphere, ((0, (self.ONE, self.ONE)), (2, (self.ONE,))))
        with pytest.raises(InputShapeError, match="ragged"):
            GradedMap.from_json({"0": [[1, 0], [0, 1]], "2": [[1]]}, sphere, sphere)

    def test_graded_map_block_support_enforced(self):
        sphere = GradedVS.of({0: 1, 2: 1})
        with pytest.raises(InputShapeError):
            GradedMap(sphere, sphere, ((0, (self.ONE,)),))

    def test_graded_map_degree_listed_once(self):
        point = GradedVS.point()
        twice = ((0, (self.ONE,)), (0, ((1, ((0, 2),)),)))
        with pytest.raises(InputShapeError):
            GradedMap(point, point, twice)

    def test_graded_map_rows_are_int_rows(self):
        # blocks are int rows in the form of exactlin.is_int_row, so equal
        # maps are equal values; any other row is refused
        vs = GradedVS.of({0: 2})
        from_json = GradedMap.from_json({"0": [[1, 0], [0, 1]]}, vs, vs)
        assert from_json == GradedMap.identity(vs) and from_json.is_identity
        assert hash(from_json) == hash(GradedMap.identity(vs))
        for row in [
            (1, ((0, 0),)),  # a zero entry
            (1, ((2, 1),)), (1, ((-1, 1),)),  # columns out of range
            (1, ((1, 1), (0, 1))), (1, ((0, 1), (0, 1))),  # columns not increasing
            (0, ((0, 1),)), (-1, ((0, 1),)),  # denominators not positive
            (2, ((0, 2),)), (2, ()),  # denominators not least
        ]:
            with pytest.raises(InputShapeError):
                GradedMap(vs, vs, ((0, (row, (1, ((1, 1),)))),))

    def test_graph_is_hashable(self):
        assert hash(builtin_simplex(1)) == hash(builtin_simplex(1))
        assert builtin_simplex(1) == builtin_simplex(1)


# --- the sparse pipeline against the dense oracle -----------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)

DATA = Path(__file__).parent / "data"


def fixture_graph(name):
    """A graph JSON fixture under tests/data: the generic toric skeletons
    ``generic_simplex4`` and ``generic_cube3`` to ``generic_cube5`` are the
    one-skeleta of polytope 0 of ``pipebench/gen.py``'s pools of generic
    simplices and cubes, whose facet normals are in general position."""
    return graph_from_json(json.loads((DATA / f"{name}.json").read_text()))


@st.composite
def coordinate_changes(draw, r):
    """A random invertible change of the torus coordinates of Q^r (unit
    lower x diagonal x unit upper), as the map it induces on subspaces."""
    ints = st.integers(-2, 2)
    lower = [[draw(ints) if j < i else int(i == j) for j in range(r)] for i in range(r)]
    upper = [[draw(ints) if j > i else int(i == j) for j in range(r)] for i in range(r)]
    diag = [draw(small_fractions.filter(bool)) for _ in range(r)]
    change = [
        [sum(lower[i][k] * diag[k] * upper[k][j] for k in range(r)) for j in range(r)]
        for i in range(r)
    ]

    def moved(subspace):
        rows = [
            [sum(row[k] * change[k][j] for k in range(r)) for j in range(r)]
            for row in subspace.rows
        ]
        return canonical_subspace(rows, r)

    return moved


@st.composite
def kernel_graphs(draw, random_pullbacks=True, point_fibered=False):
    """Valid graphs from the builtin families and the generic toric
    skeletons of rank 4 and 5, non-point fibers included (only the
    point-fibered simplex, generic and Stiefel families with
    ``point_fibered``), in random torus coordinates, with random fiber
    pullbacks (unless ``random_pullbacks`` is false), vertex order and edge
    orientations."""
    if point_fibered:
        families = ("simplex", "generic", "stiefel")
    else:
        families = ("simplex", "fiber_join", "hirzebruch", "generic", "stiefel")
    family = draw(st.sampled_from(families))
    if family == "simplex":
        graph = builtin_simplex(draw(st.integers(1, 3)))
    elif family == "fiber_join":
        graph = builtin_fiber_join(draw(st.integers(1, 2)), draw(st.integers(0, 2)))
    elif family == "hirzebruch":
        scale = draw(small_fractions.filter(bool))
        graph = builtin_hirzebruch(draw(st.integers(1, 3)), pullback_scale=scale)
    elif family == "generic":
        graph = fixture_graph(draw(st.sampled_from(("generic_cube3", "generic_simplex4"))))
    else:
        graph = builtin_stiefel()
    r = graph.rank
    moved = draw(coordinate_changes(r))

    def pullback(source, edge_fiber, given_map):
        if not random_pullbacks or not draw(st.booleans()):
            return given_map
        blocks = {}
        for q in sorted(set(source.degrees()) & set(edge_fiber.degrees())):
            rows, cols = edge_fiber.dim(q), source.dim(q)
            entries = draw(st.lists(small_fractions, min_size=rows * cols, max_size=rows * cols))
            blocks[str(q)] = [vector_to_json(entries[i * cols:(i + 1) * cols])
                              for i in range(rows)]
        return GradedMap.from_json(blocks, source, edge_fiber)

    edges = []
    for e in graph.edges:
        src, tgt = graph.vertex(e.source).fiber, graph.vertex(e.target).fiber
        p_src = pullback(src, e.edge_fiber, e.pullback_source)
        p_tgt = pullback(tgt, e.edge_fiber, e.pullback_target)
        ends = ((e.source, p_src), (e.target, p_tgt))
        if draw(st.booleans()):
            ends = ends[::-1]
        (src_id, src_map), (tgt_id, tgt_map) = ends
        edges.append(
            GkmEdge(e.id, src_id, tgt_id, moved(e.isotropy), e.edge_fiber, src_map, tgt_map)
        )
    vertices = [GkmVertex(v.id, moved(v.isotropy), v.fiber) for v in graph.vertices]
    return GkmGraph(
        rank=r,
        vertices=tuple(draw(st.permutations(vertices))),
        edges=tuple(edges),
        manifold_dim=graph.manifold_dim,
        bottom_orbit_dim=graph.bottom_orbit_dim,
    )


@settings(max_examples=40, deadline=None)
@given(kernel_graphs(), st.integers(0, 6))
def test_sparse_kernel_matches_dense_oracle(graph, degree):
    assert list(equivariant_dims(graph, 6).coeffs) == dense_equivariant_dims(graph, 6)
    assert equivariant_basis(graph, degree) == dense_equivariant_basis(graph, degree)


def basis_pair(graph, data):
    """Two kernel basis classes, each of an even degree at most 4 whose
    kernel is not empty, or None when there is no such degree."""
    dims = equivariant_dims(graph, 4)
    degrees = [m for m in (0, 2, 4) if dims[m]]
    if not degrees:
        return None
    return tuple(
        data.draw(st.sampled_from(equivariant_basis(graph, data.draw(st.sampled_from(degrees)))))
        for _ in range(2)
    )


@settings(max_examples=40, deadline=None)
@given(kernel_graphs(random_pullbacks=False, point_fibered=True), st.data())
def test_class_product_matches_edgewise_oracle(graph, data):
    # with identity pullbacks the oracle's edge condition is the kernel's
    pair = basis_pair(graph, data)
    assume(pair)
    a, b = pair
    assert class_product(graph, a, b) == edgewise_class_product(graph, a, b)

    # one entry moved off the kernel: rejected exactly when the oracle
    # rejects it (a product can still land in the kernel)
    blocks, total = _layout(graph, a.degree)
    vec = class_vector(graph, a)
    vec[data.draw(st.integers(0, total - 1))] += data.draw(small_fractions.filter(bool))
    moved = _classes_from_rows([vec], blocks, a.degree)[0]
    try:
        expected = edgewise_class_product(graph, moved, b)
    except InputShapeError:
        with pytest.raises(InputShapeError, match="requires kernel elements"):
            class_product(graph, moved, b)
    else:
        assert class_product(graph, moved, b) == expected


@settings(max_examples=40, deadline=None)
@given(kernel_graphs(point_fibered=True), st.data())
def test_class_product_returns_kernel_classes(graph, data):
    # point-fiber pullbacks may scale or kill an endpoint: products are
    # refused, naming the first such edge, exactly when some pullback is not
    # the identity, and otherwise the product lies in the graph's kernel
    pair = basis_pair(graph, data)
    assume(pair)
    moved = [
        e for e in graph.edges
        if not (e.pullback_source.is_identity and e.pullback_target.is_identity)
    ]
    if moved:
        with pytest.raises(UnsupportedRingStructureError, match=re.escape(repr(moved[0].id))):
            class_product(graph, *pair)
        return
    prod = class_product(graph, *pair)
    kernel = [class_vector(graph, c) for c in equivariant_basis(graph, prod.degree)]
    _, total = _layout(graph, prod.degree)
    assert rank_of_rows(kernel + [class_vector(graph, prod)], total) == len(kernel)


# --- live splits and slot lists against probing and the dict scatter ----------


def assert_assembly_matches_probing(graph, cutoff):
    """Blocks and rows, each row's entries in order, of every degree up to
    the cutoff, in the canonical and in the adapted bases, against the
    layout and the assembly that probe every split and look each edge end
    up again at every degree, and against the scatter into one dict per
    row; and the dimensions against the union-find on those dicts."""
    for bases in (None, _adapted_bases(graph)):
        ends = _ends(graph, bases)
        for m in range(cutoff + 1):
            blocks, total = _layout(graph, m)
            probed, probed_total = probing_layout(graph, m)
            assert (list(blocks.items()), total) == (list(probed.items()), probed_total), m
            rows = _constraint_rows(graph, m, blocks, total, ends)
            expected = probing_constraint_rows(graph, m, blocks, total, bases)
            scattered = dict_constraint_rows(graph, m, blocks, total, ends)
            assert ([list(r.items()) for r in rows] == [list(r.items()) for r in expected]
                    == [list(r.items()) for r in scattered]), m
    assert list(equivariant_dims(graph, cutoff).coeffs) == union_find_equivariant_dims(graph, cutoff)


BUILTINS = {
    **{f"simplex({n})": (builtin_simplex, n) for n in (1, 2, 3, 4)},
    **{f"fiber_join(2,{g})": (builtin_fiber_join, 2, g) for g in (0, 1, 2, 3)},
    "fiber_join(3,3)": (builtin_fiber_join, 3, 3),
    "hirzebruch(1,3)": (builtin_hirzebruch, 1, 3),
    "hirzebruch(2,-1/2)": (builtin_hirzebruch, 2, "-1/2"),
    "hirzebruch(3,2/3)": (builtin_hirzebruch, 3, "2/3"),
    "stiefel": (builtin_stiefel,),
}


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_assembly_matches_probing(name):
    make, *args = BUILTINS[name]
    assert_assembly_matches_probing(make(*args), 9)


def test_data_and_golden_assembly_matches_probing():
    # every valid graph document under tests/data and its CLI golden corpus
    paths = sorted([*DATA.glob("*.json"), *(DATA / "cli_golden").glob("*.graph.json")])
    checked = []
    for path in paths:
        try:
            graph = graph_from_json(json.loads(path.read_text()))
        except InputShapeError:
            continue
        if validate_graph(graph).valid:
            assert_assembly_matches_probing(graph, 6 if len(graph.edges) > 12 else 9)
            checked.append(path.name)
    assert len(checked) == 15, checked


@st.composite
def odd_fiber_graphs(draw):
    """A simplex skeleton in random torus coordinates whose vertices and
    edges carry random graded fibers, vertex ``v0``'s with an odd degree,
    joined by random pullbacks: edge fiber degrees missing at one end or at
    both, and blocks of several rows and columns."""
    graph = builtin_simplex(draw(st.integers(1, 3)))
    moved = draw(coordinate_changes(graph.rank))

    def fiber(odd=False):
        degrees = draw(st.sets(st.integers(0, 5), max_size=3)) | ({draw(st.sampled_from((1, 3, 5)))}
                                                                  if odd else set())
        return GradedVS.of({q: draw(st.integers(1, 2)) for q in degrees})

    def pullback(source, target):
        blocks = {}
        for q in sorted(set(source.degrees()) & set(target.degrees())):
            rows, cols = target.dim(q), source.dim(q)
            blocks[str(q)] = [[str(draw(small_fractions)) for _ in range(cols)]
                              for _ in range(rows)]
        return GradedMap.from_json(blocks, source, target)

    fibers = {v.id: fiber(odd=v.id == "v0") for v in graph.vertices}
    edges = []
    for e in graph.edges:
        edge_fiber = fiber()
        edges.append(GkmEdge(e.id, e.source, e.target, moved(e.isotropy), edge_fiber,
                             pullback(fibers[e.source], edge_fiber),
                             pullback(fibers[e.target], edge_fiber)))
    return GkmGraph(graph.rank, tuple(GkmVertex(v.id, moved(v.isotropy), fibers[v.id])
                                      for v in graph.vertices), tuple(edges))


@settings(max_examples=60, deadline=None)
@given(odd_fiber_graphs())
def test_odd_fiber_assembly_matches_probing(graph):
    assert validate_graph(graph).valid
    assert_assembly_matches_probing(graph, 9)


@pytest.mark.parametrize("name", ["simplex(3)", "fiber_join(2,1)", "hirzebruch(2,-1/2)", "stiefel"])
def test_one_restriction_lookup_per_edge_end(name):
    # each edge end's restriction is resolved once per call and grown
    # through that entry, so no degree looks its pair of bases up again
    make, *args = BUILTINS[name]
    graph = make(*args)
    for call, arg in ((equivariant_dims, 12), (equivariant_basis, 8)):
        before = _graded.cache_info()
        call(graph, arg)
        after = _graded.cache_info()
        assert after.hits + after.misses - before.hits - before.misses <= 2 * len(graph.edges)


# --- slot lists and the rank path they take -----------------------------------


def last_split_widens():
    """simplex(2) with a two-dimensional fiber at v1 whose last edge, v1|v2,
    pulls both of its classes back to one point class: the rows of that
    edge alone have three entries, and in degree 0 the last row is the one
    wide row, with one entry past its slots."""
    doc = builtin_simplex(2).to_json()
    doc["vertices"][1]["fiber"] = {"dims": [[0, 2]]}
    first, _, last = doc["edges"]
    first.update(edge_fiber={"dims": [[0, 2]]}, pullback_source={"0": [[1], [2]]},
                 pullback_target={"0": [[1, 0], [0, 1]]})
    last.update(edge_fiber={"dims": [[0, 1]]}, pullback_source={"0": [[1, 1]]},
                pullback_target={"0": [[1]]})
    return graph_from_json(doc)


def test_only_the_last_split_is_wide():
    graph = last_split_widens()
    ends = _ends(graph, _adapted_bases(graph))
    blocks, total = _layout(graph, 0)
    cols0, _, _, _, wide = _slots(graph, 0, blocks, total, ends)
    assert list(wide) == [len(cols0) - 1] and len(wide[len(cols0) - 1]) == 1
    assert_assembly_matches_probing(graph, 8)


def rank_path_calls(monkeypatch):
    """Counts of the layouts and slot lists built, the dict row lists built
    and the reductions run by ``equivariant_dims`` from here on."""
    calls = {"_layout": 0, "_slots": 0, "_constraint_rows": 0, "reduce_int_rows": 0}

    def counted(name):
        fn = getattr(gkmcore, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(gkmcore, name, counted(name))
    return calls


FACE_COUNT = {
    **{name: BUILTINS[name] for name in BUILTINS if name.startswith("simplex")},
    "weighted simplex(2)": (lambda: polytope_skeleton(simplex_polytope(2, (1, 2, 3))),),
    "weighted simplex(3)": (lambda: polytope_skeleton(simplex_polytope(3, (1, 2, 3, 5))),),
    **{name: (fixture_graph, name)
       for name in ("generic_simplex4", "generic_cube3", "generic_cube4", "generic_cube5")},
    "double_edge": (fixture_graph, "cli_golden/double_edge.graph"),
}
PAIR_SLOTS = {name: BUILTINS[name] for name in BUILTINS
              if name.startswith(("fiber_join", "hirzebruch"))}
TWO_ENTRY = {**FACE_COUNT, **PAIR_SLOTS}


@pytest.mark.parametrize("name", TWO_ENTRY)
def test_toric_and_fiber_join_rank_from_the_slots(name, monkeypatch):
    # every row of a toric skeleton or a fiber join in its adapted bases has
    # at most two entries, so the slot path, which is the face count's
    # oracle on toric skeletons, builds no dict row and runs no reduction
    make, *args = TWO_ENTRY[name]
    graph = make(*args)
    calls = rank_path_calls(monkeypatch)
    assert _slot_dims(graph, _adapted_bases(graph), 8)[0] == 1
    assert calls["_slots"] >= 1
    assert calls["_constraint_rows"] == calls["reduce_int_rows"] == 0


@pytest.mark.parametrize("name", FACE_COUNT)
def test_toric_skeletons_take_the_face_count(name, monkeypatch):
    # every edge's lines are lines of both its ends: no degree is laid out
    make, *args = FACE_COUNT[name]
    graph = make(*args)
    calls = rank_path_calls(monkeypatch)
    assert equivariant_dims(graph, 8).coeffs[0] == 1
    assert calls == {"_layout": 0, "_slots": 0, "_constraint_rows": 0, "reduce_int_rows": 0}


@pytest.mark.parametrize("name", PAIR_SLOTS)
def test_fiber_join_and_hirzebruch_rank_from_the_slots(name, monkeypatch):
    # fibers or pullbacks that are not points: each degree's slots are
    # ranked, every row of at most two entries, so no dict row is built
    make, *args = PAIR_SLOTS[name]
    graph = make(*args)
    calls = rank_path_calls(monkeypatch)
    assert equivariant_dims(graph, 8).coeffs[0] == 1
    assert calls["_slots"] >= 1
    assert calls["_constraint_rows"] == calls["reduce_int_rows"] == 0


@pytest.mark.parametrize("make", [builtin_stiefel, last_split_widens])
def test_wide_degrees_take_the_fallback(make, monkeypatch):
    graph = make()
    calls = rank_path_calls(monkeypatch)
    equivariant_dims(graph, 8)
    assert calls["_slots"] >= 1
    assert calls["_constraint_rows"] == calls["reduce_int_rows"] >= 1
