"""Tests for moment polytopes and skeleton extraction."""

import json
import random
from fractions import Fraction

import pytest

from gkmcalc.errors import InputShapeError, IsotropyRankError, SimplicityError, ValidationError
from gkmcalc.examples import builtin_simplex
from gkmcalc.gkmcore import equivariant_dims, validate_graph
from gkmcalc.series import basic_from_equivariant
from gkmcalc.toric import (
    MomentPolytope,
    PolytopeFacet,
    PolytopeVertex,
    polytope_skeleton,
    simplex_polytope,
)

from test_cli import DIGIT_LIMIT, run_cli, triangle


def square_polytope():
    """A square in a hyperplane of Q^3 with generic facet normals."""
    verts = [
        PolytopeVertex("p0", (Fraction(0), Fraction(0), Fraction(1))),
        PolytopeVertex("p1", (Fraction(1), Fraction(0), Fraction(1))),
        PolytopeVertex("p2", (Fraction(1), Fraction(1), Fraction(1))),
        PolytopeVertex("p3", (Fraction(0), Fraction(1), Fraction(1))),
    ]
    # one normal per side; adjacent pairs independent
    facets = [
        PolytopeFacet((Fraction(0), Fraction(1), Fraction(0)), ("p0", "p1")),
        PolytopeFacet((Fraction(1), Fraction(0), Fraction(1)), ("p1", "p2")),
        PolytopeFacet((Fraction(0), Fraction(1), Fraction(2)), ("p2", "p3")),
        PolytopeFacet((Fraction(1), Fraction(0), Fraction(0)), ("p3", "p0")),
    ]
    return MomentPolytope(3, tuple(verts), tuple(facets))


class TestSimplexPolytope:
    def test_segment(self):
        p = simplex_polytope(1, (1, 1))
        assert [v.coords for v in p.vertices] == [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ]

    def test_standard_triangle(self):
        p = simplex_polytope(2, (1, 1, 1))
        assert len(p.vertices) == 3 and len(p.facets) == 3
        for j, f in enumerate(p.facets):
            assert f"v{j}" not in f.vertices

    def test_weights_scale_vertices(self):
        p = simplex_polytope(2, (1, 2, 3))
        assert p.vertices[2].coords == (Fraction(0), Fraction(0), Fraction(1, 3))

    def test_nonpositive_weight(self):
        with pytest.raises(InputShapeError):
            simplex_polytope(2, (1, 0, 1))

    def test_wrong_weight_count(self):
        with pytest.raises(InputShapeError):
            simplex_polytope(2, (1, 1))


class TestPolytopeSkeleton:
    def test_simplex_matches_builtin(self):
        for n in range(1, 5):
            skel = polytope_skeleton(simplex_polytope(n, (1,) * (n + 1)))
            assert skel == builtin_simplex(n)

    def test_weights_do_not_change_skeleton(self):
        rng = random.Random(42)
        for n in range(1, 5):
            weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            skel = polytope_skeleton(simplex_polytope(n, weights))
            assert skel == builtin_simplex(n)

    def test_segment_zero_edge_isotropy(self):
        skel = polytope_skeleton(simplex_polytope(1, (1, 2)))
        assert len(skel.vertices) == 2
        assert len(skel.edges) == 1
        assert skel.edges[0].isotropy.dim == 0

    def test_square_gives_four_cycle(self):
        skel = polytope_skeleton(square_polytope())
        assert len(skel.vertices) == 4
        assert len(skel.edges) == 4
        degree = {v.id: 0 for v in skel.vertices}
        for e in skel.edges:
            degree[e.source] += 1
            degree[e.target] += 1
        assert set(degree.values()) == {2}
        report = validate_graph(skel)
        assert report.valid
        assert next(c for c in report.checks if c.name == "EDGE_COUNT").passed

    def test_square_vertex_count_equals_basic_total(self):
        skel = polytope_skeleton(square_polytope())
        dims = equivariant_dims(skel, 14)
        report = basic_from_equivariant(dims, skel.rank)
        basic = report.series
        assert report.is_polynomial
        assert basic.total() == len(skel.vertices)

    def test_advisory_clean_with_metadata(self):
        for n in (1, 2, 3):
            skel = polytope_skeleton(simplex_polytope(n, (1,) * (n + 1)))
            assert skel.manifold_dim == 2 * n + 1
            report = validate_graph(skel)
            assert report.valid
            assert all(c.passed for c in report.checks)

    def test_non_simple_rejected(self):
        p = simplex_polytope(2, (1, 1, 1))
        # drop one incidence: vertex v2 now lies on a single facet
        facets = list(p.facets)
        facets[0] = PolytopeFacet(facets[0].normal, ("v1",))
        broken = MomentPolytope(p.rank, p.vertices, tuple(facets))
        with pytest.raises(SimplicityError):
            polytope_skeleton(broken)

    def test_degenerate_normals_rejected(self):
        p = simplex_polytope(2, (1, 1, 1))
        facets = list(p.facets)
        # facet 1 duplicates facet 0's normal: vertex v2 sees a 1-dim span
        facets[1] = PolytopeFacet(facets[0].normal, facets[1].vertices)
        broken = MomentPolytope(p.rank, p.vertices, tuple(facets))
        with pytest.raises(IsotropyRankError):
            polytope_skeleton(broken)

    def test_disconnected_skeleton_rejected(self, capsys, monkeypatch):
        # two disjoint triangles: a simple incidence whose skeleton fails
        # graph validation, in the library and at the command line
        p = simplex_polytope(2, (1, 1, 1))
        twin = tuple(PolytopeVertex("w" + v.id, v.coords) for v in p.vertices)
        facets = p.facets + tuple(
            PolytopeFacet(f.normal, tuple("w" + vid for vid in f.vertices)) for f in p.facets
        )
        two = MomentPolytope(p.rank, p.vertices + twin, facets)
        with pytest.raises(ValidationError) as info:
            polytope_skeleton(two)
        assert info.value.report.failures == ("DISCONNECTED",)
        code, out, err = run_cli(
            capsys, "toric-skeleton", "-", stdin=json.dumps(two.to_json()),
            monkeypatch=monkeypatch,
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "DISCONNECTED" in err
        assert "Traceback" not in err

    def test_unknown_vertex_in_facet(self):
        with pytest.raises(InputShapeError):
            MomentPolytope(
                2,
                (PolytopeVertex("a", (Fraction(1), Fraction(0))),),
                (PolytopeFacet((Fraction(1), Fraction(0)), ("zz",)),),
            )


class TestPolytopeJson:
    def test_round_trip(self):
        p = simplex_polytope(2, (1, 2, 3))
        assert MomentPolytope.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_missing_rank(self):
        with pytest.raises(InputShapeError):
            MomentPolytope.from_json({"vertices": [], "facets": []})


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 2 * 2385,
                    reason="needs an int/str digit limit below the square of B")
def test_skeleton_entry_past_the_digit_limit_is_an_input_error(capsys, monkeypatch):
    # B has 2,386 digits, and the skeleton of the triangle has an integer
    # isotropy entry of about B**2: to_json refuses it with InputShapeError,
    # as it does a p/q past the limit, instead of returning an int that
    # json.dumps rejects later with a plain ValueError; the CLI exits 1
    b = int("7" * 2386)
    text = triangle([[1, -b, 0], [0, 1, -b], [0, 0, 1]])
    skeleton = polytope_skeleton(MomentPolytope.from_json(json.loads(text)))
    with pytest.raises(InputShapeError, match="limit"):
        skeleton.to_json()
    code, _, err = run_cli(capsys, "toric-skeleton", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 1 and err.startswith("error:") and "limit" in err
