"""Tests for degree series arithmetic and the series-level theorems."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from gkmcalc.errors import (
    FormalityViolation,
    GysinInconsistency,
    InputShapeError,
)
from gkmcalc.examples import (
    builtin_fiber_join,
    builtin_hirzebruch,
    builtin_simplex,
)
from gkmcalc.exactlin import MatrixQ
from gkmcalc.gkmcore import equivariant_dims, graph_from_json
from gkmcalc.series import (
    DegreeSeries,
    GysinData,
    MorseBottData,
    basic_from_equivariant,
    default_cutoff,
    free_hilbert,
    gysin_betti,
    morse_bott_assemble,
    run_checks,
    stanley_reisner_hilbert,
)

from oracles import (
    boundary_simplex_faces,
    face_ring_dims_by_enumeration,
    gysin_rank_nullity_oracle,
    is_zero,
    square_faces,
)

DATA = Path(__file__).parent / "data"


def fiber_degree4_vertex():
    return graph_from_json(json.loads((DATA / "fiber_degree4_vertex.json").read_text()))


class TestDegreeSeries:
    def test_cutoff(self):
        s = DegreeSeries((1, 0, 2))
        assert s.cutoff == 2 and s[2] == 2

    def test_from_coeffs_pads(self):
        assert DegreeSeries.from_coeffs([1, 2], cutoff=4).coeffs == (1, 2, 0, 0, 0)

    def test_add_truncates_to_common_cutoff(self):
        a = DegreeSeries((1, 1, 1, 1))
        b = DegreeSeries((1, 0))
        assert a.add(b).coeffs == (2, 1)

    def test_mul_polynomial_keeps_cutoff(self):
        s = DegreeSeries((1, 0, 1, 0, 1)).mul_polynomial([1, 0, -1])
        assert s.coeffs == (1, 0, 0, 0, 0)

    def test_shift(self):
        assert DegreeSeries((1, 2, 3)).shift(2).coeffs == (0, 0, 1)

    def test_truncate_cannot_extend(self):
        with pytest.raises(InputShapeError):
            DegreeSeries((1,)).truncate(3)

    def test_json_round_trip(self):
        s = DegreeSeries((1, 0, 3, 0))
        assert DegreeSeries.from_json(s.to_json()) == s

    def test_json_mismatched_cutoff(self):
        with pytest.raises(InputShapeError):
            DegreeSeries.from_json({"cutoff": 5, "coeffs": [1, 2]})

    def test_non_integer_rejected(self):
        with pytest.raises(InputShapeError):
            DegreeSeries((1, 0.5))


class TestFreeHilbert:
    def test_one_variable(self):
        assert free_hilbert(1, 7).coeffs == (1, 0, 1, 0, 1, 0, 1, 0)

    def test_two_variables(self):
        s = free_hilbert(2, 10)
        assert all(s[2 * d] == d + 1 for d in range(6))

    def test_zero_variables(self):
        assert free_hilbert(0, 4).coeffs == (1, 0, 0, 0, 0)


class TestBasicFromEquivariant:
    def test_sphere_rank_2(self):
        eq = DegreeSeries.from_coeffs([1, 0] + [2, 0] * 6, cutoff=12)
        report = basic_from_equivariant(eq, 2)
        basic = report.series
        assert basic.coeffs[:4] == (1, 0, 1, 0)
        assert basic.total() == 2
        assert report.is_polynomial

    def test_sphere_rank_3(self):
        coeffs = [0] * 13
        for d in range(7):
            coeffs[2 * d] = 3 * d if d else 1
        eq = DegreeSeries(tuple(coeffs))
        report = basic_from_equivariant(eq, 3)
        basic = report.series
        assert basic.coeffs == (1, 0, 1, 0, 1) + (0,) * 8
        assert report.total == 3

    def test_hirzebruch(self):
        eq = equivariant_dims(builtin_hirzebruch(1), 12)
        report = basic_from_equivariant(eq, 2)
        basic = report.series
        assert basic.coeffs == (1, 0, 2, 0, 1) + (0,) * 8
        assert report.total == 4

    def test_formality_violation(self):
        eq = DegreeSeries((1, 0, 0, 0, 0))
        with pytest.raises(FormalityViolation):
            basic_from_equivariant(eq, 2)

    def test_rank_one_is_identity(self):
        eq = DegreeSeries((1, 0, 2, 0))
        basic = basic_from_equivariant(eq, 1).series
        assert basic == eq

    def test_inconclusive_at_small_cutoff(self):
        eq = equivariant_dims(builtin_simplex(2), 4)
        report = basic_from_equivariant(eq, 3)
        assert not report.is_polynomial

    def test_cutoff_is_not_an_argument(self):
        # the cutoff is the series' own; an old positional one is refused
        with pytest.raises(TypeError):
            basic_from_equivariant(DegreeSeries((1, 0, 1, 0, 0)), 2, 4)

    @pytest.mark.parametrize("cutoff, polynomial", [(3, False), (4, False), (5, False),
                                                     (6, True), (8, True)])
    def test_trailing_zeros_below_the_top_fiber_degree(self, cutoff, polynomial):
        # one vertex over a rank-1 torus, its one class in degree 4: the
        # zeros of degrees 0..3 are no end of the series, and the verdict
        # waits for a cutoff of top fiber degree + 2
        graph = fiber_degree4_vertex()
        assert graph.top_fiber_degree == 4
        report = basic_from_equivariant(equivariant_dims(graph, cutoff), 1,
                                        top_fiber_degree=graph.top_fiber_degree)
        assert report.is_polynomial == polynomial
        assert report.total == (cutoff >= 4)

    def test_division_inverts_multiplication(self):
        rng = random.Random(8)
        for _ in range(20):
            k = rng.randint(0, 3)
            poly = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
            poly[0] = max(poly[0], 1)
            cutoff = 16
            eq = free_hilbert(k, cutoff).mul_polynomial(poly)
            back = basic_from_equivariant(eq, k + 1).series
            expected = DegreeSeries.from_coeffs(poly, cutoff=cutoff)
            assert back == expected


class TestMorseBott:
    def test_unit_components(self):
        data = MorseBottData.of([(0, DegreeSeries((1,))), (2, DegreeSeries((1,))),
                                 (4, DegreeSeries((1,)))])
        assert morse_bott_assemble(data, 8).coeffs == (1, 0, 1, 0, 1, 0, 0, 0, 0)

    def test_two_sphere_components(self):
        sphere = DegreeSeries((1, 0, 1))
        data = MorseBottData.of([(0, sphere), (2, sphere)])
        assert morse_bott_assemble(data, 6).coeffs == (1, 0, 2, 0, 1, 0, 0)

    def test_single_component(self):
        data = MorseBottData.of([(0, DegreeSeries((1,)))])
        assert morse_bott_assemble(data, 3).coeffs == (1, 0, 0, 0)

    def test_index_beyond_cutoff(self):
        # the shift of each component stays within the cutoff, however
        # large its index
        data = MorseBottData.of([(10**12, DegreeSeries((1,))), (0, DegreeSeries((1, 0, 1))),
                                 (4, DegreeSeries((1, 0, 1)))])
        assert morse_bott_assemble(data, 10).coeffs == (1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0)

    def test_odd_index_rejected(self):
        data = MorseBottData.of([(1, DegreeSeries((1,)))])
        with pytest.raises(InputShapeError):
            morse_bott_assemble(data, 4)

    def test_additive_over_disjoint_unions(self):
        rng = random.Random(14)
        comps = [
            (2 * rng.randint(0, 3), DegreeSeries(tuple(rng.randint(0, 3) for _ in range(4))))
            for _ in range(6)
        ]
        whole = morse_bott_assemble(MorseBottData.of(comps), 10)
        left = morse_bott_assemble(MorseBottData.of(comps[:3]), 10)
        right = morse_bott_assemble(MorseBottData.of(comps[3:]), 10)
        assert whole == left.add(right)

    def test_json_round_trip(self):
        data = MorseBottData.of([(0, DegreeSeries((1, 0, 1))), (2, DegreeSeries((1,)))])
        assert MorseBottData.from_json(data.to_json()) == data


class TestGysin:
    def test_three_sphere(self):
        data = GysinData((1, 1), (MatrixQ.identity(1),))
        assert gysin_betti(data) == (1, 0, 0, 1)

    def test_seven_sphere(self):
        assert gysin_betti(GysinData.minimal(3)) == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_five_manifold_mixed(self):
        cases = [
            (
                GysinData(
                    (1, 2, 1),
                    (MatrixQ.from_rows([[1], [0]]), MatrixQ.from_rows([[1, 0]])),
                ),
                (1, 1),
                (1, 0, 1, 1, 0, 1),
            ),
            # a zero basic dimension makes both Euler maps empty (0x1, 1x0)
            (
                GysinData((1, 0, 1), (MatrixQ(0, 1, []), MatrixQ(1, 0, []))),
                (0, 0),
                (1, 1, 0, 0, 1, 1),
            ),
        ]
        for data, ranks, expected in cases:
            assert gysin_betti(data) == expected
            assert gysin_betti(data) == gysin_rank_nullity_oracle(data.basic_dims, ranks)

    def test_shape_mismatch(self):
        # a 1x1 map into a 2-dimensional degree, and no degree 0 at all
        for data in (GysinData((1, 2), (MatrixQ.identity(1),)), GysinData((), ())):
            with pytest.raises(InputShapeError):
                gysin_betti(data)

    def test_top_degree_must_die(self):
        data = GysinData((1, 1), (MatrixQ.identity(1), MatrixQ.identity(1)))
        with pytest.raises(GysinInconsistency):
            gysin_betti(data)

    def test_b1_zero_when_euler_nonzero(self):
        rng = random.Random(2)
        for _ in range(10):
            d1 = rng.randint(1, 3)
            m = MatrixQ.from_rows(
                [[rng.randint(0, 2) for _ in range(1)] for _ in range(d1)], 1
            )
            if is_zero(m):
                continue
            data = GysinData((1, d1), (m,))
            betti = gysin_betti(data)
            assert betti[0] == 1 and betti[1] == 0

    def test_json_round_trip(self):
        data = GysinData(
            (1, 2, 1),
            (MatrixQ.from_rows([[1], [0]]), MatrixQ.from_rows([[1, 0]])),
        )
        assert GysinData.from_json(data.to_json()) == data


class TestStanleyReisner:
    def test_boundary_segment(self):
        faces = [frozenset(), frozenset({0}), frozenset({1})]
        s = stanley_reisner_hilbert(faces, 8)
        assert s.coeffs == (1, 0, 2, 0, 2, 0, 2, 0, 2)

    def test_boundary_triangle(self):
        s = stanley_reisner_hilbert(boundary_simplex_faces(2), 10)
        assert s.coeffs[::2] == (1, 3, 6, 9, 12, 15)

    def test_single_vertex(self):
        s = stanley_reisner_hilbert([frozenset(), frozenset({0})], 6)
        assert s.coeffs == (1, 0, 1, 0, 1, 0, 1)

    def test_not_closed_under_subsets(self):
        with pytest.raises(InputShapeError):
            stanley_reisner_hilbert([frozenset(), frozenset({0, 1})], 4)

    def test_missing_empty_face(self):
        with pytest.raises(InputShapeError):
            stanley_reisner_hilbert([frozenset({0})], 4)

    def test_matches_enumeration_oracle(self):
        cases = [
            (boundary_simplex_faces(1), 2),
            (boundary_simplex_faces(2), 3),
            (boundary_simplex_faces(3), 4),
            (square_faces(), 4),
        ]
        for faces, n_vars in cases:
            got = stanley_reisner_hilbert(faces, 12)
            poly_dims = face_ring_dims_by_enumeration(faces, n_vars, 6)
            for d in range(7):
                assert got[2 * d] == poly_dims[d]
                if 2 * d + 1 <= 12:
                    assert got[2 * d + 1] == 0


class TestRunChecks:
    def test_simplex_minimal(self):
        report = run_checks(builtin_simplex(2), 12)
        assert not report.failed
        assert report.minimal
        assert {c.name for c in report.checks} == {
            "odd_basic_vanishing",
            "orbit_space_dimension",
            "closed_orbit_lower_bound",
            "minimal_orbit_count",
        }

    def test_fiber_join_counts(self):
        report = run_checks(builtin_fiber_join(1, 1), 12)
        assert not report.failed
        assert not report.minimal
        assert report.basic.total == 8
        odd = report.to_json()["checks"][0]
        assert odd["name"] == "odd_basic_vanishing" and odd["status"] == "skipped"

    def test_hirzebruch_checks(self):
        report = run_checks(builtin_hirzebruch(2), 12)
        assert not report.failed
        assert report.basic.total == 4
        assert not report.minimal
        lower = next(c for c in report.checks if c.name == "closed_orbit_lower_bound")
        assert lower.status == "pass"

    def test_inconclusive_at_tiny_cutoff(self):
        report = run_checks(builtin_simplex(2), 4)
        assert report.inconclusive
        assert not report.failed

    @pytest.mark.parametrize("graph, cutoff, lower, minimal", [
        (dataclasses.replace(builtin_simplex(2), manifold_dim=None), 12, "skipped", "skipped"),
        # 2 closed orbits, where a 7-manifold has at least 4
        (dataclasses.replace(builtin_simplex(1), manifold_dim=7), 10, "fail", "fail"),
        (dataclasses.replace(builtin_simplex(1), manifold_dim=7), 2,
         "inconclusive", "inconclusive"),
        # total 4 = n+1, but the series is 1 + 2t^2 + t^4
        (dataclasses.replace(builtin_fiber_join(1, 0), manifold_dim=7), 12, "pass", "fail"),
    ])
    def test_orbit_count_outcomes(self, graph, cutoff, lower, minimal):
        report = run_checks(graph, cutoff)
        status = {c.name: c.status for c in report.checks}
        assert status["closed_orbit_lower_bound"] == lower
        assert status["minimal_orbit_count"] == minimal
        assert report.failed == ("fail" in (lower, minimal))
        assert not report.minimal

    @pytest.mark.parametrize("cutoff, orbit_space", [(3, "inconclusive"), (6, "pass")])
    def test_fiber_above_the_cutoff_is_inconclusive(self, cutoff, orbit_space):
        # at cutoff 3 the basic series is 0 + 0t + 0t^2 + 0t^3 with the
        # fiber class still above it: no false orbit_space_dimension fail
        report = run_checks(fiber_degree4_vertex(), cutoff)
        status = {c.name: c.status for c in report.checks}
        assert status["orbit_space_dimension"] == orbit_space
        assert report.basic.verdict == ("polynomial up to cutoff" if cutoff == 6
                                        else "inconclusive at cutoff")
        assert not report.failed

    def test_even_manifold_dim_rejected_before_the_kernel(self, monkeypatch):
        import gkmcalc.gkmcore

        def kernel_must_not_run(*args):
            raise AssertionError("equivariant_dims ran before the input check")

        monkeypatch.setattr(gkmcalc.gkmcore, "equivariant_dims", kernel_must_not_run)
        graph = dataclasses.replace(builtin_simplex(2), manifold_dim=6)
        with pytest.raises(InputShapeError, match="manifold_dim must be odd"):
            run_checks(graph, 12)


def test_default_cutoff():
    assert default_cutoff(2) == 20
    assert default_cutoff(9) == 22


def test_simplex_growth_closed_form():
    # beyond polynomial degree n the equivariant dimensions follow the
    # degree-(n-1) polynomial C(d+n, n) - C(d-1, n): total monomials minus
    # those divisible by the full product of variables
    from math import comb

    for n in (1, 2, 3):
        dims = equivariant_dims(builtin_simplex(n), 20)
        for d in range(n + 1, 11):
            assert dims[2 * d] == comb(d + n, n) - comb(d - 1, n)
