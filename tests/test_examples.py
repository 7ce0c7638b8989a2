"""Tests for the builtin example generators."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gkmcalc.errors import InputShapeError
from gkmcalc.examples import (
    builtin_fiber_join,
    builtin_hirzebruch,
    builtin_simplex,
    builtin_stiefel,
    surface_cohomology,
)
from gkmcalc.gkmcore import equivariant_dims, validate_graph
from gkmcalc.series import GysinData, basic_from_equivariant, gysin_betti, run_checks

from oracles import convolve, simplex_equivariant_oracle


def load_derivation_module():
    path = Path(__file__).resolve().parent.parent / "scripts" / "derive_stiefel_graph.py"
    spec = importlib.util.spec_from_file_location("derive_stiefel_graph", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestSimplex:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shape(self, n):
        g = builtin_simplex(n)
        assert len(g.vertices) == n + 1
        assert len(g.edges) == n * (n + 1) // 2
        assert g.rank == n + 1
        assert g.manifold_dim == 2 * n + 1

    def test_validates_including_advisory(self):
        for n in (1, 2, 3):
            report = validate_graph(builtin_simplex(n))
            assert report.valid
            assert all(c.passed for c in report.checks)

    def test_coordinate_isotropies(self):
        g = builtin_simplex(2)
        # vertex v1 carries {x_1 = 0}
        assert g.vertex("v1").isotropy.rows == ((1, 0, 0), (0, 0, 1))

    def test_n3_minimal_checks(self):
        report = run_checks(builtin_simplex(3), 20)
        assert not report.failed
        assert report.minimal

    def test_n_below_one(self):
        with pytest.raises(InputShapeError):
            builtin_simplex(0)


class TestFiberJoin:
    def test_surface_cohomology(self):
        assert surface_cohomology(0).dims == ((0, 1), (2, 1))
        assert surface_cohomology(2).dims == ((0, 1), (1, 4), (2, 1))

    @pytest.mark.parametrize("n,genus", [(1, 0), (1, 1), (2, 0)])
    def test_convolution_identity(self, n, genus):
        base = list(equivariant_dims(builtin_simplex(n), 14).coeffs)
        expected = tuple(convolve(base, [1, 2 * genus, 1], 14))
        assert equivariant_dims(builtin_fiber_join(n, genus), 14).coeffs == expected

    def test_genus_zero_is_even_convolution(self):
        base = simplex_equivariant_oracle(2, 14)
        got = equivariant_dims(builtin_fiber_join(2, 0), 14)
        assert list(got.coeffs) == convolve(base, [1, 0, 1], 14)

    def test_odd_degrees_appear_with_genus(self):
        dims = equivariant_dims(builtin_fiber_join(1, 1), 8)
        assert dims[1] > 0

    def test_bad_params(self):
        with pytest.raises(InputShapeError):
            builtin_fiber_join(0, 0)
        with pytest.raises(InputShapeError):
            builtin_fiber_join(1, -1)


class TestHirzebruch:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equivariant_dims(self, m):
        dims = equivariant_dims(builtin_hirzebruch(m), 12)
        assert dims.coeffs == (1, 0, 3, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4)

    def test_basic_polynomial(self):
        dims = equivariant_dims(builtin_hirzebruch(2), 12)
        report = basic_from_equivariant(dims, 2)
        basic = report.series
        assert basic.coeffs[:6] == (1, 0, 2, 0, 1, 0)
        assert report.total == 4

    def test_vertex_names_carry_euler_numbers(self):
        g = builtin_hirzebruch(3)
        assert {v.id for v in g.vertices} == {"L(3,1)", "L(6,1)"}

    def test_gysin_betti(self):
        data = GysinData((1, 2, 1), (((1, ((0, 1),)), (1, ())), ((1, ((0, 1),)),)))
        assert gysin_betti(data) == (1, 0, 1, 1, 0, 1)

    def test_m_below_one(self):
        with pytest.raises(InputShapeError):
            builtin_hirzebruch(0)


class TestStiefel:
    def test_four_vertices(self):
        g = builtin_stiefel()
        assert len(g.vertices) == 4
        assert len(g.edges) == 6
        assert g.manifold_dim == 7

    def test_validates_including_advisory(self):
        report = validate_graph(builtin_stiefel())
        assert report.valid
        assert all(c.passed for c in report.checks)

    def test_basic_polynomial_gate(self):
        dims = equivariant_dims(builtin_stiefel(), 16)
        report = basic_from_equivariant(dims, 3)
        basic = report.series
        assert basic.coeffs[:8] == (1, 0, 1, 0, 1, 0, 1, 0)
        assert report.total == 4
        assert report.is_polynomial

    def test_gysin_cohomology_seven_sphere(self):
        assert gysin_betti(GysinData.minimal(3)) == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_frozen_constant_matches_derivation(self):
        module = load_derivation_module()
        assert module.derive_graph() == builtin_stiefel()
