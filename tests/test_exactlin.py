"""Tests for exact rational linear algebra.

The oracle here is a deliberately naive textbook Gauss-Jordan over
``fractions.Fraction`` (no integer scaling, no pivot strategy); the
library's fraction-free core must agree with it entry for entry.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc.errors import InputShapeError, SubspaceContainmentError
from gkmcalc.exactlin import (
    MatrixQ,
    SubspaceQ,
    canonical_subspace,
    int_row,
    kernel_basis,
    rank_of_rows,
    reduce_int_rows,
    rational_from_json,
    rational_to_json,
    rref,
    subspace_relations,
)
from gkmcalc.symalg import restriction_matrix

from oracles import _scaled_int_rows, subspace_relations_by_reduction
from oracles import reduce_int_rows as dense_reduce_int_rows


def naive_rref(rows):
    """Plain Gauss-Jordan over Fraction: the independent oracle."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def random_matrix(rng, rows, cols, scale=9):
    return [
        [Fraction(rng.randint(-scale, scale), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_int_rows(rng, nrows, ncols, scale=9, density=1.0):
    return [
        [rng.randint(-scale, scale) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def oracle_inputs():
    """``(family, ncols, rows)`` cases for the comparison with the oracle."""
    rng = random.Random(20260808)
    for _ in range(60):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        yield "rational", nc, random_matrix(rng, nr, nc)
    rng = random.Random(123)
    for _ in range(150):
        nr, nc = rng.randint(0, 10), rng.randint(1, 10)
        yield "integer", nc, random_int_rows(rng, nr, nc, density=rng.choice((0.4, 1.0)))
    # rows with two entries, the shape of point-fiber edge constraints
    rng = random.Random(7)
    for _ in range(50):
        nc = rng.randint(4, 40)
        rows = []
        for _ in range(rng.randint(1, 30)):
            row = [0] * nc
            i, j = rng.sample(range(nc), 2)
            row[i], row[j] = rng.randint(1, 5), -rng.randint(1, 5)
            rows.append(row)
        yield "two-entry", nc, rows
    rng = random.Random(9)
    for nr, nc in ((5, 6), (6, 6), (7, 4)):
        rows = random_int_rows(rng, nr, nc, scale=10**30)
        # one dependent row keeps the rank below full
        rows.append([3 * a - 2 * b for a, b in zip(rows[0], rows[1])])
        yield "big", nc, rows


class TestRref:
    def test_scaling_rows(self):
        r, piv = rref(MatrixQ.from_rows([[2, 0], [0, 3]]))
        assert r == MatrixQ.identity(2)
        assert piv == [0, 1]

    def test_dependent_rows(self):
        r, piv = rref(MatrixQ.from_rows([[1, 1], [2, 2]]))
        assert r == MatrixQ.from_rows([[1, 1]])
        assert piv == [0]

    def test_empty_matrix(self):
        r, piv = rref(MatrixQ(0, 3, []))
        assert r.rows == 0 and r.cols == 3
        assert piv == []

    def test_matches_naive_oracle(self):
        for family, nc, rows in oracle_inputs():
            got, gpiv = rref(MatrixQ.from_rows(rows, nc))
            want, wpiv = naive_rref(rows)
            assert gpiv == wpiv, family
            assert got.row_lists() == want, family
            assert rank_of_rows(rows, nc) == len(wpiv), family

    def test_sparse_core_matches_dense_oracle(self):
        for family, nc, rows in oracle_inputs():
            want_rows, want_piv = dense_reduce_int_rows(_scaled_int_rows(rows), nc)
            got_rows, got_piv = reduce_int_rows([int_row(r)[1] for r in rows], nc)
            assert got_piv == want_piv, family
            assert [[row.get(c, 0) for c in range(nc)] for row in got_rows] == want_rows, family
            _, rank_piv = reduce_int_rows([int_row(r)[1] for r in rows], nc, rank_only=True)
            assert rank_piv == want_piv, family

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            m = MatrixQ.from_rows(random_matrix(rng, 5, 7), 7)
            r1, p1 = rref(m)
            r2, p2 = rref(r1)
            assert r1 == r2 and p1 == p2


class TestKernelBasis:
    def test_zero_map(self):
        assert kernel_basis(MatrixQ.zero(1, 2)) == MatrixQ.identity(2)

    def test_injective(self):
        k = kernel_basis(MatrixQ.identity(2))
        assert k.rows == 0 and k.cols == 2

    def test_one_relation(self):
        assert kernel_basis(MatrixQ.from_rows([[1, 1]])) == MatrixQ.from_rows(
            [[1, -1]]
        )

    def test_rank_nullity_and_annihilation_randomized(self):
        rng = random.Random(99)
        for _ in range(40):
            nr = rng.randint(1, 10)
            nc = rng.randint(1, 10)
            m = MatrixQ.from_rows(random_matrix(rng, nr, nc), nc)
            _, piv = rref(m)
            ker = kernel_basis(m)
            assert len(piv) + ker.rows == nc
            for i in range(ker.rows):
                assert not any(m.mul_vector(ker.row(i)))

    def test_rank_nullity_large(self):
        # a 40x40 random rational matrix, the largest size exercised
        rng = random.Random(4040)
        m = MatrixQ.from_rows(random_matrix(rng, 40, 40, scale=5), 40)
        _, piv = rref(m)
        ker = kernel_basis(m)
        assert len(piv) + ker.rows == 40

    def test_kernel_is_rref(self):
        rng = random.Random(3)
        for _ in range(20):
            m = MatrixQ.from_rows(random_matrix(rng, 3, 6), 6)
            ker = kernel_basis(m)
            rr, _ = rref(ker)
            assert rr == ker


@st.composite
def fraction_matrices(draw):
    nr = draw(st.integers(1, 6))
    nc = draw(st.integers(1, 6))
    entries = draw(
        st.lists(
            st.fractions(
                min_value=-20, max_value=20, max_denominator=6
            ),
            min_size=nr * nc,
            max_size=nr * nc,
        )
    )
    return MatrixQ(nr, nc, entries)


@settings(max_examples=60, deadline=None)
@given(fraction_matrices())
def test_rank_nullity_property(m):
    _, piv = rref(m)
    assert len(piv) + kernel_basis(m).rows == m.cols


class TestCanonicalSubspace:
    def test_axes(self):
        s = canonical_subspace([(2, 0), (0, 3)], 2)
        assert s.basis == MatrixQ.identity(2)

    def test_line(self):
        s = canonical_subspace([(1, 1), (2, 2)], 2)
        assert s.basis == MatrixQ.from_rows([[1, 1]])

    def test_zero_subspace(self):
        s = canonical_subspace([], 3)
        assert s.dim == 0 and s.ambient_dim == 3

    def test_dimension_mismatch(self):
        with pytest.raises(InputShapeError):
            canonical_subspace([(1, 0, 0)], 2)

    def test_invariance_under_recombination(self):
        rng = random.Random(1234)
        for _ in range(30):
            dim = rng.randint(1, 5)
            k = rng.randint(1, dim)
            vecs = random_matrix(rng, k, dim)
            base = canonical_subspace(vecs, dim)
            coeffs = invertible_matrix(rng, k)
            mixed = [
                [sum(coeffs[i][l] * vecs[l][j] for l in range(k)) for j in range(dim)]
                for i in range(k)
            ]
            assert canonical_subspace(mixed, dim) == base


def invertible_matrix(rng, k):
    """Random invertible rational k x k matrix (unit upper x unit lower)."""
    upper = [
        [Fraction(1) if i == j else (Fraction(rng.randint(-3, 3)) if j > i else Fraction(0)) for j in range(k)]
        for i in range(k)
    ]
    lower = [
        [Fraction(1) if i == j else (Fraction(rng.randint(-3, 3)) if j < i else Fraction(0)) for j in range(k)]
        for i in range(k)
    ]
    return [
        [sum(upper[i][l] * lower[l][j] for l in range(k)) for j in range(k)]
        for i in range(k)
    ]


class TestSubspaceRelations:
    def test_line_in_plane(self):
        a = canonical_subspace([(1, 0)], 2)
        b = canonical_subspace([(1, 0), (0, 1)], 2)
        rel = subspace_relations(a, b)
        assert rel.b_contains_a and not rel.a_contains_b and not rel.equal

    def test_equal_lines(self):
        a = canonical_subspace([(1, 1)], 2)
        b = canonical_subspace([(2, 2)], 2)
        assert subspace_relations(a, b).equal

    def test_skew_lines(self):
        a = canonical_subspace([(1, 0)], 2)
        b = canonical_subspace([(0, 1)], 2)
        rel = subspace_relations(a, b)
        assert not rel.a_contains_b and not rel.b_contains_a

    def test_ambient_mismatch(self):
        with pytest.raises(InputShapeError):
            subspace_relations(SubspaceQ.zero(2), SubspaceQ.zero(3))

    @settings(max_examples=300, deadline=None)
    @given(
        rng=st.randoms(use_true_random=False),
        n=st.integers(0, 6),
        kind=st.sampled_from(["contained", "equal", "skew", "coordinate", "zero-full"]),
        degree=st.integers(0, 2),
    )
    def test_matches_reduction_oracle(self, rng, n, kind, degree):
        vecs = random_matrix(rng, rng.randint(0, n + 1), n)
        if kind == "contained":
            # random combinations of a's spanning vectors
            other = [
                [sum(rng.randint(-3, 3) * v[j] for v in vecs) for j in range(n)]
                for _ in range(rng.randint(0, len(vecs) + 1))
            ]
        elif kind == "equal":
            coeffs = invertible_matrix(rng, len(vecs))
            other = [
                [sum(c * v[j] for c, v in zip(row, vecs)) for j in range(n)]
                for row in coeffs
            ]
        elif kind == "skew":
            other = random_matrix(rng, rng.randint(0, n + 1), n)
        elif kind == "coordinate":
            axes = [[int(i == j) for j in range(n)] for i in range(n)]
            vecs = rng.sample(axes, rng.randint(0, n))
            other = rng.sample(axes, rng.randint(0, n))
        else:
            other = rng.choice([[], [[int(i == j) for j in range(n)] for i in range(n)]])
        a, b = canonical_subspace(vecs, n), canonical_subspace(other, n)
        if rng.random() < 0.5:
            a, b = b, a
        rel = subspace_relations(a, b)
        want = subspace_relations_by_reduction(a, b)
        assert (rel.a_contains_b, rel.b_contains_a, rel.dim_a, rel.dim_b) == want
        assert rel.equal == (a == b)
        for ambient, sub, inside in ((a, b, want[0]), (b, a, want[1])):
            if inside:
                restriction_matrix(ambient, sub, degree)
            else:
                with pytest.raises(SubspaceContainmentError):
                    restriction_matrix(ambient, sub, degree)


class TestJson:
    def test_rational_round_trip(self):
        for q in [Fraction(3, 2), Fraction(-4), Fraction(0), Fraction(7, 3)]:
            assert rational_from_json(rational_to_json(q)) == q

    def test_integer_stays_bare(self):
        assert rational_to_json(Fraction(-4)) == -4
        assert rational_to_json(Fraction(1, 2)) == "1/2"

    def test_floats_rejected(self):
        with pytest.raises(InputShapeError):
            rational_from_json(0.5)

    def test_matrix_round_trip(self):
        m = MatrixQ.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 5)]])
        assert MatrixQ.from_json(m.to_json()) == m
