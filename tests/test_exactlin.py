"""Tests for exact rational linear algebra.

The oracle here is a deliberately naive textbook Gauss-Jordan over
``fractions.Fraction`` (``oracles.naive_rref``: no integer scaling, no
pivot strategy); the library's fraction-free core must agree with it entry
for entry.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc.errors import InputShapeError, SubspaceContainmentError
from gkmcalc.examples import builtin_hirzebruch
from gkmcalc.exactlin import (
    MatrixQ,
    canonical_subspace,
    coordinates,
    contained,
    dual_basis,
    hyperplane_normals,
    int_row,
    int_rows_from_json,
    int_rows_to_json,
    kernel_basis,
    pair_pivots,
    reduce_int_rows,
    rational_from_json,
    rational_to_json,
)
from gkmcalc.symalg import restriction, restriction_images
from gkmcalc.toric import simplex_polytope

from oracles import (
    _scaled_int_rows,
    dense_restriction_matrix,
    doubleton_classes,
    hyperplane_normal,
    identity_block_dual_basis,
    identity_matrix,
    incidence,
    mul_vector,
    naive_rref,
    rank_of_rows,
    rref_rows,
    subspace_relations_by_rank,
    subspace_relations_by_reduction,
)
from oracles import reduce_int_rows as dense_reduce_int_rows


def random_matrix(rng, rows, cols, scale=9):
    return [
        [Fraction(rng.randint(-scale, scale), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_combinations(rng, rows, k):
    """k random rational combinations of the given rows."""
    if not rows or k == 0:
        return []
    out = []
    for _ in range(k):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        if not any(coeffs):
            coeffs[rng.randrange(len(rows))] = Fraction(1)
        out.append(
            [sum(c * Fraction(row[j]) for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]
        )
    return out


def random_int_rows(rng, nrows, ncols, scale=9, density=1.0):
    return [
        [rng.randint(-scale, scale) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def dense(rows, nc):
    return [[row.get(c, 0) for c in range(nc)] for row in rows]


def combination(rng, rows):
    """A random combination of sparse int rows with nonzero coefficients."""
    out = {}
    for row in rows:
        f = rng.choice((-3, -1, 1, 2))
        for c, v in row.items():
            out[c] = out.get(c, 0) + f * v
    return {c: v for c, v in out.items() if v}


def doubleton_rows(rng, nc, nrows, big, wide):
    """Sparse int rows over nc columns, most with two entries: many hold for
    one hidden vector with nonzero entries, so cycles close balanced as well
    as unbalanced; the rest are one-entry rows, random pairs and, with
    ``wide``, rows of three or more entries, some of which the two-entry
    rows reduce to two entries or to nothing."""
    scale = 10**30 if big else 1
    hidden = [rng.choice((-1, 1)) * rng.randint(1, 6) * rng.choice((1, scale)) for _ in range(nc)]
    rows, pairs, singles = [], [], []
    for _ in range(nrows):
        kind = rng.random() * (1 if wide else 0.65)
        i, j = rng.sample(range(nc), 2)
        if kind < 0.4:
            # holds for the hidden vector, a non-unit multiple
            f = rng.choice((-2, 1, 3, scale))
            row = {i: f * hidden[j], j: -f * hidden[i]}
            pairs.append(row)
        elif kind < 0.55:
            row = {i: rng.choice((-1, 1)) * rng.randint(1, 5) * rng.choice((1, scale)),
                   j: rng.choice((-1, 1)) * rng.randint(1, 5)}
        elif kind < 0.65:
            row = {i: rng.choice((-4, 1, 2, scale))}
            singles.append(i)
        elif kind < 0.75 and len(pairs) >= 2:
            # vanishes in the classes of the two-entry rows
            row = combination(rng, rng.sample(pairs, 2))
        elif kind < 0.85 and pairs:
            # two entries more than that
            row = combination(rng, [rng.choice(pairs), {i: rng.randint(1, 5), j: -scale}])
        else:
            # often with a column that a one-entry row kills
            cols = rng.sample(range(nc), min(nc, 5))[:rng.randint(3, 5)]
            if singles and rng.random() < 0.5:
                cols[0] = rng.choice(singles)
            row = {c: rng.choice((-2, -1, 1, 3)) for c in cols}
        rows.append(row)
    return rows


def slot_lists(rows, nc):
    """The four slot lists of sparse rows of at most two entries, an absent
    entry as the forced zero column nc with value 1."""
    pad = (nc, 1), (nc, 1)
    pairs = [(*row.items(), *pad)[:2] for row in rows]
    return ([p[s][t] for p in pairs] for s in (0, 1) for t in (0, 1))


def doubleton_inputs():
    """``("doubleton", ncols, dense rows)`` cases of the two rank_only paths.

    Each system of rows of at most two entries comes alone, for the
    union-find, and then with its wide rows after it, for the loop that
    runs when a row has three entries or more.
    """
    # (ncols, rows of at most two entries, wide rows)
    cases = [
        # a balanced and an unbalanced triangle with non-unit coefficients
        (4, [{0: 2, 1: -3}, {1: 5, 2: 10}, {0: 2, 2: 6}], []),
        (4, [{0: 2, 1: -3}, {1: 5, 2: 10}, {0: 4, 2: 5}], []),
        # a forced zero tied to a larger column; one tied to smaller columns
        (5, [{0: 7}, {0: 2, 3: -5}, {1: 1, 4: 1}], [{1: 1, 2: 1, 3: 1, 4: 1}]),
        (5, [{4: 3}, {1: 2, 4: -1}, {0: 1, 1: 1}], [{0: 1, 2: 2, 3: 3}]),
        # wide rows with 10^30 entries on tied columns
        (6, [{0: 2, 1: -4}, {2: 3, 3: -1}], [{0: 1, 2: 1, 5: 1}, {1: 10**30, 3: -10**30, 4: 1}]),
        # a path of three links, compressed by a balanced cycle and then
        # read again by another
        (5, [{0: 1, 1: -2}, {1: 1, 2: -3}, {2: 1, 3: -5}, {0: 1, 3: -30}, {1: 1, 3: -15}],
         [{0: 1, 1: 1, 4: 1}]),
        # forced zeros, each a class under the extra column ncols: a column
        # killed by a one-entry row beside a pair killed by an unbalanced
        # cycle; a one-entry row beside a live pair; a cycle closed inside a
        # class already under the extra column; a one-entry row on a column
        # that then joins a live class, which takes that class under the
        # extra column too
        (5, [{0: 3}, {1: 2, 2: -1}, {1: 1, 2: 1}, {3: 1, 4: 2}], [{0: 1, 1: 4, 2: -2}]),
        (5, [{1: 4}, {0: 1, 3: -2}], [{0: 5, 1: 1, 2: 1}, {1: 2, 2: 3, 3: 1, 4: 1}]),
        (4, [{0: 2}, {0: 1, 1: 1}, {1: 3, 0: 1}], [{1: 1, 2: 1, 3: 1}]),
        (5, [{0: 2, 4: -1}, {1: 3}, {1: 1, 4: 5}], [{0: 1, 2: 1, 3: 1}]),
        # an empty row among rows of two entries and one
        (5, [{0: 1, 1: -1}, {}, {2: 3, 4: 1}, {1: 2}], []),
    ]
    for nc, doubletons, wide in cases:
        yield "doubleton", nc, dense(doubletons, nc)
        if wide:
            yield "doubleton", nc, dense(doubletons + wide, nc)
    # a wide row first, then rows that tie columns and kill them: the loop
    # runs on every row, with no forest begun
    yield "doubleton", 5, dense([{0: 1, 2: 1, 4: 1}, {0: 2, 1: -1}, {1: 1, 3: 1}, {3: 4},
                                 {2: 1, 4: -3}], 5)
    rng = random.Random(14)
    for k in range(80):
        nc = rng.randint(2, 16)
        rows = doubleton_rows(rng, nc, rng.randint(1, 24), big=rng.random() < 0.3, wide=k % 2 == 0)
        yield "doubleton", nc, dense(rows, nc)


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
    # the two rank_only paths: the union-find on rows of at most two
    # entries, and the loop that takes over from it at a wide row
    yield from doubleton_inputs()
    rng = random.Random(9)
    for nr, nc in ((5, 6), (6, 6), (7, 4)):
        rows = random_int_rows(rng, nr, nc, scale=10**30)
        # one dependent row keeps the rank below full
        rows.append([3 * a - 2 * b for a, b in zip(rows[0], rows[1])])
        yield "big", nc, rows


class TestRref:
    # the library's RREF is canonical_subspace: its rows over their pivot
    # entries (rref_rows) and its pivot columns
    def test_scaling_rows(self):
        s = canonical_subspace([[2, 0], [0, 3]], 2)
        assert s.rows == ((1, 0), (0, 1))
        assert s.pivot_columns() == [0, 1]

    def test_dependent_rows(self):
        s = canonical_subspace([[1, 1], [2, 2]], 2)
        assert s.to_json() == [[1, 1]]
        assert s.pivot_columns() == [0]

    def test_empty_matrix(self):
        s = canonical_subspace([], 3)
        assert s.rows == () and s.ambient_dim == 3
        assert s.pivot_columns() == []

    def test_matches_naive_oracle(self):
        for family, nc, rows in [*oracle_inputs(), ("empty", 3, [])]:
            space = canonical_subspace(rows, nc)
            want, wpiv = naive_rref(rows)
            assert space.pivot_columns() == wpiv, family
            assert rref_rows(space) == want, family
            _, rank_piv = reduce_int_rows([int_row(r)[1] for r in rows], nc, rank_only=True)
            assert len(rank_piv) == len(wpiv), family

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
            once = canonical_subspace(random_matrix(rng, 5, 7), 7)
            assert canonical_subspace(rref_rows(once), 7) == once


class TestKernelBasis:
    def test_zero_map(self):
        assert kernel_basis(MatrixQ(1, 2, [0, 0])) == identity_matrix(2)

    def test_injective(self):
        k = kernel_basis(identity_matrix(2))
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
            ker = kernel_basis(m)
            assert rank_of_rows(m.row_lists(), nc) + ker.rows == nc
            for i in range(ker.rows):
                assert not any(mul_vector(m, ker.row(i)))

    def test_rank_nullity_large(self):
        # a 40x40 random rational matrix, the largest size exercised
        rng = random.Random(4040)
        m = MatrixQ.from_rows(random_matrix(rng, 40, 40, scale=5), 40)
        ker = kernel_basis(m)
        assert rank_of_rows(m.row_lists(), 40) + ker.rows == 40

    def test_kernel_is_rref(self):
        rng = random.Random(3)
        for _ in range(20):
            m = MatrixQ.from_rows(random_matrix(rng, 3, 6), 6)
            ker = kernel_basis(m)
            assert rref_rows(canonical_subspace(ker.row_lists(), 6)) == ker.row_lists()


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False), nc=st.integers(2, 24),
       nrows=st.integers(0, 40), big=st.booleans(), wide=st.booleans())
def test_rank_only_pivots_match_the_fixed_order(rng, nc, nrows, big, wide):
    rows = doubleton_rows(rng, nc, nrows, big, wide)
    _, want = dense_reduce_int_rows(dense(rows, nc), nc)
    _, full = reduce_int_rows([dict(row) for row in rows], nc)
    _, got = reduce_int_rows([dict(row) for row in rows], nc, rank_only=True)
    assert got == full == want
    # the rows of at most two entries, from their slot lists, against the
    # fixed order and the union-find on dict rows keyed by column
    short = [row for row in rows if len(row) <= 2]
    _, want = dense_reduce_int_rows(dense(short, nc), nc)
    _, full = reduce_int_rows([dict(row) for row in short], nc)
    got = pair_pivots(zip(*slot_lists(short, nc)), nc)
    assert got == full == want == sorted(doubleton_classes(short, nc))


def test_pair_pivots_match_the_fixed_order_and_the_dict_forest():
    cases = 0
    for _, nc, rows in doubleton_inputs():
        sparse = [int_row(r)[1] for r in rows]
        if any(len(row) > 2 for row in sparse):
            assert doubleton_classes(sparse, nc) is None
            continue
        _, want = dense_reduce_int_rows(rows, nc)
        got = pair_pivots(zip(*slot_lists(sparse, nc)), nc)
        assert got == want == sorted(doubleton_classes(sparse, nc)), rows
        cases += 1
    assert cases > 40


def test_pair_pivots_of_written_out_rows():
    # a forced zero, a balanced cycle and an unbalanced one, 10^30 factors
    big = 10**30
    assert pair_pivots([], 3) == []
    assert pair_pivots([(1, 7, 3, 1)], 3) == [1]
    assert pair_pivots([(3, 1, 3, 1), (0, big, 2, -big)], 3) == [0]
    triangle = [(0, 2, 1, -3 * big), (1, 5, 2, 10), (0, 2, 2, 6 * big)]
    assert pair_pivots(triangle, 3) == [0, 1]
    triangle[2] = (0, 4, 2, 5)
    assert pair_pivots(triangle, 3) == [0, 1, 2]


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
    assert rank_of_rows(m.row_lists(), m.cols) + kernel_basis(m).rows == m.cols


class TestCanonicalSubspace:
    def test_axes(self):
        s = canonical_subspace([(2, 0), (0, 3)], 2)
        assert s.rows == ((1, 0), (0, 1))

    def test_line(self):
        s = canonical_subspace([(1, 1), (2, 2)], 2)
        assert s.rows == ((1, 1),)

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


def contains(ambient, sub) -> bool:
    """Containment as validation decides it: by one pass over the ambient's
    incidences, :func:`~gkmcalc.exactlin.contained`."""
    return contained(ambient, [sub])[0]


class TestSubspaceRelations:
    # containment as validation decides it, both ways
    def test_line_in_plane(self):
        a = canonical_subspace([(1, 0)], 2)
        b = canonical_subspace([(1, 0), (0, 1)], 2)
        assert contains(b, a) and not contains(a, b)

    def test_equal_lines(self):
        a = canonical_subspace([(1, 1)], 2)
        b = canonical_subspace([(2, 2)], 2)
        assert contains(a, b) and contains(b, a) and a == b

    def test_skew_lines(self):
        a = canonical_subspace([(1, 0)], 2)
        b = canonical_subspace([(0, 1)], 2)
        assert not contains(a, b) and not contains(b, a)

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
        want = subspace_relations_by_reduction(a, b)
        assert (contains(a, b), contains(b, a), a.dim, b.dim) == want
        assert subspace_relations_by_rank(a, b) == want
        assert (contains(a, b) and contains(b, a)) == (a == b)
        # a contains b iff b's rows add nothing to a's canonical form
        assert (canonical_subspace(a.rows + b.rows, n) == a) == want[0]
        for ambient, sub, inside in ((a, b, want[0]), (b, a, want[1])):
            inc = coordinates(ambient.rows, sub.rows)
            assert (inc is not None) == inside
            if inside:
                # form j over den is column j of the degree-1 restriction
                den, forms = inc
                m = dense_restriction_matrix(ambient, sub, 1)
                assert len(forms) == ambient.dim
                for j, form in enumerate(forms):
                    col = [Fraction(0)] * sub.dim
                    for i, num in form:
                        assert type(num) is int and num
                        col[i] = Fraction(num, den)
                    assert col == [m.entry(i, j) for i in range(sub.dim)]
                restriction_images(restriction(ambient.rows, sub.rows), degree)
            else:
                with pytest.raises(SubspaceContainmentError):
                    restriction_images(restriction(ambient.rows, sub.rows), degree)


def lead_normalized(row):
    """An int row over its leading entry, the vector it stands for."""
    lead = next(x for x in row if x)
    return [Fraction(x, lead) for x in row]


def as_int_row(vec):
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    return tuple(int(x * den) for x in vec)


class TestBases:
    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 5),
           shape=st.sampled_from(["canonical", "drawn", "mixed", "outside", "dependent"]))
    def test_coordinates_write_vectors_in_the_basis(self, rng, n, shape):
        # every path: a canonical basis, vectors drawn from the basis rows,
        # combinations in a basis in no echelon form, a vector outside, and
        # a dependent basis, which is rejected once a vector is not its row
        k = rng.randint(1, n)
        space = canonical_subspace(random_matrix(rng, k, n), n)
        k = space.dim
        if shape == "canonical":
            basis = space.rows
        else:
            mix = invertible_matrix(rng, k)
            basis = tuple(as_int_row([sum(c * x for c, x in zip(row, col))
                                      for col in zip(*map(lead_normalized, space.rows))])
                          for row in mix)
        if shape == "drawn":
            vectors = tuple(rng.sample(basis, rng.randint(0, k)))
        else:
            vectors = tuple(
                as_int_row(v) for v in random_combinations(rng, [lead_normalized(b) for b in basis],
                                                         rng.randint(0, k))
                if any(v)
            )
        if shape == "outside" and k < n:
            vectors += tuple(r for r in canonical_subspace(random_matrix(rng, n, n), n).rows
                             if coordinates(space.rows, (r,)) is None)[:1]
        if shape == "dependent" and basis:
            extra = as_int_row(random_combinations(rng, [lead_normalized(b) for b in basis], 1)[0])
            basis += (extra,)
            # k + 2 multiples of the new row are not all among the k + 1 rows
            multiples = (tuple(m * x for x in extra) for m in range(1, k + 3))
            vectors += (next(v for v in multiples if v not in basis),)
            with pytest.raises(InputShapeError):
                coordinates(basis, vectors)
            return
        inside = all(coordinates(space.rows, (v,)) is not None for v in vectors)
        got = coordinates(basis, vectors)
        assert (got is not None) == inside
        if got is None:
            return
        den, forms = got
        assert len(forms) == len(basis)
        for i, vec in enumerate(vectors):
            combo = [Fraction(0)] * n
            for form, b in zip(forms, map(lead_normalized, basis)):
                for j, num in form:
                    if j == i:
                        assert type(num) is int and num
                        combo = [x + Fraction(num, den) * y for x, y in zip(combo, b)]
            assert combo == lead_normalized(vec)

    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 5))
    def test_hyperplane_normal_and_dual_basis(self, rng, n):
        ambient = canonical_subspace(random_matrix(rng, rng.randint(0, n), n), n)
        k = ambient.dim
        coords = [lead_normalized(r) for r in ambient.rows]

        def value(functional, vec):
            # vec in ambient, read in coordinates dual to the canonical basis
            return sum(f * vec[p] for f, p in zip(functional, ambient.pivot_columns()))

        hyperplanes = [canonical_subspace(random_combinations(rng, coords, k - 1), n)
                       for _ in range(rng.randint(0, 4))]
        normals = []
        for sub in hyperplanes:
            if sub.dim != k - 1:
                continue
            normal, = hyperplane_normals(ambient, [sub])
            assert contains(ambient, sub) and normal == hyperplane_normal(ambient, sub)
            assert gcd(*normal) == 1 and next(x for x in normal if x) > 0
            assert all(value(normal, lead_normalized(r)) == 0 for r in sub.rows)
            assert any(value(normal, c) for c in coords)
            assert (sum(map(bool, normal)) == 1) == (set(sub.rows) <= set(ambient.rows))
            normals.append(normal)
        # the unit functionals fill up after the normals, unit c as index
        # len(normals) + c
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        candidates = normals + units
        kept, lines = dual_basis(ambient, normals)
        assert len(kept) == len(lines) == k
        # greedy: each candidate is kept iff independent of those kept before
        chosen = []
        for i, f in enumerate(candidates):
            if len(chosen) < k and rank_of_rows(chosen + [f], k) > len(chosen):
                chosen.append(f)
                assert i in kept
            else:
                assert i not in kept
        for i, line in enumerate(lines):
            assert coordinates(ambient.rows, (line,)) is not None
            assert gcd(*line) == 1 and next(x for x in line if x) > 0
            for j, f in enumerate(kept):
                assert bool(value(candidates[f], line)) == (i == j)

    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 6),
           shape=st.sampled_from(["inside", "outside", "coordinate"]))
    def test_incidence_pass_matches_each_incidence_read_alone(self, rng, n, shape):
        # one pass over an ambient's subspaces against reading each on its
        # own (containment through coordinates and the span test at every
        # column, the normal by hyperplane_normal): subspaces inside and
        # outside the ambient, of codimension 0, 1 and 2 in it, in general
        # and in coordinate position, so the normal is read off rows that
        # are all the ambient's but one too
        if shape == "coordinate":
            axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            ambient = canonical_subspace(rng.sample(axes, rng.randint(0, n)), n)
            pool = list(ambient.rows) + [a for a in axes if a not in ambient.rows][:1]
        else:
            ambient = canonical_subspace(random_matrix(rng, rng.randint(0, n), n), n)
            pool = [lead_normalized(r) for r in ambient.rows]
            if shape == "outside":
                pool += random_matrix(rng, 1, n)
        subs = []
        for codim in (0, 1, 2, 0, 1, 2):
            k = max(ambient.dim - codim, 0)
            vectors = (rng.sample(pool, min(k, len(pool))) if shape == "coordinate"
                       else random_combinations(rng, pool, k))
            subs.append(canonical_subspace(vectors, n))
        got = contained(ambient, subs)
        assert len(got) == len(subs)
        hyperplane = [inside and ambient.dim - sub.dim == 1 for sub, inside in zip(subs, got)]
        normals = iter(hyperplane_normals(ambient, [s for s, h in zip(subs, hyperplane) if h]))
        for sub, inside, h in zip(subs, got, hyperplane):
            normal = next(normals) if h else None
            assert (inside, ambient.dim - sub.dim, normal) == incidence(ambient, sub)
        assert next(normals, None) is None
        if shape == "inside":
            assert all(got)

    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False), k=st.integers(0, 6),
           coordinate=st.booleans())
    def test_dual_basis_matches_identity_block_oracle(self, rng, k, coordinate):
        # the dense solve fills up with unit functionals of its own, so it
        # gives what the identity-block reduction gives with them passed
        # last, whether the functionals passed are too few, dependent,
        # repeated or units themselves, and in coordinate ambients too
        n = k + rng.randint(0, 2)
        if coordinate:
            axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            ambient = canonical_subspace(rng.sample(axes, k), n)
        else:
            ambient = canonical_subspace(random_matrix(rng, k, n), n)
        k = ambient.dim
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        functionals = []
        for _ in range(rng.randint(0, k + 3)):
            shape = rng.choice(["random", "repeat", "combination", "unit"])
            if shape == "repeat" and functionals:
                f = rng.choice(functionals)
                functionals.append(tuple(rng.choice([1, -2, 3]) * x for x in f))
            elif shape == "combination" and len(functionals) > 1:
                f, g = rng.sample(functionals, 2)
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                functionals.append(tuple(a * x + b * y for x, y in zip(f, g)))
            elif shape == "unit" and units:
                functionals.append(rng.choice(units))
            else:
                functionals.append(tuple(rng.randint(-4, 4) for _ in range(k)))
        assert dual_basis(ambient, functionals) == identity_block_dual_basis(
            ambient, functionals + units)


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
        # a JSON matrix is held as int rows, and written back dense
        doc = [["1/2", 3, 0], [0, 0, "-7/5"], [0, 0, 0]]
        rows = int_rows_from_json(doc, 3)
        assert rows == ((2, ((0, 1), (1, 6))), (5, ((2, -7),)), (1, ()))
        assert int_rows_to_json(rows, 3) == doc
        assert int_rows_from_json([], 3) == () and int_rows_to_json((), 3) == []
        for bad in ([[1, 2]], [[1, 2, 3], [1]], 3, [3], [[0.5, 0, 0]]):
            with pytest.raises(InputShapeError):
                int_rows_from_json(bad, 3)

    # library input takes Fractions, ints (not bools) and strict rational
    # strings, the JSON form; a float would bring in its binary expansion
    @pytest.mark.parametrize(
        "build, want",
        [
            (lambda: simplex_polytope(1, [0.1, 1]), InputShapeError),
            (lambda: builtin_hirzebruch(1, 0.1), InputShapeError),
            (lambda: canonical_subspace([(0.5, 1)], 2), InputShapeError),
            (lambda: canonical_subspace([(None, 1)], 2), InputShapeError),
            (lambda: canonical_subspace([("x", 1)], 2), InputShapeError),
            (lambda: MatrixQ.from_rows([["x"]]), InputShapeError),
            (lambda: MatrixQ.from_rows([["1e1"]]), InputShapeError),
            (lambda: MatrixQ.from_rows([[" 1/2"]]), InputShapeError),
            (lambda: MatrixQ.from_rows([["1/0"]]), InputShapeError),
            (lambda: MatrixQ.from_rows([[True]]), InputShapeError),
            (lambda: canonical_subspace([("1/2", 1)], 2).rows, ((1, 2),)),
            (lambda: MatrixQ.from_rows([["-3/6", 2]]).row(0), (Fraction(-1, 2), 2)),
            (lambda: builtin_hirzebruch(1, "3/2"), builtin_hirzebruch(1, Fraction(3, 2))),
            (lambda: simplex_polytope(1, ["1/2", 1]).vertices[0].coords, (2, 0)),
        ],
        ids=[
            "polytope-float", "hirzebruch-float", "subspace-float", "subspace-none",
            "subspace-word", "matrix-word", "matrix-exponent", "matrix-space",
            "matrix-zero-denominator", "matrix-bool", "subspace-string",
            "matrix-string", "hirzebruch-string", "polytope-string",
        ],
    )
    def test_rational_library_input(self, build, want):
        if want is InputShapeError:
            with pytest.raises(InputShapeError):
                build()
        else:
            assert build() == want
