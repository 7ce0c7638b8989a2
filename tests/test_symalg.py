"""Tests for graded symmetric algebra pieces and restriction maps."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmcalc import symalg
from gkmcalc.errors import GkmError, SubspaceContainmentError
from gkmcalc.examples import builtin_simplex, builtin_stiefel
from gkmcalc.exactlin import MatrixQ, canonical_subspace, coordinates, rank_of_rows
from gkmcalc.gkmcore import (
    _adapted_bases,
    class_product,
    equivariant_basis,
    equivariant_dims,
    validate_graph,
)
from gkmcalc.symalg import (
    CACHE_SIZE,
    _graded,
    monomial_basis,
    restriction_images,
    sym_dim,
)
from gkmcalc.toric import MomentPolytope, PolytopeFacet, PolytopeVertex, polytope_skeleton

from oracles import (
    contains,
    dense,
    dense_restriction_matrix,
    expanded_restriction_images,
    grown_restriction_images,
    matmul,
)
from test_exactlin import (
    as_int_row,
    invertible_matrix,
    lead_normalized,
    random_combinations,
    random_matrix,
)


def restricted(ambient, sub, degree):
    """The dense matrix of the restriction along canonical bases, one row
    per sub monomial and one column per ambient monomial."""
    return dense(restriction_images(ambient.rows, sub.rows, degree), sym_dim(sub.dim, degree))


def sorted_images(restriction):
    """``(scale, images)`` with each image sorted, as the oracles give them."""
    scale, images = restriction
    return scale, tuple(tuple(sorted(image)) for image in images)


class TestSymDim:
    def test_binomial_identity(self):
        assert sym_dim(2, 3) == 4

    def test_single_variable(self):
        assert all(sym_dim(1, d) == 1 for d in range(10))

    def test_zero_space(self):
        assert sym_dim(0, 0) == 1
        assert sym_dim(0, 2) == 0

    def test_matches_enumeration(self):
        for k in range(5):
            for d in range(7):
                assert len(monomial_basis(k, d)) == sym_dim(k, d)


class TestMonomialBasis:
    def test_graded_lex_order(self):
        basis = monomial_basis(2, 3)
        assert basis.monomials == ((3, 0), (2, 1), (1, 2), (0, 3))

    def test_degrees_sum(self):
        for mono in monomial_basis(3, 4).monomials:
            assert sum(mono) == 4

    def test_deterministic(self):
        assert monomial_basis(3, 5).monomials == monomial_basis(3, 5).monomials

    def test_index_tables_match_exponent_arithmetic(self):
        # down and up against adding and removing e_j on the exponent tuples,
        # built from a cold cache, then a degree far past the recursion limit
        monomial_basis.cache_clear()
        for n in range(6):
            for d in range(1, 9):
                basis, below = monomial_basis(n, d), monomial_basis(n, d - 1)
                assert len(basis.down) == len(basis.monomials)
                for (j, k), alpha in zip(basis.down, basis.monomials):
                    assert alpha[:j] == (0,) * j and alpha[j] > 0
                    assert below.monomials[k] == alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                assert len(basis.up) == len(below.monomials)
                for raised, beta in zip(basis.up, below.monomials):
                    assert len(raised) == n
                    for i, pos in enumerate(raised):
                        assert basis.monomials[pos] == beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
        monomial_basis.cache_clear()
        deep = monomial_basis(1, 1500)
        assert deep.down == ((0, 0),) and deep.up == ((0,),)


class TestRestrictionMatrix:
    def test_identity_on_equal_spaces(self):
        v = canonical_subspace([(1, 0, 2), (0, 1, 1)], 3)
        for d in range(4):
            assert restricted(v, v, d) == MatrixQ.identity(sym_dim(2, d))

    def test_diagonal_line_degree_1(self):
        amb = canonical_subspace([(1, 0), (0, 1)], 2)
        sub = canonical_subspace([(1, 1)], 2)
        assert restricted(amb, sub, 1) == MatrixQ.from_rows([[1, 1]])

    def test_diagonal_line_degree_2(self):
        amb = canonical_subspace([(1, 0), (0, 1)], 2)
        sub = canonical_subspace([(1, 1)], 2)
        assert restricted(amb, sub, 2) == MatrixQ.from_rows([[1, 1, 1]])

    def test_zero_subspace_positive_degree(self):
        amb = canonical_subspace([(1, 0), (0, 1)], 2)
        sub = canonical_subspace([], 2)
        for d in (1, 2, 3):
            m = restricted(amb, sub, d)
            assert m.rows == 0
            assert m.cols == sym_dim(2, d)

    def test_zero_subspace_degree_zero(self):
        amb = canonical_subspace([(1, 0)], 2)
        sub = canonical_subspace([], 2)
        assert restricted(amb, sub, 0) == MatrixQ.identity(1)

    def test_non_containment_rejected(self):
        amb = canonical_subspace([(1, 0)], 2)
        sub = canonical_subspace([(0, 1)], 2)
        with pytest.raises(SubspaceContainmentError):
            restriction_images(amb.rows, sub.rows, 1)

    def test_surjectivity_rank(self):
        rng = random.Random(11)
        for _ in range(15):
            r = rng.randint(1, 4)
            ka = rng.randint(1, r)
            kb = rng.randint(0, ka)
            amb_rows = random_matrix(rng, ka, r)
            amb = canonical_subspace(amb_rows, r)
            sub = canonical_subspace(random_combinations(rng, amb_rows, kb), r)
            for d in range(4):
                m = restricted(amb, sub, d)
                assert rank_of_rows(m.row_lists(), m.cols) == sym_dim(sub.dim, d)

    def test_matches_rational_substitution(self):
        # the integer images over one scale against substitution over Q, and
        # value for value (scale and images) against expanding each monomial on
        # its own; the degrees are visited in a random order, with the caches
        # emptied before the first and before about a third of the others, so
        # degrees are built both from cold and from warm lower degrees; the
        # reversed pair, when not contained, is refused at every degree
        rng = random.Random(17)
        for kind in ("coordinate", "generic") * 15:
            r = rng.randint(1, 4)
            if kind == "coordinate":
                axes = [[int(i == j) for j in range(r)] for i in range(r)]
                amb_rows = rng.sample(axes, rng.randint(1, r))
                sub_rows = rng.sample(amb_rows, rng.randint(0, len(amb_rows)))
            else:
                amb_rows = random_matrix(rng, rng.randint(1, r), r)
                sub_rows = random_combinations(rng, amb_rows, rng.randint(0, len(amb_rows)))
            amb, sub = canonical_subspace(amb_rows, r), canonical_subspace(sub_rows, r)
            degrees = list(range(8))
            rng.shuffle(degrees)
            for d in degrees:
                if d == degrees[0] or rng.random() < 0.3:
                    _graded.cache_clear()
                restriction = restriction_images(amb.rows, sub.rows, d)
                assert sorted_images(restriction) == expanded_restriction_images(
                    amb.rows, sub.rows, d)
                assert dense(restriction, sym_dim(sub.dim, d)) == dense_restriction_matrix(
                    amb, sub, d)
                scale, images = restriction
                assert type(scale) is int and scale > 0
                for image in images:
                    assert len({mono for mono, _ in image}) == len(image)
                    assert all(type(num) is int and num for _, num in image)
            if not contains(sub, amb):
                for d in degrees:
                    with pytest.raises(SubspaceContainmentError):
                        restriction_images(sub.rows, amb.rows, d)

    def test_functoriality_chain(self):
        rng = random.Random(5)
        for _ in range(10):
            r = rng.randint(2, 4)
            rows_a = random_matrix(rng, r, r)
            a = canonical_subspace(rows_a, r)
            if a.dim < 2:
                continue
            rows_b = random_combinations(rng, rows_a, a.dim - 1)
            b = canonical_subspace(rows_b, r)
            rows_c = random_combinations(rng, rows_b, max(b.dim - 1, 0))
            c = canonical_subspace(rows_c, r)
            for d in range(7):
                ab = restricted(a, b, d)
                bc = restricted(b, c, d)
                ac = restricted(a, c, d)
                assert matmul(bc, ab) == ac

    def test_invariant_under_input_recombination(self):
        # feeding recombined spanning sets through canonicalization changes
        # nothing downstream: assert end to end on the restriction matrix
        rng = random.Random(21)
        amb_rows = [[2, 0, 1], [0, 2, 1]]
        sub_rows = [[2, 2, 2]]
        amb = canonical_subspace(amb_rows, 3)
        sub = canonical_subspace(sub_rows, 3)
        base = restricted(amb, sub, 3)
        for _ in range(20):
            mix = invertible_matrix(rng, 2)
            mixed_rows = [
                [sum(mix[i][l] * Fraction(amb_rows[l][j]) for l in range(2)) for j in range(3)]
                for i in range(2)
            ]
            amb2 = canonical_subspace(mixed_rows, 3)
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            sub2 = canonical_subspace([[scale * x for x in sub_rows[0]]], 3)
            assert restricted(amb2, sub2, 3) == base

    def test_deep_degree_from_cold_caches(self):
        # each degree is grown from the one below; a cold call far past the
        # recursion limit still answers, so the build is not recursive
        _graded.cache_clear()
        a = canonical_subspace([(1, 0)], 2)
        assert restriction_images(a.rows, a.rows, 1500) == (1, (((0, 1),),))

    def test_containment_read_once_per_pair(self):
        # one graph through every entry point decides each (vertex, edge)
        # pair once, for validation and restriction together (on coordinate
        # isotropies the adapted bases of equivariant_dims are the canonical
        # ones); coordinates is counted by its code object, so a call from any
        # import site counts
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is coordinates.__code__:
                calls.append((frame.f_locals["basis"], frame.f_locals["vectors"]))

        g = builtin_simplex(4)  # validates, which fills _graded
        _graded.cache_clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            validate_graph(g)
            equivariant_dims(g, 14)
            equivariant_basis(g, 2)
            basis = equivariant_basis(g, 2)
            class_product(g, basis[0], basis[-1])
        finally:
            sys.setprofile(previous)
        pairs = {(g.vertex(v).isotropy.rows, e.isotropy.rows)
                 for e in g.edges for v in (e.source, e.target)}
        assert len(calls) == len(pairs) and set(calls) == pairs

    def test_threads_growing_one_pair_match_the_oracle(self):
        # eight threads extend the degrees of one pair at once from cold
        # caches, switching often; a lost or doubled degree would put a map
        # under the wrong degree
        rng = random.Random(3)
        amb = canonical_subspace(random_matrix(rng, 4, 4), 4)
        sub = canonical_subspace(random_combinations(rng, list(amb.rows), 3), 4)
        degrees = [d for _ in range(4) for d in range(9)]
        rng.shuffle(degrees)
        _graded.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(restriction_images, amb.rows, sub.rows, d)
                           for d in degrees]
                maps = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for d, restriction in zip(degrees, maps):
            assert sorted_images(restriction) == expanded_restriction_images(amb.rows, sub.rows, d)


def random_generic_skeleton(rng):
    """The one-skeleton of a simplex or a cube of dimension 2 or 3 whose
    facet normals are small random integers, drawn again until the skeleton
    is a valid GKM graph (it reads the incidence and the normals only)."""
    n = rng.randint(2, 3)
    if rng.random() < 0.5:
        ids = [f"v{j}" for j in range(n + 1)]
        incidence = [[v for v in ids if v != f"v{j}"] for j in range(n + 1)]
    else:
        ids = ["c" + "".join(bits) for bits in product("01", repeat=n)]
        incidence = [[v for v in ids if v[1 + i] == b] for i in range(n) for b in "01"]
    vertices = tuple(PolytopeVertex(v, (Fraction(0),) * (n + 1)) for v in ids)
    while True:
        facets = tuple(
            PolytopeFacet(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n + 1)), tuple(vs))
            for vs in incidence
        )
        try:
            return polytope_skeleton(MomentPolytope(n + 1, vertices, facets))
        except GkmError:
            continue


def mixed_basis(rng, rows):
    """A basis of the span of the int rows ``rows`` in no echelon form."""
    mix = invertible_matrix(rng, len(rows))
    vectors = [lead_normalized(row) for row in rows]
    return tuple(as_int_row([sum(c * v[j] for c, v in zip(coeffs, vectors))
                             for j in range(len(rows[0]))]) for coeffs in mix)


STIEFEL = builtin_stiefel()
STIEFEL_BASES = _adapted_bases(STIEFEL)


@st.composite
def basis_pairs(draw):
    """``(kind, pairs)``: pairs ``(ambient, sub)`` of bases as
    :func:`~gkmcalc.exactlin.coordinates` takes them.  ``adapted``: the
    (vertex, edge) pairs of ``_adapted_bases`` on a random generic skeleton,
    where every form has one term; ``fallback``: the Stiefel pairs whose edge
    keeps its canonical basis, read by a reduction; ``zero``: a sub of
    dimension 0 in a random ambient and in one of dimension 0; ``multi``:
    random bases in no echelon form, so forms and images have many terms;
    ``sparse``: a coordinate ambient and a sub of vectors with entries -1, 0
    and 1, so one-term and longer forms meet and terms cancel."""
    kind = draw(st.sampled_from(("adapted", "fallback", "zero", "multi", "sparse")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "adapted":
        graph = random_generic_skeleton(rng)
        vertex_bases, edge_bases = _adapted_bases(graph)
        pairs = [(vertex_bases[v], edge_bases[e.id])
                 for e in graph.edges for v in (e.source, e.target)]
        return kind, rng.sample(pairs, min(len(pairs), 6))
    if kind == "fallback":
        vertex_bases, edge_bases = STIEFEL_BASES
        pairs = [(vertex_bases[v], edge_bases[e.id]) for e in STIEFEL.edges
                 for v in (e.source, e.target) if edge_bases[e.id] == e.isotropy.rows]
        assert pairs
        return kind, pairs
    r = rng.randint(1, 4)
    if kind == "sparse":
        ambient = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        k = rng.randint(1, r)
        while True:
            sub = tuple(tuple(rng.choice((-1, 0, 0, 1)) for _ in range(r)) for _ in range(k))
            if canonical_subspace(sub, r).dim == k:
                return kind, [(ambient, sub)]
    ambient = ()
    while not ambient:
        ambient = canonical_subspace(random_matrix(rng, rng.randint(1, r), r), r).rows
    if kind == "zero":
        return kind, [(mixed_basis(rng, ambient), ()), ((), ())]
    sub = canonical_subspace(random_combinations(rng, [lead_normalized(row) for row in ambient],
                                                 rng.randint(1, len(ambient))), r).rows
    return kind, [(mixed_basis(rng, ambient), mixed_basis(rng, sub))]


@settings(max_examples=60, deadline=None)
@given(basis_pairs(), st.integers(0, 2**32 - 1))
def test_images_on_bases_match_expansion_and_tuple_growth(case, seed):
    # restriction_images on pairs of bases, against expanding each monomial
    # on its own and against the tuple-keyed growth it replaced; the degrees
    # are visited in a random order, with both caches emptied before the
    # first and before about a third of the others; a pair the other way
    # round, when not contained, is refused at every degree
    kind, pairs = case
    rng = random.Random(seed)
    for ambient, sub in pairs:
        degrees = list(range(8))
        rng.shuffle(degrees)
        for d in degrees:
            if d == degrees[0] or rng.random() < 0.3:
                _graded.cache_clear()
                monomial_basis.cache_clear()
            scale, images = restriction_images(ambient, sub, d)
            expected = expanded_restriction_images(ambient, sub, d)
            assert grown_restriction_images(ambient, sub, d) == expected
            assert len(images) == sym_dim(len(ambient), d)
            assert type(scale) is int and sorted_images((scale, images)) == expected
            for image in images:
                assert len({mono for mono, _ in image}) == len(image)
                assert all(type(num) is int and num for _, num in image)
            if kind == "adapted":
                assert all(len(image) <= 1 for image in images)
        if sub and expanded_restriction_images(sub, ambient, 0) is None:
            for d in degrees:
                with pytest.raises(SubspaceContainmentError):
                    restriction_images(sub, ambient, d)


def test_binomial_growth_of_graded_dimensions():
    # dim S(V*)_d for dim V = k grows like the usual stars-and-bars count
    for k in range(1, 6):
        for d in range(8):
            assert sym_dim(k, d) == comb(d + k - 1, k - 1)


def test_caches_are_bounded():
    # every degree of a pair is kept by _graded, so restriction_images has no
    # cache of its own
    caches = [name for name, value in vars(symalg).items() if hasattr(value, "cache_info")]
    assert caches == ["monomial_basis", "_graded"]
    for cached in (monomial_basis, _graded):
        assert cached.cache_info().maxsize == CACHE_SIZE
    for d in range(CACHE_SIZE + 1):
        monomial_basis(1, d)
    assert monomial_basis.cache_info().currsize == CACHE_SIZE
