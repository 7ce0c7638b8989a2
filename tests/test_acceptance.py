"""Acceptance suite: every criterion checked exactly (tolerance zero).

One test per criterion (criterion 8 splits into its lettered parts); the
terminal summary prints one line per criterion.  Expected values come
from the independent oracles in ``oracles.py`` (monomial enumeration,
series convolution, rank-nullity counting) computed inside the tests,
never from the code paths under test.
"""

import random

from gkmcalc.errors import GkmError
from gkmcalc.examples import (
    builtin_fiber_join,
    builtin_hirzebruch,
    builtin_simplex,
    builtin_stiefel,
)
from gkmcalc.exactlin import MatrixQ
from gkmcalc.gkmcore import (
    GkmEdge,
    GkmGraph,
    GkmVertex,
    GradedMap,
    GradedVS,
    class_product,
    equivariant_basis,
    equivariant_dims,
    validate_graph,
    _layout,
)
from gkmcalc.series import (
    DegreeSeries,
    GysinData,
    MorseBottData,
    basic_from_equivariant,
    gysin_betti,
    morse_bott_assemble,
    run_checks,
    stanley_reisner_hilbert,
)
from gkmcalc.symalg import sym_dim

from oracles import (
    boundary_simplex_faces,
    convolve,
    face_ring_dims_by_enumeration,
    hirzebruch_equivariant_oracle,
    matmul,
    rank_of_rows,
    simplex_equivariant_oracle,
)
from test_exactlin import random_matrix
from test_gkmcore import class_vector, recombined
from test_symalg import random_combinations, restricted

CUTOFF = 20


def minimal_polynomial(n, cutoff):
    return DegreeSeries(
        tuple(1 if d % 2 == 0 and d <= 2 * n else 0 for d in range(cutoff + 1))
    )


def test_criterion_1_simplex_stanley_reisner():
    for n in range(1, 5):
        faces = boundary_simplex_faces(n)
        dims = equivariant_dims(builtin_simplex(n), CUTOFF)
        face_ring = stanley_reisner_hilbert(faces, CUTOFF)
        assert dims == face_ring, f"n={n}"
        enumerated = face_ring_dims_by_enumeration(faces, n + 1, CUTOFF // 2)
        for d in range(CUTOFF + 1):
            expected = enumerated[d // 2] if d % 2 == 0 else 0
            assert dims[d] == expected, f"n={n}, degree {d}"


def test_criterion_2_minimal_basic_ring():
    for n in range(1, 5):
        dims = equivariant_dims(builtin_simplex(n), CUTOFF)
        report = basic_from_equivariant(dims, n + 1)
        basic = report.series
        assert basic == minimal_polynomial(n, CUTOFF), f"n={n}"
        assert report.total == n + 1, f"n={n}"
        assert report.is_polynomial


def test_criterion_3_sphere_recovery():
    for n in range(1, 5):
        betti = gysin_betti(GysinData.minimal(n))
        expected = (1,) + (0,) * (2 * n) + (1,)
        assert betti == expected, f"n={n}"


def test_criterion_4_fiber_join_convolution():
    # n = 3 is the smallest simplex whose dims show a fiber block of width
    # 2 * genus scattered at the wrong columns; n = 1 and 2 keep them
    for n in (1, 2, 3):
        base = simplex_equivariant_oracle(n, CUTOFF)
        for genus in (0, 1, 2):
            got = equivariant_dims(builtin_fiber_join(n, genus), CUTOFF)
            expected = convolve(base, [1, 2 * genus, 1], CUTOFF)
            assert list(got.coeffs) == expected, f"n={n}, g={genus}"


def test_criterion_5_hirzebruch():
    expected_dims = hirzebruch_equivariant_oracle(CUTOFF)
    sphere_total = 1 + 1  # each lens-space component contributes 1 + t^2
    for m in (1, 2, 3):
        graph = builtin_hirzebruch(m)
        dims = equivariant_dims(graph, CUTOFF)
        assert list(dims.coeffs) == expected_dims, f"m={m}"
        report = basic_from_equivariant(dims, 2)
        basic = report.series
        assert basic.coeffs[:6] == (1, 0, 2, 0, 1, 0), f"m={m}"
        assert report.total == 4 == 2 * sphere_total, f"m={m}"
        report = run_checks(graph, CUTOFF)
        odd = next(c for c in report.checks if c.name == "odd_basic_vanishing")
        assert odd.status == "pass"
        lower = next(c for c in report.checks if c.name == "closed_orbit_lower_bound")
        assert lower.status == "pass" and "4 >= n+1 = 3" in lower.detail
        orbit = next(c for c in report.checks if c.name == "orbit_space_dimension")
        assert orbit.status == "pass"
        assert not report.minimal


def test_criterion_6_stiefel_gate():
    graph = builtin_stiefel()
    assert len(graph.vertices) == 4
    report = validate_graph(graph)
    assert report.valid
    dims = equivariant_dims(graph, CUTOFF)
    brep = basic_from_equivariant(dims, 3)
    basic = brep.series
    assert basic == DegreeSeries.from_coeffs([1, 0, 1, 0, 1, 0, 1], cutoff=CUTOFF)
    assert brep.total == 4
    betti = gysin_betti(GysinData.minimal(3))
    assert betti == (1, 0, 0, 0, 0, 0, 0, 1)


def test_criterion_7_morse_bott_consistency():
    unit = DegreeSeries((1,))
    for n in range(1, 5):
        data = MorseBottData(tuple((2 * i, unit) for i in range(n + 1)))
        assembled = morse_bott_assemble(data, CUTOFF)
        dims = equivariant_dims(builtin_simplex(n), CUTOFF)
        basic = basic_from_equivariant(dims, n + 1).series
        assert assembled == basic, f"n={n}"
    sphere = DegreeSeries((1, 0, 1))
    data = MorseBottData(((0, sphere), (2, sphere)))
    assembled = morse_bott_assemble(data, CUTOFF)
    dims = equivariant_dims(builtin_hirzebruch(1), CUTOFF)
    basic = basic_from_equivariant(dims, 2).series
    assert assembled == basic


ISOLATED_BUILTINS = [
    ("simplex1", lambda: builtin_simplex(1)),
    ("simplex2", lambda: builtin_simplex(2)),
    ("simplex3", lambda: builtin_simplex(3)),
    ("simplex4", lambda: builtin_simplex(4)),
    ("stiefel", builtin_stiefel),
]


def test_criterion_8a_odd_vanishing():
    for name, make in ISOLATED_BUILTINS:
        dims = equivariant_dims(make(), 21)
        for d in range(1, 22, 2):
            assert dims[d] == 0, f"{name} degree {d}"


def test_criterion_8b_recombination_trials():
    rng = random.Random(20260808)
    graphs = [
        builtin_simplex(1),
        builtin_simplex(2),
        builtin_simplex(3),
        builtin_fiber_join(1, 1),
        builtin_hirzebruch(1),
        builtin_stiefel(),
    ]
    cutoff = 10
    for graph in graphs:
        baseline = equivariant_dims(graph, cutoff)
        base_valid = validate_graph(graph).valid
        for _ in range(100):
            trial = recombined(graph, rng)
            assert validate_graph(trial).valid == base_valid
            assert equivariant_dims(trial, cutoff) == baseline


def test_criterion_8c_product_closure():
    for n in (1, 2, 3):
        graph = builtin_simplex(n)
        bases = {m: equivariant_basis(graph, m) for m in (0, 2, 4, 6, 8)}
        kernels = {}
        for m, classes in bases.items():
            _, total = _layout(graph, m)
            rows = [class_vector(graph, c) for c in classes]
            kernels[m] = (rows, total, rank_of_rows([list(r) for r in rows], total))
        for p in (0, 2, 4):
            for q in (0, 2, 4):
                if p + q > 8 or p > q:
                    continue
                for a in bases[p]:
                    for b in bases[q]:
                        prod = class_product(graph, a, b)
                        rows, total, base_rank = kernels[p + q]
                        stacked = [list(r) for r in rows]
                        stacked.append(class_vector(graph, prod))
                        assert rank_of_rows(stacked, total) == base_rank, (
                            f"product left the kernel: n={n}, degrees {p}+{q}"
                        )


def test_criterion_8d_point_fiber_reduction():
    skeletons = [
        builtin_simplex(1),
        builtin_simplex(2),
        builtin_simplex(3),
        builtin_stiefel(),
        # the underlying skeleton of the Hirzebruch graph
        GkmGraph(
            rank=2,
            vertices=tuple(
                GkmVertex(v.id, v.isotropy) for v in builtin_hirzebruch(1).vertices
            ),
            edges=tuple(
                GkmEdge(e.id, e.source, e.target, e.isotropy)
                for e in builtin_hirzebruch(1).edges
            ),
        ),
    ]
    pt = GradedVS.point()
    ident = GradedMap.identity(pt)
    for skeleton in skeletons:
        dressed = GkmGraph(
            rank=skeleton.rank,
            vertices=tuple(GkmVertex(v.id, v.isotropy, pt) for v in skeleton.vertices),
            edges=tuple(
                GkmEdge(e.id, e.source, e.target, e.isotropy, pt, ident, ident)
                for e in skeleton.edges
            ),
            manifold_dim=skeleton.manifold_dim,
            bottom_orbit_dim=skeleton.bottom_orbit_dim,
        )
        assert equivariant_dims(dressed, 12) == equivariant_dims(skeleton, 12)


def test_criterion_8e_linear_algebra_invariants():
    rng = random.Random(99991)
    # rank-nullity on random rational matrices
    for _ in range(25):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = MatrixQ.from_rows(random_matrix(rng, nr, nc), nc)
        from gkmcalc.exactlin import kernel_basis

        assert rank_of_rows(m.row_lists(), nc) + kernel_basis(m).rows == nc
    # restriction functoriality along randomized chains, degrees <= 6
    from gkmcalc.exactlin import canonical_subspace

    for _ in range(8):
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
            assert rank_of_rows(ab.row_lists(), ab.cols) == sym_dim(b.dim, d)


def test_criterion_9_validation_suite():
    from gkmcalc.exactlin import canonical_subspace

    # duplicated edge isotropy at a vertex
    dup = GkmGraph(
        rank=3,
        vertices=(
            GkmVertex("a", canonical_subspace([(1, 0, 0), (0, 1, 0)], 3)),
            GkmVertex("b", canonical_subspace([(1, 0, 0), (0, 0, 1)], 3)),
        ),
        edges=(
            GkmEdge("e1", "a", "b", canonical_subspace([(1, 0, 0)], 3)),
            GkmEdge("e2", "a", "b", canonical_subspace([(1, 0, 0)], 3)),
        ),
    )
    assert "GKM_CONDITION" in validate_graph(dup).failures

    s1 = builtin_simplex(1)
    disconnected = GkmGraph(
        rank=2,
        vertices=s1.vertices
        + tuple(GkmVertex(v.id + "'", v.isotropy) for v in s1.vertices),
        edges=s1.edges
        + tuple(
            GkmEdge(e.id + "'", e.source + "'", e.target + "'", e.isotropy)
            for e in s1.edges
        ),
    )
    assert "DISCONNECTED" in validate_graph(disconnected).failures

    loop = GkmGraph(
        rank=2,
        vertices=(GkmVertex("a", canonical_subspace([(1, 0)], 2)),),
        edges=(GkmEdge("e", "a", "a", canonical_subspace([], 2)),),
    )
    assert "SELF_LOOP" in validate_graph(loop).failures

    containment = GkmGraph(
        rank=2,
        vertices=(
            GkmVertex("a", canonical_subspace([(1, 0)], 2)),
            GkmVertex("b", canonical_subspace([(0, 1)], 2)),
        ),
        edges=(GkmEdge("e", "a", "b", canonical_subspace([(1, 0)], 2)),),
    )
    assert "CONTAINMENT" in validate_graph(containment).failures

    for g in (dup, disconnected, loop, containment):
        try:
            equivariant_dims(g, 4)
        except GkmError:
            pass
        else:
            raise AssertionError("invalid graph accepted by the kernel computation")
