"""Independent oracles shared by the test suite.

Everything here is deliberately brute force (enumeration, convolution,
rank-nullity counting) and never calls into the code paths it checks.

The dense kernel path is the exception: the dense integer row reduction
and the dense constraint assembly that the library's sparse pipeline
replaced, kept unchanged as the reference the sparse path must match.  It
shares the block layout, the validation, the class construction and
the restriction images (``symalg.restriction_images``) with the library;
:func:`dense_restriction_matrix` checks the last by plain substitution
over the rationals.  :func:`naive_rref`, textbook Gauss-Jordan over
``Fraction``, is the reference for the library's RREF, the rows of
``canonical_subspace``.  The subspace containment tests are others: the
dense ``Fraction`` reduction of each basis vector that the library
replaced with one rank, and that rank, which the library replaced with
reading the canonical form, both kept unchanged; :func:`rank_of_rows`
takes it by the dense reduction.
So is the ring product checked edge by edge: both endpoint polynomials
restricted along every edge and compared, the check that the library
replaced with the rows of its constraint system, here restricting through
:func:`dense_restriction_matrix` and :func:`mul_vector`, the dense
``Fraction`` matrix-vector product that the library no longer has; so are
:func:`matmul` and :func:`identity_matrix`, which only tests use.  And so
is :func:`dense`, the dense rational matrix of the restriction images,
which the library no longer builds.
And so is :func:`expanded_restriction_images`, which expands each
monomial of a degree on its own, the build that the library replaced with
growing each degree from the one below; and
:func:`grown_restriction_images`, that growth as it was on exponent
tuples, before the library grew each degree through the index tables of
its monomial bases.
And so are the per-incidence readings that one pass per vertex replaced
(:func:`incidence`): containment through ``coordinates``, which
validation read once per (vertex, edge) pair, the span test on every
column, :func:`_spanned`, and :func:`hyperplane_normal` called for each
incidence on its own.
And so is :func:`identity_block_dual_basis`, the dual basis as one
reduction of the functionals beside an identity block, which the library
replaced with a dense fraction-free solve that fills up with unit
functionals of its own; here they must be passed, and the reduction is
the dense one above.
And so are the layout and the sparse assembly as they were before the
library read each graph's fiber degrees and resolved each edge end's
restriction once per call (:func:`probing_layout`,
:func:`probing_constraint_rows`): every split 2d + q = m with d <= m/2 is
probed, and each edge end's pullback blocks and restriction are looked up
again at every degree.
And so are the rank path that flat slot lists replaced: the assembly of one
``{col: int}`` dict per row (:func:`dict_constraint_rows`), the union-find
on those dicts keyed by column (:func:`doubleton_classes`) and the
dimensions they give (:func:`union_find_equivariant_dims`).
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from gkmcalc.errors import InputShapeError, UnsupportedRingStructureError
from gkmcalc.exactlin import MatrixQ, _as_rational, _normalized, coordinates
from gkmcalc.exactlin import reduce_int_rows as sparse_reduce_int_rows
from gkmcalc.gkmcore import (
    EquivariantClass,
    GkmGraph,
    _adapted_bases,
    _classes_from_rows,
    _ends,
    _layout,
    _require_valid,
    _splits,
)
from gkmcalc.symalg import monomial_basis, restriction, restriction_images, sym_dim


def _compositions(total, parts):
    """All exponent tuples of the given length summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


def boundary_simplex_faces(n):
    """All proper subsets of {0..n}: the faces of the boundary of an n-simplex."""
    verts = list(range(n + 1))
    faces = []
    for k in range(n + 1):
        faces.extend(frozenset(c) for c in combinations(verts, k))
    return faces


def face_ring_dims_by_enumeration(faces, n_vars, max_degree):
    """Monomial count of a face ring per degree, by direct enumeration.

    Counts the degree-d monomials in n_vars variables whose support is a
    face; for the boundary of a simplex this is "not divisible by the
    product of all variables".
    """
    family = set(faces)
    dims = []
    for d in range(max_degree + 1):
        count = 0
        for expo in _compositions(d, n_vars):
            support = frozenset(i for i, e in enumerate(expo) if e)
            if support in family:
                count += 1
        dims.append(count)
    return dims


def simplex_equivariant_oracle(n, max_degree):
    """Expected equivariant dims of the simplex graph: the face-ring count
    of the boundary n-simplex with degree-2 generators."""
    poly = face_ring_dims_by_enumeration(
        boundary_simplex_faces(n), n + 1, max_degree // 2
    )
    return [
        poly[d // 2] if d % 2 == 0 else 0 for d in range(max_degree + 1)
    ]


def convolve(a, b, max_degree):
    """Coefficients of the product of two series, truncated."""
    out = [0] * (max_degree + 1)
    for i, x in enumerate(a):
        if i > max_degree:
            break
        for j, y in enumerate(b):
            if i + j > max_degree:
                break
            out[i + j] += x * y
    return out


def hirzebruch_equivariant_oracle(max_degree):
    """Hand kernel computation for the two-vertex, line-isotropy graph with
    sphere fibers (1,0,1) along a zero-isotropy edge.

    Unknowns at even degree m: per vertex one polynomial layer (d = m/2,
    q = 0) and one fiber layer (d = (m-2)/2, q = 2), each 1-dimensional.
    The only constraints restrict the polynomial degree-0 layer: one
    constant gluing at m = 0 and one scaled fiber gluing at m = 2.
    """
    dims = []
    for m in range(max_degree + 1):
        if m % 2:
            dims.append(0)
        elif m == 0:
            dims.append(2 - 1)
        elif m == 2:
            dims.append(4 - 1)
        else:
            dims.append(4)
    return dims


def gysin_rank_nullity_oracle(basic_dims, ranks):
    """Betti numbers from ranks of the Euler multiplications, by pure
    rank-nullity counting in the split short exact sequences."""
    n = len(basic_dims) - 1
    betti = [0] * (2 * n + 2)
    betti[0] = 1
    for k in range(n + 1):
        rank = ranks[k] if k < n else 0
        target = basic_dims[k + 1] if k < n else 0
        betti[2 * k + 1] = basic_dims[k] - rank
        if 2 * k + 2 < 2 * n + 2:
            betti[2 * k + 2] = target - rank
    return tuple(betti)


def square_faces():
    """Face family of a 4-cycle (boundary of a square)."""
    empty = [frozenset()]
    verts = [frozenset({i}) for i in range(4)]
    edges = [frozenset(p) for p in [(0, 1), (1, 2), (2, 3), (3, 0)]]
    return empty + verts + edges


# --- the dense kernel path ----------------------------------------------------


def _primitive(row, start):
    """Divide ``row[start:]`` by the gcd of its entries, in place."""
    g = 0
    for v in row[start:]:
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for j in range(start, len(row)):
            row[j] //= g


def reduce_int_rows(rows, ncols, rank_only=False):
    """Integer-normalized reduced row echelon form.

    ``rows`` is a list of equal-length lists of Python ints; it is consumed.
    Returns ``(reduced, pivots)`` where ``reduced[i]`` is a primitive integer
    vector with a positive entry in column ``pivots[i]`` and zeros in every
    other pivot column, rows ordered by pivot column and zero rows dropped.
    The rational RREF row is ``reduced[i]`` divided by its pivot entry.

    With ``rank_only=True`` the back substitution is skipped and ``reduced``
    holds an (unnormalized) echelon form; only ``pivots`` is meaningful.
    """
    rows = [row for row in rows if any(row)]
    for row in rows:
        _primitive(row, 0)
        # keep leading signs positive so pivot products stay positive
        for v in row:
            if v:
                if v < 0:
                    for j in range(len(row)):
                        row[j] = -row[j]
                break
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # smallest nonzero magnitude keeps the integer growth down
        best = -1
        best_abs = 0
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                a = -v if v < 0 else v
                if best < 0 or a < best_abs:
                    best = i
                    best_abs = a
                    if a == 1:
                        break
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        if prow[c] < 0:
            for j in range(c, ncols):
                prow[j] = -prow[j]
        piv = prow[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if piv == 1:
                for j in range(c, ncols):
                    row[j] -= f * prow[j]
            else:
                for j in range(c, ncols):
                    row[j] = piv * row[j] - f * prow[j]
            _primitive(row, c + 1)
            row[c] = 0
        pivots.append(c)
        r += 1
    del rows[r:]
    if rank_only:
        return rows, pivots
    for k in range(len(pivots) - 1, 0, -1):
        prow = rows[k]
        c = pivots[k]
        piv = prow[c]
        for i in range(k):
            row = rows[i]
            f = row[c]
            if not f:
                continue
            if piv == 1:
                for j in range(c, ncols):
                    row[j] -= f * prow[j]
            else:
                # prow is zero before c, but the whole of row i must be scaled
                start = pivots[i]
                for j in range(start, c):
                    row[j] = piv * row[j]
                for j in range(c, ncols):
                    row[j] = piv * row[j] - f * prow[j]
            _primitive(row, pivots[i])
            row[c] = 0
    return rows, pivots


def _scaled_int_rows(rows) -> list[list[int]]:
    """Clear denominators row by row; preserves the row space."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        if den == 1:
            out.append([int(x) for x in row])
        else:
            out.append([int(x * den) for x in row])
    return out


def rank_of_rows(rows, ncols):
    """Rank of dense rational rows by the dense integer reduction."""
    return len(reduce_int_rows(_scaled_int_rows(rows), ncols, rank_only=True)[1])


def identity_matrix(n):
    """The n x n identity :class:`MatrixQ`."""
    return MatrixQ(n, n, [int(i == j) for i in range(n) for j in range(n)])


def _dense_rref_rows(rows, ncols):
    """Rational RREF rows and pivots of dense rational rows."""
    int_rows, pivots = reduce_int_rows(_scaled_int_rows(rows), ncols)
    frac_rows = []
    for row, c in zip(int_rows, pivots):
        frac_rows.append([Fraction(v, row[c]) for v in row])
    return frac_rows, pivots


def naive_rref(rows):
    """RREF rows and pivots by plain Gauss-Jordan over ``Fraction``: no
    integer scaling, no pivot strategy."""
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


def _dense_block(pullback, q):
    """The block of a pullback in degree q as dense Fraction rows, or None."""
    rows = dict(pullback.blocks).get(q)
    if rows is None:
        return None
    out = []
    for den, pairs in rows:
        out.append([Fraction(0)] * pullback.source.dim(q))
        for c, n in pairs:
            out[-1][c] = Fraction(n, den)
    return out


def _constraint_rows(graph: GkmGraph, total_degree: int, blocks, total: int):
    """Rows of the edge-restriction map at one total degree."""
    rows: list[list] = []
    for e in graph.edges:
        ke = e.isotropy.dim
        for d in range(total_degree // 2 + 1):
            q = total_degree - 2 * d
            e_pdim = sym_dim(ke, d)
            e_fdim = e.edge_fiber.dim(q)
            if not e_pdim or not e_fdim:
                continue
            contributions = []
            for vid, pullback, sign in (
                (e.source, e.pullback_source, 1),
                (e.target, e.pullback_target, -1),
            ):
                block = blocks.get((vid, d, q))
                pb = _dense_block(pullback, q)
                if block is None or pb is None:
                    continue
                to_edge = restriction(graph.vertex(vid).isotropy.rows, e.isotropy.rows)
                rmat = dense(restriction_images(to_edge, d), e_pdim)
                contributions.append((block, rmat, pb, sign))
            if not contributions:
                continue
            for ir in range(e_pdim):
                for ip in range(e_fdim):
                    row = [0] * total
                    for (offset, pdim, fdim), rmat, pb, sign in contributions:
                        for jr in range(pdim):
                            r = rmat.entry(ir, jr)
                            if not r:
                                continue
                            base = offset + jr * fdim
                            for jp in range(fdim):
                                p = pb[ip][jp]
                                if p:
                                    row[base + jp] = sign * r * p
                    rows.append(row)
    return rows


def dense_equivariant_dims(graph, max_degree):
    """Kernel dimension per total degree, by the dense path."""
    _require_valid(graph)
    dims = []
    for m in range(max_degree + 1):
        blocks, total = _layout(graph, m)
        if total == 0:
            dims.append(0)
            continue
        rows = _constraint_rows(graph, m, blocks, total)
        _, pivots = reduce_int_rows(_scaled_int_rows(rows), total, rank_only=True)
        dims.append(total - len(pivots))
    return dims


def dense_equivariant_basis(graph, degree):
    """RREF kernel basis at one total degree, by the dense path."""
    _require_valid(graph)
    blocks, total = _layout(graph, degree)
    if total == 0:
        return []
    rows = _constraint_rows(graph, degree, blocks, total)
    red, pivots = _dense_rref_rows(rows, total)
    pivot_set = set(pivots)
    spanning = []
    for fc in range(total):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * total
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        spanning.append(v)
    kernel, _ = _dense_rref_rows(spanning, total)
    return _classes_from_rows(kernel, blocks, degree)


def rref_rows(space):
    """The rational RREF basis of a subspace: each stored integer row
    divided by its first nonzero entry."""
    out = []
    for row in space.rows:
        piv = next(x for x in row if x)
        out.append([Fraction(x, piv) for x in row])
    return out


def _pivot_columns(rows):
    return [next(j for j, x in enumerate(row) if x) for row in rows]


def dense(restriction, nrows):
    """The dense rational matrix of ``(scale, images)`` as
    ``symalg.restriction_images`` returns them, with ``nrows`` rows, one per
    sub monomial: column col is image col divided by the scale."""
    scale, images = restriction[:2]
    ncols = len(images)
    entries = [Fraction(0)] * (nrows * ncols)
    for col, image in enumerate(images):
        for mono, num in image:
            entries[mono * ncols + col] = Fraction(num, scale)
    return MatrixQ(nrows, ncols, entries)


def dense_restriction_matrix(ambient, sub, degree):
    """Restriction matrix by substituting the inclusion into each monomial
    with rational polynomial arithmetic."""
    piv = _pivot_columns(rref_rows(ambient))
    coords = [[row[p] for p in piv] for row in rref_rows(sub)]
    sub_monos = monomial_basis(sub.dim, degree).monomials
    amb_monos = monomial_basis(ambient.dim, degree).monomials
    columns = []
    for alpha in amb_monos:
        poly = {(0,) * sub.dim: Fraction(1)}
        for j, power in enumerate(alpha):
            for _ in range(power):
                out = {}
                for mono, coeff in poly.items():
                    for i in range(sub.dim):
                        key = tuple(e + (k == i) for k, e in enumerate(mono))
                        out[key] = out.get(key, 0) + coeff * coords[i][j]
                poly = out
        columns.append(poly)
    return MatrixQ.from_rows(
        [[col.get(mono, 0) for col in columns] for mono in sub_monos], len(amb_monos)
    )


def _expand_monomial(alpha, linear_forms, nvars_sub):
    """Expand prod_j (linear_forms[j]) ** alpha[j] into {exponent: coeff}."""
    poly = {(0,) * nvars_sub: 1}
    for j, power in enumerate(alpha):
        if not power:
            continue
        form = linear_forms[j]
        if not form:
            return {}
        if len(form) == 1:
            # a single term only shifts exponents, all powers at once
            i, c = form[0]
            cp = c**power
            poly = {
                mono[:i] + (mono[i] + power,) + mono[i + 1 :]: coeff * cp
                for mono, coeff in poly.items()
            }
            continue
        for _ in range(power):
            out = {}
            for mono, coeff in poly.items():
                for i, c in form:
                    key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                    prev = out.get(key)
                    out[key] = coeff * c if prev is None else prev + coeff * c
            poly = {k: v for k, v in out.items() if v}
            if not poly:
                return {}
    return poly


def expanded_restriction_images(ambient, sub, degree):
    """``(scale, images)`` of one degree along a pair of bases, as
    ``symalg.restriction_images`` returns them but with each image sorted,
    each ambient monomial expanded on its own as a product of the linear
    forms of :func:`~gkmcalc.exactlin.coordinates`; None when sub's span is
    not in ambient's."""
    inc = coordinates(ambient, sub)
    if inc is None:
        return None
    den, linear_forms = inc
    index = monomial_basis(len(sub), degree).index
    return den**degree, tuple(
        tuple(sorted((index[mono], coeff)
                     for mono, coeff in _expand_monomial(alpha, linear_forms, len(sub)).items()))
        for alpha in monomial_basis(len(ambient), degree).monomials
    )


def _times_forms(prev, ambient_dim: int, sub_dim: int, degree: int, forms):
    """The images of degree ``degree`` from those of the degree below: the
    image of an ambient monomial alpha is the image of alpha - e_j times form
    j, j the first variable of alpha."""
    prev_index = monomial_basis(ambient_dim, degree - 1).index
    below = monomial_basis(sub_dim, degree - 1).monomials
    sub_index = monomial_basis(sub_dim, degree).index
    images = []
    for alpha in monomial_basis(ambient_dim, degree).monomials:
        j = alpha.index(next(filter(None, alpha)))
        poly: dict[tuple[int, ...], int] = {}
        for pos, num in prev[prev_index[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]]:
            mono = below[pos]
            for i, c in forms[j]:
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                poly[key] = poly.get(key, 0) + num * c
        images.append(tuple(sorted((sub_index[mono], coeff)
                                   for mono, coeff in poly.items() if coeff)))
    return tuple(images)


def grown_restriction_images(ambient, sub, degree):
    """``(scale, images)`` as :func:`expanded_restriction_images` gives them,
    grown from degree 0 by the tuple-keyed :func:`_times_forms`, with no
    cache of maps; None when sub's span is not in ambient's."""
    inc = coordinates(ambient, sub)
    if inc is None:
        return None
    den, forms = inc
    scale, images = 1, (((0, 1),),)
    for d in range(1, degree + 1):
        scale, images = scale * den, _times_forms(images, len(ambient), len(sub), d, forms)
    return scale, images


def matmul(a, b):
    """The dense ``Fraction`` product of two :class:`MatrixQ`."""
    if a.cols != b.rows:
        raise InputShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return MatrixQ(a.rows, b.cols, [
        sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)
    ])


def mul_vector(matrix, vec):
    """The dense ``Fraction`` product of a :class:`MatrixQ` with a vector."""
    vec = [_as_rational(x) for x in vec]
    if len(vec) != matrix.cols:
        raise InputShapeError("vector length does not match column count")
    return tuple(
        sum(matrix.entry(i, k) * vec[k] for k in range(matrix.cols))
        for i in range(matrix.rows)
    )


def edgewise_class_product(graph, a, b):
    """Componentwise product of two point-fiber kernel classes; raises
    :class:`InputShapeError` when the two endpoint polynomials of some edge
    restrict to different values."""
    _require_valid(graph)
    if not graph.is_point_fibered:
        raise UnsupportedRingStructureError(
            "ring structure is only computed for graphs with point fibers"
        )
    if a.degree % 2 or b.degree % 2:
        raise InputShapeError("point-fiber classes live in even degrees")
    degree = a.degree + b.degree
    d = degree // 2
    comps = []
    coeffs = {}
    for v in graph.vertices:
        prod = {}
        for ma, ca in a.vertex_polynomial(graph, v.id).items():
            for mb, cb in b.vertex_polynomial(graph, v.id).items():
                key = tuple(x + y for x, y in zip(ma, mb))
                prod[key] = prod.get(key, 0) + ca * cb
        basis = monomial_basis(v.isotropy.dim, d)
        coeffs[v.id] = [Fraction(prod.get(mono, 0)) for mono in basis.monomials]
        if any(coeffs[v.id]):
            comps.append((v.id, d, 0, MatrixQ(len(basis), 1, coeffs[v.id])))
    for e in graph.edges:
        values = [
            mul_vector(dense_restriction_matrix(graph.vertex(vid).isotropy, e.isotropy, d),
                       coeffs[vid])
            for vid in (e.source, e.target)
        ]
        if values[0] != values[1]:
            raise InputShapeError(f"inputs do not satisfy the constraint along edge {e.id!r}")
    return EquivariantClass(degree, tuple(comps))


def _contains_vector(space, vec) -> bool:
    """Whether ``vec`` lies in ``space``: reduce it by the RREF basis rows
    in ``Fraction`` arithmetic and test the remainder for zero."""
    v = [_as_rational(x) for x in vec]
    if len(v) != space.ambient_dim:
        raise InputShapeError("vector length does not match ambient dimension")
    basis = rref_rows(space)
    for row, pc in zip(basis, _pivot_columns(basis)):
        f = v[pc]
        if f:
            for j in range(pc, space.ambient_dim):
                v[j] -= f * row[j]
    return not any(v)


def contains(space, other) -> bool:
    if space.ambient_dim != other.ambient_dim:
        raise InputShapeError("ambient dimensions differ")
    return all(_contains_vector(space, row) for row in rref_rows(other))


def subspace_relations_by_reduction(a, b):
    """``(a_contains_b, b_contains_a, dim_a, dim_b)``, each containment by
    reducing every basis vector of one subspace against the other."""
    return contains(a, b), contains(b, a), a.dim, b.dim


def subspace_relations_by_rank(a, b):
    """``(a_contains_b, b_contains_a, dim_a, dim_b)`` from one rank: a
    contains b iff stacking b's basis under a's adds nothing to the rank of
    a's, and vice versa."""
    r = rank_of_rows(a.rows + b.rows, a.ambient_dim)
    return r == a.dim, r == b.dim, a.dim, b.dim


def _spanned(vectors, rows, pivots) -> bool:
    """Whether every vector lies in the span of reduced echelon int rows: in
    it iff its entries at the pivots recombine the rows, each over its pivot
    entry, into it, compared at every column, the pivots too."""
    scale = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return all(
        scale * x == sum(vec[p] * (scale // row[p]) * row[j] for row, p in zip(rows, pivots))
        for vec in vectors for j, x in enumerate(vec)
    )


def hyperplane_normal(ambient, sub):
    """The primitive integer functional, positive first, whose kernel in
    ambient is sub, in the coordinates dual to ambient's canonical basis,
    for a hyperplane sub of ambient, with the pivots of both taken anew:
    sub's pivots are ambient's but one, s, and its canonical basis row i is
    the ambient basis row of its own pivot plus ``r_i[p_s] / r_i[c_i]``
    times row s."""
    apiv = ambient.pivot_columns()
    spiv = sub.pivot_columns()
    s = next(m for m, p in enumerate(apiv) if p not in spiv)
    den = lcm(*(row[c] for row, c in zip(sub.rows, spiv)))
    normal = [0] * ambient.dim
    normal[s] = den
    for row, c in zip(sub.rows, spiv):
        normal[apiv.index(c)] = -row[apiv[s]] * (den // row[c])
    g = gcd(*normal)
    if next(x for x in normal if x) < 0:
        g = -g
    return tuple(x // g for x in normal)


def identity_block_dual_basis(ambient, functionals):
    """``(kept, lines)`` as ``exactlin.dual_basis`` gives them, where the
    functionals must already span the dual of ambient (pass the unit
    functionals last to fill up): one reduction of the functionals as columns
    beside the identity, one row per canonical coordinate, here by the dense
    :func:`reduce_int_rows`; its pivot columns are the kept functionals, and
    the identity block of reduced row i is line i in canonical coordinates,
    up to a positive scalar.  Raises InputShapeError when fewer than
    ``ambient.dim`` are independent, which puts a pivot in the identity
    block."""
    k, m = ambient.dim, len(functionals)
    red, kept = reduce_int_rows(
        [[f[c] for f in functionals] + [int(i == c) for i in range(k)] for c in range(k)], m + k)
    if kept and kept[-1] >= m:
        raise InputShapeError(f"fewer than {k} independent functionals")
    # canonical basis row c is ambient.rows[c] over its pivot entry
    leads = [row[p] for row, p in zip(ambient.rows, ambient.pivot_columns())]
    den = lcm(*leads)
    lines = []
    for row in red:
        coeffs = [(row[m + c] * (den // lead), b)
                  for c, (lead, b) in enumerate(zip(leads, ambient.rows)) if row[m + c]]
        lines.append(_normalized([sum(x * b[j] for x, b in coeffs)
                                  for j in range(ambient.ambient_dim)]))
    return kept, lines


def incidence(ambient, sub):
    """``(contained, codimension, normal)`` of sub in ambient, read on their
    own: containment through ``coordinates`` on the canonical rows, which
    must agree with :func:`_spanned`, and the normal by
    :func:`hyperplane_normal` when sub is a hyperplane of ambient, else
    None."""
    contained = coordinates(ambient.rows, sub.rows) is not None
    assert contained == _spanned(sub.rows, ambient.rows, ambient.pivot_columns())
    codim = ambient.dim - sub.dim
    return contained, codim, hyperplane_normal(ambient, sub) if contained and codim == 1 else None


def probing_layout(graph: GkmGraph, total_degree: int):
    """``(blocks, total)`` of one total degree, every split probed."""
    blocks = {}
    offset = 0
    for v in graph.vertices:
        k = v.isotropy.dim
        for d in range(total_degree // 2 + 1):
            q = total_degree - 2 * d
            pdim = sym_dim(k, d)
            fdim = v.fiber.dim(q)
            if pdim and fdim:
                blocks[v.id, d, q] = offset, pdim, fdim
                offset += pdim * fdim
    return blocks, offset


def probing_constraint_rows(graph: GkmGraph, total_degree: int, blocks, total: int, bases=None):
    """The sparse ``{col: int}`` rows of one total degree, every split
    probed and every edge end's data looked up again, in the canonical
    isotropy bases or in ``bases`` as ``gkmcore._adapted_bases`` gives
    them."""
    if bases is None:
        bases = ({v.id: v.isotropy.rows for v in graph.vertices},
                 {e.id: e.isotropy.rows for e in graph.edges})
    vertex_bases, edge_bases = bases
    rows: list[dict[int, int]] = []
    for e in graph.edges:
        ke = e.isotropy.dim
        for d in range(total_degree // 2 + 1):
            q = total_degree - 2 * d
            e_pdim = sym_dim(ke, d)
            e_fdim = e.edge_fiber.dim(q)
            if not e_pdim or not e_fdim:
                continue
            contributions = []
            for vid, pullback, sign in (
                (e.source, e.pullback_source, 1),
                (e.target, e.pullback_target, -1),
            ):
                block = blocks.get((vid, d, q))
                prows = dict(pullback.blocks).get(q)
                if block is None or prows is None:
                    continue
                scale, _, live = restriction_images(
                    restriction(vertex_bases[vid], edge_bases[e.id]), d)
                contributions.append((block, scale, live, prows, sign))
            den = [
                lcm(*(scale * prows[ip][0] for _, scale, _, prows, _ in contributions))
                for ip in range(e_fdim)
            ]
            grid = [{} for _ in range(e_pdim * e_fdim)]
            for (offset, _, width), scale, live, prows, sign in contributions:
                for ip, (pden, ppairs) in enumerate(prows):
                    f = sign * (den[ip] // (scale * pden))
                    for col, image in live:
                        base = offset + col * width
                        for ir, r in image:
                            row = grid[ir * e_fdim + ip]
                            for jp, p in ppairs:
                                row[base + jp] = f * r * p
            rows += filter(None, grid)
    return rows


def dict_constraint_rows(graph: GkmGraph, total_degree: int, blocks, total: int, ends):
    """The sparse ``{col: int}`` rows of one total degree, each scattered
    straight into a dict of its own, in the coordinates of ``ends`` as
    ``gkmcore._ends`` gives them; rows that are zero are left out."""
    rows: list[dict[int, int]] = []
    for e, edge_ends in zip(graph.edges, ends):
        for d, q, e_pdim, e_fdim in _splits(e.edge_fiber, e.isotropy.dim, total_degree):
            contributions = []
            for vid, sign, pblocks, to_edge in edge_ends:
                block = blocks.get((vid, d, q))
                prows = pblocks.get(q)
                if block is None or prows is None:
                    continue
                scale, _, live = restriction_images(to_edge, d)
                contributions.append((block, scale, live, prows, sign))
            den = [
                lcm(*(scale * prows[ip][0] for _, scale, _, prows, _ in contributions))
                for ip in range(e_fdim)
            ]
            grid = [{} for _ in range(e_pdim * e_fdim)]
            for (offset, _, width), scale, live, prows, sign in contributions:
                for ip, (pden, ppairs) in enumerate(prows):
                    f = sign * (den[ip] // (scale * pden))
                    for col, image in live:
                        base = offset + col * width
                        for ir, r in image:
                            row = grid[ir * e_fdim + ip]
                            for jp, p in ppairs:
                                row[base + jp] = f * r * p
            rows += filter(None, grid)
    return rows


def _find(up, c):
    """``(root, num, den)`` with ``x_c = num / den * x_root`` for a non-root
    column c of the weighted union-find ``up`` (non-root column ->
    ``(parent, num, den)``); points every column on the path straight at
    the root."""
    link = up[c]
    if link[0] not in up:
        return link
    path = []
    while c in up:
        path.append(c)
        c = up[c][0]
    num = den = 1
    for k in reversed(path):
        _, n, d = up[k]
        num *= n
        den *= d
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        up[k] = (c, num, den)
    return c, num, den


def doubleton_classes(rows, ncols):
    """The classes of columns that sparse rows of at most two entries tie
    together, or None at the first row of three or more; empty rows are
    skipped and ``rows`` is left as it is.

    A forced zero is the extra column ``zero = ncols``: a one-entry row
    ``{c: a}`` is read as ``{c: a, zero: 1}``.  Each class is held at
    ``x_c = num / den * x_root``, its root its largest column; the returned
    ``up`` maps each non-root column to its parent and factor, so its
    sorted keys are the pivots.  A row closing a cycle whose factors
    disagree hangs its root under ``zero``, unless that root is ``zero``.
    """
    zero = ncols
    up: dict[int, tuple[int, int, int]] = {}
    for row in rows:
        if len(row) == 2:
            (i, a), (j, b) = row.items()
        elif len(row) == 1:
            (i, a), (j, b) = *row.items(), (zero, 1)
        elif row:
            return None
        else:
            continue
        ri, ni, di = _find(up, i) if i in up else (i, 1, 1)
        rj, nj, dj = _find(up, j) if j in up else (j, 1, 1)
        # a * ni/di * x_ri + b * nj/dj * x_rj = 0
        num, den = -b * nj * di, a * ni * dj
        if ri == rj:
            if num != den and ri != zero:
                up[ri] = (zero, 1, 1)
            continue
        if ri > rj:
            ri, rj, num, den = rj, ri, den, num
        # x_ri = num/den * x_rj: the smaller root hangs under the larger
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        up[ri] = (rj, num // g, den // g)
    return up


def union_find_equivariant_dims(graph, max_degree):
    """Kernel dimension per total degree in the adapted bases, from the dict
    rows: :func:`doubleton_classes` where every row has at most two
    entries, else the library's fixed-order loop."""
    _require_valid(graph)
    ends = _ends(graph, _adapted_bases(graph))
    dims = []
    for m in range(max_degree + 1):
        blocks, total = _layout(graph, m)
        rows = dict_constraint_rows(graph, m, blocks, total, ends)
        up = doubleton_classes(rows, total)
        pivots = sorted(up) if up is not None else sparse_reduce_int_rows(
            rows, total, rank_only=True)[1]
        dims.append(total - len(pivots))
    return dims
