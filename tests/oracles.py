"""Independent oracles shared by the test suite.

Everything here is deliberately brute force (enumeration, convolution,
rank-nullity counting) and never calls into the code paths it checks.

The dense kernel path is the exception: the dense integer row reduction
and the dense constraint assembly that the library's sparse pipeline
replaced, kept unchanged as the reference the sparse path must match.  It
shares the block layout, the validation, the class construction and
the restriction maps with the library; :func:`dense_restriction_matrix`
checks the last by plain substitution over the rationals.  The subspace
containment test is another: the dense ``Fraction`` reduction of each
basis vector that the library replaced with one rank, kept unchanged.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from gkmcalc.errors import InputShapeError
from gkmcalc.exactlin import MatrixQ, _as_rational
from gkmcalc.gkmcore import GkmGraph, _classes_from_rows, _layout, _require_valid
from gkmcalc.symalg import monomial_basis, restriction_matrix, sym_dim


def compositions(total, parts):
    """All exponent tuples of the given length summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
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
        for expo in compositions(d, n_vars):
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


def truncated_power_betti(n):
    """Betti numbers of a (2n+1)-sphere-like tower: identity Euler maps."""
    betti = [0] * (2 * n + 2)
    betti[0] = betti[2 * n + 1] = 1
    return tuple(betti)


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


def all_exponent_supports(n_vars, degree):
    """(exponent tuple, support) pairs: handy for custom face families."""
    return [
        (expo, frozenset(i for i, e in enumerate(expo) if e))
        for expo in compositions(degree, n_vars)
    ]


def square_faces():
    """Face family of a 4-cycle (boundary of a square)."""
    empty = [frozenset()]
    verts = [frozenset({i}) for i in range(4)]
    edges = [frozenset(p) for p in [(0, 1), (1, 2), (2, 3), (3, 0)]]
    return empty + verts + edges


def product_bases(*ranges):
    return list(product(*ranges))


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


def dense_rref_rows(rows, ncols):
    """Rational RREF rows and pivots of dense rational rows."""
    int_rows, pivots = reduce_int_rows(_scaled_int_rows(rows), ncols)
    frac_rows = []
    for row, c in zip(int_rows, pivots):
        frac_rows.append([Fraction(v, row[c]) for v in row])
    return frac_rows, pivots


def _constraint_rows(graph: GkmGraph, total_degree: int, blocks, total: int):
    """Rows of the edge-restriction map at one total degree."""
    index = {(b.vertex, b.poly_degree, b.fiber_degree): b for b in blocks}
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
                block = index.get((vid, d, q))
                pb = pullback.block(q)
                if block is None or pb is None:
                    continue
                rmat = restriction_matrix(
                    graph.vertex(vid).isotropy, e.isotropy, d
                ).matrix
                contributions.append((block, rmat, pb, sign))
            if not contributions:
                continue
            for ir in range(e_pdim):
                for ip in range(e_fdim):
                    row = [0] * total
                    for block, rmat, pb, sign in contributions:
                        for jr in range(block.poly_dim):
                            r = rmat.entry(ir, jr)
                            if not r:
                                continue
                            base = block.offset + jr * block.fiber_dim
                            for jp in range(block.fiber_dim):
                                p = pb.entry(ip, jp)
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
    red, pivots = dense_rref_rows(rows, total)
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
    kernel, _ = dense_rref_rows(spanning, total)
    return _classes_from_rows(kernel, blocks, degree)


def dense_restriction_matrix(ambient, sub, degree):
    """Restriction matrix by substituting the inclusion into each monomial
    with rational polynomial arithmetic."""
    piv = ambient.pivot_columns()
    coords = [[sub.basis.entry(i, p) for p in piv] for i in range(sub.dim)]
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


def contains_vector(space, vec) -> bool:
    """Whether ``vec`` lies in ``space``: reduce it by the RREF basis rows
    in ``Fraction`` arithmetic and test the remainder for zero."""
    v = [_as_rational(x) for x in vec]
    if len(v) != space.ambient_dim:
        raise InputShapeError("vector length does not match ambient dimension")
    for i, pc in enumerate(space.pivot_columns()):
        f = v[pc]
        if f:
            row = space.basis.row(i)
            for j in range(pc, space.ambient_dim):
                v[j] -= f * row[j]
    return not any(v)


def contains(space, other) -> bool:
    if space.ambient_dim != other.ambient_dim:
        raise InputShapeError("ambient dimensions differ")
    return all(contains_vector(space, other.basis.row(i)) for i in range(other.dim))


def subspace_relations_by_reduction(a, b):
    """``(a_contains_b, b_contains_a, dim_a, dim_b)``, each containment by
    reducing every basis vector of one subspace against the other."""
    return contains(a, b), contains(b, a), a.dim, b.dim
