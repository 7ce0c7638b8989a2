"""Exact rational linear algebra.

Everything in gkmcalc is computed over the rationals with exact
arithmetic, on integer rows: one sparse fraction-free elimination gives
ranks, reduced row echelon forms, kernel bases and canonical subspaces,
and :class:`fractions.Fraction` entries appear only at the edges
(:class:`MatrixQ`, JSON).  No floating point appears anywhere; equality
of dimensions and subspaces is decidable and deterministic.

Rationals serialize to JSON as bare integers when the denominator is 1 and
as strings ``"p/q"`` otherwise; vectors are arrays, matrices arrays of
arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm

from .errors import InputShapeError

#: The coefficient field. ``fractions.Fraction`` already guarantees the
#: reduced-form invariants (positive denominator, gcd-free) and exact
#: closure under field operations.
Rational = Fraction


_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def is_int(value) -> bool:
    """True for a JSON integer; ``bool`` is an ``int`` subclass but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


#: Ints of at most this many bits have fewer decimal digits than the lowest
#: int-to-str digit limit Python allows (640), so they are written unchecked.
_SHORT_INT_BITS = 3 * 640


def rational_to_json(q: Fraction):
    """``3/2 -> "3/2"``, ``-4 -> -4`` (bare int for denominator 1).

    Raises InputShapeError for a rational that JSON cannot write, past
    Python's int-to-str digit limit."""
    try:
        if q.denominator == 1:
            n = q.numerator
            if n.bit_length() > _SHORT_INT_BITS:
                str(n)  # what json.dumps will do, so that it fails here
            return n
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # past Python's int-to-str digit limit
        raise InputShapeError(f"cannot write a rational: {exc}") from None


def rational_from_json(obj) -> Fraction:
    """Inverse of :func:`rational_to_json`: an int, or a ``"p"``/``"p/q"`` string."""
    if is_int(obj):
        return Fraction(obj)
    if not isinstance(obj, str) or not _RATIONAL_STRING.fullmatch(obj):
        raise InputShapeError(f"rationals must be ints or 'p/q' strings, got {obj!r}")
    try:
        return Fraction(obj)
    except ZeroDivisionError as exc:
        raise InputShapeError(f"bad rational {obj!r}: {exc}") from None
    except ValueError as exc:  # past Python's str-to-int digit limit
        raise InputShapeError(f"rational of {len(obj)} characters: {exc}") from None


def _as_rational(value) -> Fraction:
    """The one gate for rational library input: a ``Fraction``, an int (not a
    bool) or a string in the JSON form; anything else raises InputShapeError."""
    return value if isinstance(value, Fraction) else rational_from_json(value)


def vector_to_json(vec):
    return [rational_to_json(x) for x in vec]


def vector_from_json(obj) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise InputShapeError(f"vector must be a JSON array, got {obj!r}")
    return tuple(rational_from_json(x) for x in obj)


@dataclass(frozen=True, slots=True)
class MatrixQ:
    """Immutable rational matrix, row-major.

    >>> MatrixQ.from_rows([[1, 2], [3, "1/2"]]).entry(1, 1)
    Fraction(1, 2)
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        entries = tuple(_as_rational(x) for x in self.entries)
        if self.rows < 0 or self.cols < 0 or len(entries) != self.rows * self.cols:
            raise InputShapeError(
                f"matrix shape {self.rows}x{self.cols} does not match {len(entries)} entries"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "MatrixQ":
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise InputShapeError("column count required for an empty matrix")
            cols = len(rows[0])
        for r in rows:
            if len(r) != cols:
                raise InputShapeError("ragged rows in matrix input")
        return cls(len(rows), cols, [x for r in rows for x in r])

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self):
        return f"MatrixQ({self.rows}x{self.cols}, {self.row_lists()!r})"

    def to_json(self):
        return [vector_to_json(self.row(i)) for i in range(self.rows)]


# --- integer row reduction ---------------------------------------------------
#
# The elimination runs on sparse integer rows ``{column: int}`` that hold no
# zero entries.  Scaling each rational row to integers first lets it run
# entirely in (arbitrary-precision) integer arithmetic: a fraction-free
# variant of Gauss-Jordan where every row combination is followed by a gcd
# normalization.  The output is the unique reduced row echelon form in
# integer-normalized presentation, so the result is independent of pivot
# choices and identical to plain Gauss-Jordan over the rationals.


def int_row(values) -> tuple[int, dict[int, int]]:
    """``(den, {col: num})`` with ``values[col] == num / den`` at every nonzero.

    ``den`` is the lcm of the denominators of the (int or Fraction) values.
    """
    den = 1
    for x in values:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return den, {c: x.numerator * (den // x.denominator) for c, x in enumerate(values) if x}


# A matrix the library holds, a pullback block or an Euler map, is a tuple of
# int rows ``(den, ((col, num), ...))``: the entry in column col is num / den,
# with nonzero nums at increasing columns and den the least common
# denominator, so equal matrices are equal values.  JSON writes them dense.


def is_int_row(row, cols: int) -> bool:
    """Whether ``row`` is an int row with every column below ``cols``."""
    den, pairs = row
    last, g = -1, den
    for c, n in pairs:
        if not (n and last < c < cols):
            return False
        last, g = c, gcd(g, n)
    return den > 0 and g == 1


def int_rows_from_json(obj, cols: int):
    """The int rows of a JSON matrix whose rows have ``cols`` entries each."""
    if not isinstance(obj, list):
        raise InputShapeError(f"matrix must be an array of arrays, got {obj!r}")
    vectors = [vector_from_json(r) for r in obj]
    if any(len(v) != cols for v in vectors):
        raise InputShapeError("ragged rows in matrix input")
    return tuple((den, tuple(pairs.items())) for den, pairs in map(int_row, vectors))


def int_rows_to_json(rows, cols: int):
    """The JSON matrix of int rows over ``cols`` columns, zeros written out."""
    out = []
    for den, pairs in rows:
        values = [0] * cols
        for c, n in pairs:
            values[c] = Fraction(n, den)
        out.append(vector_to_json(values))
    return out


def _primitive(row):
    """Divide the entries of a sparse row by their gcd, in place."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(row, prow, c):
    """Replace ``row`` by a primitive multiple of ``piv * row - f * prow``
    with ``f = row[c]`` and ``piv = prow[c] > 0``, which cancels column c."""
    f = row[c]
    piv = prow[c]
    if piv != 1:
        g = gcd(piv, f)
        piv //= g
        f //= g
        for k in row:
            row[k] *= piv
    for k, v in prow.items():
        x = row.get(k, 0) - f * v
        if x:
            row[k] = x
        else:
            del row[k]
    _primitive(row)


def _find(up, c):
    """``(root, num, den)`` with ``x_c = num / den * x_root`` in the weighted
    union-find ``up`` (column -> ``(parent, num, den)``, None at a root);
    points every column on the path straight at the root."""
    path = []
    while up[c] is not None:
        path.append(c)
        c = up[c][0]
    num = den = 1
    for k in reversed(path):
        _, n, d = up[k]
        num, den = num * n, den * d
        g = gcd(num, den)
        num, den = num // g, den // g
        up[k] = (c, num, den)
    return c, num, den


def pair_pivots(rows, ncols) -> list[int]:
    """The pivot columns, increasing, of rows of at most two entries, by a
    weighted union-find on the columns (LaMacchia and Odlyzko, CRYPTO '90).

    A row ``(i, a, j, b)`` is ``a * x_i + b * x_j = 0``, no entry zero, over
    columns ``0..ncols``; ``zero = ncols`` is a forced zero, so ``(i, a,
    ncols, 1)`` is the row ``{i: a}`` and ``(ncols, 1, ncols, 1)`` is empty.
    A class holds ``x_c = num / den * x_root``, its root its largest column;
    a row closing a cycle whose factors disagree hangs the root under
    ``zero``.  With ``x_zero = 0`` appended, the rows span what the forest
    rows ``x_c = f * x_parent`` span, and those lead with the non-roots.
    """
    zero = ncols
    up: list[tuple[int, int, int] | None] = [None] * (ncols + 1)
    for i, a, j, b in rows:
        # a root, a child of a root, or found along its path
        link = up[i]
        ri, ni, di = (i, 1, 1) if link is None else link if up[link[0]] is None else _find(up, i)
        link = up[j]
        rj, nj, dj = (j, 1, 1) if link is None else link if up[link[0]] is None else _find(up, j)
        # a * ni/di * x_ri + b * nj/dj * x_rj = 0
        num, den = -b * nj * di, a * ni * dj
        if ri == rj:
            if num != den and ri != zero:
                up[ri] = (zero, 1, 1)
            continue
        if ri > rj:
            ri, rj, num, den = rj, ri, den, num
        # x_ri = num/den * x_rj: the smaller root hangs under the larger
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        up[ri] = (rj, num // g, den // g)
    return list(compress(range(ncols), up))


def reduce_int_rows(rows, ncols, rank_only=False):
    """Integer-normalized reduced row echelon form of sparse integer rows.

    ``rows`` is a list of ``{column: int}`` dicts over columns
    ``0..ncols-1`` without zero entries; it is consumed.  Returns
    ``(reduced, pivots)`` where ``reduced[i]`` is a primitive sparse
    integer row with a positive entry in column ``pivots[i]`` and no entry
    in any other pivot column, rows ordered by pivot column and zero rows
    dropped.  The rational RREF row is ``reduced[i]`` divided by its pivot
    entry.

    Columns are eliminated in increasing order; the pivot for a column is
    the row that leads with it and has the fewest nonzeros, then the
    smallest entry there, which keeps fill-in and integer growth low.

    With ``rank_only=True`` only ``pivots`` is meaningful, and they are the
    same.  When every row has at most two entries, :func:`pair_pivots` finds
    them, a missing entry read as the forced zero column ``ncols``; ``reduced``
    is then empty and ``rows`` is left as it is.  Otherwise the loop runs on
    every row, without back substitution, and ``reduced`` holds an echelon form.
    """
    if rank_only and all(len(row) <= 2 for row in rows):
        pairs = ((*row.items(), (ncols, 1), (ncols, 1))[:2] for row in rows)
        return [], pair_pivots(((i, a, j, b) for (i, a), (j, b) in pairs), ncols)
    # rows grouped by their leading column; every row still in a group is
    # zero left of that column
    groups: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            _primitive(row)
            groups.setdefault(min(row), []).append(row)
    reduced = []
    pivots = []
    for c in range(ncols):
        if not groups:
            break
        group = groups.pop(c, None)
        if group is None:
            continue
        prow = min(group, key=lambda row: (len(row), abs(row[c])))
        if prow[c] < 0:
            for k in prow:
                prow[k] = -prow[k]
        for row in group:
            if row is prow:
                continue
            _eliminate(row, prow, c)
            if row:
                groups.setdefault(min(row), []).append(row)
        reduced.append(prow)
        pivots.append(c)
    if rank_only:
        return reduced, pivots
    # back substitution, last row first: the rows below are already reduced,
    # so cancelling one pivot column brings in no other
    where = {c: i for i, c in enumerate(pivots)}
    for i in range(len(reduced) - 2, -1, -1):
        row = reduced[i]
        for c in [c for c in row if c in where and c != pivots[i]]:
            _eliminate(row, reduced[where[c]], c)
    return reduced, pivots


def kernel_rows(rows, ncols: int) -> list[list[Fraction]]:
    """RREF basis of the right null space of sparse integer rows.

    ``rows`` is consumed as by :func:`reduce_int_rows`; the basis comes
    back as dense rational rows.
    """
    red, pivots = reduce_int_rows(rows, ncols)
    # free column -> (pivot column, entry, pivot entry) of each row using it
    uses: dict[int, list[tuple[int, int, int]]] = {}
    for row, pc in zip(red, pivots):
        piv = row[pc]
        for c, v in row.items():
            if c != pc:
                uses.setdefault(c, []).append((pc, v, piv))
    pivot_set = set(pivots)
    spanning = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        entries = uses.get(fc, ())
        den = lcm(*(piv for _, _, piv in entries))
        vec = {fc: den}
        for pc, v, piv in entries:
            vec[pc] = -v * (den // piv)
        spanning.append(vec)
    basis, bpivots = reduce_int_rows(spanning, ncols)
    out = []
    for row, c in zip(basis, bpivots):
        piv = row[c]
        dense = [Fraction(0)] * ncols
        for k, v in row.items():
            dense[k] = Fraction(v, piv)
        out.append(dense)
    return out


def kernel_basis(m: MatrixQ) -> MatrixQ:
    """Basis of the right null space, presented in RREF.

    The row count is ``m.cols - rank(m)`` (rank-nullity) and every row ``v``
    satisfies ``m . v^T = 0`` exactly.
    """
    rows = [int_row(m.row(i))[1] for i in range(m.rows)]
    return MatrixQ.from_rows(kernel_rows(rows, m.cols), m.cols)


@dataclass(frozen=True)
class SubspaceQ:
    """A rational subspace of Q^ambient_dim in canonical form.

    ``rows`` is the RREF basis with each row scaled to its primitive
    integer multiple with a positive pivot, as dense int tuples ordered by
    pivot column (the form :func:`reduce_int_rows` returns), so two
    subspaces are equal as sets of vectors iff they are equal as values.
    Construct through :func:`canonical_subspace`; the raw constructor
    trusts its input.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        """Each row's pivot column, found once: the value is frozen."""
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.rows)

    def pivot_columns(self) -> list[int]:
        return list(self._pivots)

    def to_json(self):
        """The rational RREF rows: each row divided by its pivot entry."""
        return [
            vector_to_json(Fraction(x, row[c]) for x in row)
            for row, c in zip(self.rows, self.pivot_columns())
        ]

    def __repr__(self):
        return f"SubspaceQ(dim {self.dim} of Q^{self.ambient_dim}, {self.to_json()!r})"


def canonical_subspace(vectors, ambient_dim: int) -> SubspaceQ:
    """Span of the given vectors, canonicalized.

    Idempotent: any spanning set of the same subspace yields the identical
    value, because the basis is put in RREF.

    >>> canonical_subspace([(2, 0), (0, 3)], 2).rows
    ((1, 0), (0, 1))
    >>> line = canonical_subspace([(1, Fraction(1, 2))], 2)
    >>> line.rows, line.to_json()
    (((2, 1),), [[1, '1/2']])
    """
    rows = [[_as_rational(x) for x in v] for v in vectors]
    for r in rows:
        if len(r) != ambient_dim:
            raise InputShapeError(
                f"spanning vector of length {len(r)} in ambient dimension {ambient_dim}"
            )
    if ambient_dim < 0:
        raise InputShapeError("negative ambient dimension")
    red, _ = reduce_int_rows([int_row(r)[1] for r in rows], ambient_dim)
    return SubspaceQ(
        ambient_dim, tuple(tuple(row.get(c, 0) for c in range(ambient_dim)) for row in red)
    )


def subspace_from_json(obj, ambient_dim: int) -> SubspaceQ:
    if not isinstance(obj, list):
        raise InputShapeError("subspace must be an array of spanning row vectors")
    return canonical_subspace([vector_from_json(v) for v in obj], ambient_dim)


def _normalized(vec) -> tuple[int, ...]:
    """The primitive integer multiple of a nonzero int vector with a positive
    leading entry."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _is_reduced(rows, pivots) -> bool:
    """Whether int rows with these leading columns are in reduced echelon form."""
    return all(p < q for p, q in zip(pivots, pivots[1:])) and all(
        not other[p] for m, p in enumerate(pivots) for o, other in enumerate(rows) if o != m
    )


def _spanned(vectors, rows, pivots) -> bool:
    """Whether every vector lies in the span of reduced echelon int rows: in
    it iff its entries at the pivots recombine the rows, each over its pivot
    entry, into it, which holds at the pivots by construction."""
    scale = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return all(
        scale * x == sum(vec[p] * (scale // row[p]) * row[j] for row, p in zip(rows, pivots))
        for vec in vectors for j, x in enumerate(vec) if j not in pivots
    )


def coordinates(basis, vectors):
    """``(den, forms)`` if every vector lies in the span of ``basis``, else None.

    ``basis`` and ``vectors`` are tuples of nonzero int tuples, each standing
    for itself divided by its leading (first nonzero) entry, so the rows of a
    :class:`SubspaceQ` stand for its canonical RREF basis.  ``forms`` writes
    the vectors in the basis: on the span of the vectors the k-th coordinate
    function of the basis is the sum of ``num / den * z_i`` over the int pairs
    ``(i, num)`` in ``forms[k]``, ``z_i`` dual to the vectors.

    In a reduced echelon basis the coordinates of a vector are its entries at
    the pivots; in any other basis one reduction of the basis beside the
    vectors, as columns, solves for every vector at once.  Raises
    InputShapeError when that reduction finds the basis rows linearly
    dependent.
    """
    n = len(basis[0]) if basis else len(vectors[0]) if vectors else 0
    if any(len(row) != n for row in (*basis, *vectors)):
        raise InputShapeError(f"rows of different lengths in ambient dimension {n}")
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    leads = [next(x for x in row if x) for row in vectors]
    if _is_reduced(basis, pivots):
        if not _spanned(vectors, basis, pivots):
            return None
        den = lcm(*leads)
        return den, [[(i, vec[p] * (den // lead)) for i, (vec, lead) in enumerate(zip(vectors, leads))
                      if vec[p]] for p in pivots]
    # [B^T | V^T] reduces to [D | X]: vector i is sum_c X[c][i] / D[c][c] B_c
    # when the basis columns are the pivots 0..k-1 and no other column is
    k = len(basis)
    red, cpivots = reduce_int_rows(
        [{c: x for c, x in enumerate(col) if x} for col in zip(*basis, *vectors)], k + len(vectors)
    )
    if cpivots[:k] != list(range(k)):
        raise InputShapeError("basis rows are linearly dependent")
    if len(cpivots) > k:
        return None
    den = lcm(*(row[c] for c, row in enumerate(red))) * lcm(*leads)
    return den, [[(i, row[k + i] * b[p] * (den // (row[c] * lead)))
                  for i, lead in enumerate(leads) if k + i in row]
                 for c, (row, b, p) in enumerate(zip(red, basis, pivots))]


def contained(ambient: SubspaceQ, subs) -> list[bool]:
    """Whether each subspace in ``subs`` lies in ambient: at once where its
    rows are ambient's, else by :func:`_spanned`, ambient's pivots taken once."""
    own, apiv = set(ambient.rows), ambient.pivot_columns()
    return [own.issuperset(sub.rows) or _spanned(sub.rows, ambient.rows, apiv) for sub in subs]


def hyperplane_normals(ambient: SubspaceQ, subs):
    """For each hyperplane of ambient in ``subs`` (each must be one, as
    :func:`contained` and the dimensions tell), the primitive integer
    functional, positive first, whose kernel in ambient it is, in the
    coordinates dual to ambient's canonical basis.

    Ambient's pivots are taken once.  A hyperplane's pivots are ambient's but
    one, s, and its canonical basis row i is the ambient basis row of its own
    pivot plus ``r_i[p_s] / r_i[c_i]`` times row s: the normal is read off,
    a unit functional iff sub's rows are ambient's rows but one."""
    apiv = ambient.pivot_columns()
    where = {p: m for m, p in enumerate(apiv)}
    out = []
    for sub in subs:
        spiv = sub.pivot_columns()
        s = next(m for m, p in enumerate(apiv) if p not in spiv)
        den = lcm(*(row[c] for row, c in zip(sub.rows, spiv)))
        normal = [den if m == s else 0 for m in range(ambient.dim)]
        for row, c in zip(sub.rows, spiv):
            normal[where[c]] = -row[apiv[s]] * (den // row[c])
        out.append(_normalized(normal))
    return out


def dual_basis(ambient: SubspaceQ, functionals):
    """``(kept, lines)``: the int functionals on ambient, in the coordinates
    dual to its canonical basis, taken in order and kept while independent of
    those kept, then canonical coordinate functionals until ``ambient.dim``
    are, by their indices, unit c as ``len(functionals) + c``; and the basis
    of ambient dual to the kept ones, line i killed by every kept functional
    but the i-th.

    The lines are primitive int rows of Q^ambient_dim with a positive leading
    entry.  One dense fraction-free Gauss-Jordan solve (Bareiss, Math. Comp.
    22, 1968) finds both, on the rows ``[f(b_c) * lead_c for f] + rows[c]``
    of ambient's canonical basis b_c = rows[c] / lead_c: its pivots are the
    kept functionals, unit c's at b_c's pivot column, where every other b is
    0, and the right block of each pivot row is a dual line.
    """
    m = len(functionals)
    apiv = ambient.pivot_columns()
    rows = [[f[c] * row[p] for f in functionals] + list(row)
            for c, (row, p) in enumerate(zip(ambient.rows, apiv))]
    kept, done, prev = [], [], 1
    for label, j in enumerate([*range(m), *(m + p for p in apiv)]):
        if not rows:
            break
        i = next((i for i, row in enumerate(rows) if row[j]), None)
        if i is None:
            continue
        prow = rows.pop(i)
        piv = prow[j]
        # every entry stays a minor of the start rows, so prev divides exactly
        for row in (*done, *rows):
            f = row[j]
            row[:] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        kept.append(label)
        done.append(prow)
        prev = piv
    return kept, [_normalized(row[m:]) for row in done]
