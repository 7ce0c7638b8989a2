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

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "MatrixQ":
        return cls(rows, cols, [0] * (rows * cols))

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

    @classmethod
    def from_json(cls, obj, cols: int | None = None) -> "MatrixQ":
        if not isinstance(obj, list):
            raise InputShapeError(f"matrix must be an array of arrays, got {obj!r}")
        rows = [vector_from_json(r) for r in obj]
        if not rows and cols is None:
            cols = 0
        return cls.from_rows(rows, cols)


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


def _doubleton_classes(rows, ncols):
    """The classes of columns that rows of at most two entries tie together,
    or None at the first row of three or more; empty rows are skipped and
    ``rows`` is left as it is.

    A forced zero is the extra column ``zero = ncols``: a one-entry row
    ``{c: a}`` is read as ``{c: a, zero: 1}``.  Each class is held at
    ``x_c = num / den * x_root``, its root its largest column; the returned
    ``up`` maps each non-root column to its parent and factor.  A row
    closing a cycle whose factors disagree hangs its root under ``zero``,
    unless that root is ``zero``.
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
    same, found one of two ways.  When every row has at most two entries, a
    weighted union-find on the columns gives them (:func:`_doubleton_classes`;
    a zero entry would tie two columns by a zero factor, so there must be
    none); ``reduced`` is then empty and ``rows`` is left as it is.  Add the
    row ``x_ncols = 0``; appended last, it changes no pivot before it.  The
    input rows and it span what it and the forest rows span, one row
    ``x_c = f * x_parent`` for each column c in ``up``, whose parent is a
    larger column.  The forest rows so lead with distinct columns, and the
    pivots are ``up``.  Otherwise the loop runs on every row, without back
    substitution, and ``reduced`` holds an echelon form.
    """
    if rank_only:
        up = _doubleton_classes(rows, ncols)
        if up is not None:
            return [], sorted(up)
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


def rank_of_rows(rows, ncols: int) -> int:
    """Rank of a matrix given as rational rows, without normalizing output."""
    _, pivots = reduce_int_rows([int_row(r)[1] for r in rows], ncols, rank_only=True)
    return len(pivots)


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

    def pivot_columns(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x) for row in self.rows]

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
    entry, into it."""
    scale = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return all(
        scale * x == sum(vec[p] * (scale // row[p]) * row[j] for row, p in zip(rows, pivots))
        for vec in vectors for j, x in enumerate(vec)
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
    the pivots; a vector that is a row of any other basis has the one
    coordinate 1; otherwise one reduction of the basis beside the vectors, as
    columns, solves for every vector at once.  Raises InputShapeError when
    that reduction finds the basis rows linearly dependent.
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
    where = {row: k for k, row in enumerate(basis)}
    if all(vec in where for vec in vectors):
        forms = [[] for _ in basis]
        for i, vec in enumerate(vectors):
            forms[where[vec]].append((i, 1))
        return 1, forms
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


def hyperplane_normal(ambient: SubspaceQ, sub: SubspaceQ) -> tuple[int, ...]:
    """The primitive integer functional, positive first, whose kernel in
    ambient is sub, in the coordinates dual to ambient's canonical basis.

    sub must be a hyperplane of ambient.  Its pivots are then ambient's but
    one, s, and its canonical basis row i is the ambient basis row of its own
    pivot plus ``r_i[p_s] / r_i[c_i]`` times row s, so the normal is read off
    without elimination; it is a coordinate functional iff sub's rows are
    ambient's rows but one.
    """
    apiv = ambient.pivot_columns()
    spiv = sub.pivot_columns()
    s = next(m for m, p in enumerate(apiv) if p not in spiv)
    den = lcm(*(row[c] for row, c in zip(sub.rows, spiv)))
    normal = [0] * ambient.dim
    normal[s] = den
    for row, c in zip(sub.rows, spiv):
        normal[apiv.index(c)] = -row[apiv[s]] * (den // row[c])
    return _normalized(normal)


def dual_basis(ambient: SubspaceQ, functionals):
    """``(kept, lines)``: the int functionals on ambient, in the coordinates
    dual to its canonical basis, taken in order and kept while independent of
    those kept, by their indices; and the basis of ambient dual to the kept
    ones, line i killed by every kept functional but the i-th.

    The lines are primitive int rows of Q^ambient_dim with a positive leading
    entry.  One reduction of the functionals as columns beside the identity,
    one row per canonical coordinate, does both: its pivot columns are the
    kept functionals, and the identity block of reduced row i is line i in
    canonical coordinates, up to a positive scalar.  Raises InputShapeError
    when fewer than ``ambient.dim`` are independent, which puts a pivot in
    the identity block.
    """
    k, m = ambient.dim, len(functionals)
    red, kept = reduce_int_rows(
        [{**{j: f[c] for j, f in enumerate(functionals) if f[c]}, m + c: 1} for c in range(k)],
        m + k,
    )
    if kept and kept[-1] >= m:
        raise InputShapeError(f"fewer than {k} independent functionals")
    # canonical basis row c is ambient.rows[c] over its pivot entry
    leads = [row[p] for row, p in zip(ambient.rows, ambient.pivot_columns())]
    den = lcm(*leads)
    lines = []
    for row in red:
        coeffs = [(row[m + c] * (den // lead), b)
                  for c, (lead, b) in enumerate(zip(leads, ambient.rows)) if m + c in row]
        lines.append(_normalized([sum(x * b[j] for x, b in coeffs)
                                  for j in range(ambient.ambient_dim)]))
    return kept, lines
