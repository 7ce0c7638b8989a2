"""Exact rational linear algebra.

Everything in gkmcalc is computed over the rationals with exact
arithmetic: matrices of :class:`fractions.Fraction` entries, reduced row
echelon forms, kernel bases and canonical subspace representations.  No
floating point appears anywhere; equality of dimensions and subspaces is
decidable and deterministic.

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


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputShapeError(f"not an exact rational: {value!r}")


_RATIONAL_STRING = re.compile(r"-?[0-9]+(/[0-9]+)?")


def is_int(value) -> bool:
    """True for a JSON integer; ``bool`` is an ``int`` subclass but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def rational_to_json(q: Fraction):
    """``3/2 -> "3/2"``, ``-4 -> -4`` (bare int for denominator 1)."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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


def vector_to_json(vec):
    return [rational_to_json(x) for x in vec]


def vector_from_json(obj) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise InputShapeError(f"vector must be a JSON array, got {obj!r}")
    return tuple(rational_from_json(x) for x in obj)


class MatrixQ:
    """Immutable rational matrix, row-major.

    >>> MatrixQ.from_rows([[1, 2], [3, "1/2"]]).entry(1, 1)
    Fraction(1, 2)
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(_as_rational(x) for x in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise InputShapeError(
                f"matrix shape {rows}x{cols} does not match {len(entries)} entries"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixQ is immutable")

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

    def is_zero(self) -> bool:
        return not any(self.entries)

    def mul(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.rows:
            raise InputShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(
                    sum(ri[k] * other.entry(k, j) for k in range(self.cols))
                )
        return MatrixQ(self.rows, other.cols, out)

    def mul_vector(self, vec) -> tuple[Fraction, ...]:
        vec = [_as_rational(x) for x in vec]
        if len(vec) != self.cols:
            raise InputShapeError("vector length does not match column count")
        return tuple(
            sum(self.entry(i, k) * vec[k] for k in range(self.cols))
            for i in range(self.rows)
        )

    def __eq__(self, other):
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

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

    With ``rank_only=True`` the back substitution is skipped and ``reduced``
    holds an (unnormalized) echelon form; only ``pivots`` is meaningful.
    """
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


def _rational_rows(int_rows, pivots, ncols: int) -> list[list[Fraction]]:
    """Dense rational RREF rows from the output of :func:`reduce_int_rows`."""
    out = []
    for row, c in zip(int_rows, pivots):
        piv = row[c]
        dense = [Fraction(0)] * ncols
        for k, v in row.items():
            dense[k] = Fraction(v, piv)
        out.append(dense)
    return out


def _reduce_rows(rows, ncols: int):
    """RREF of a list of dense rational rows; returns (fraction rows, pivots)."""
    int_rows, pivots = reduce_int_rows([int_row(r)[1] for r in rows], ncols)
    return _rational_rows(int_rows, pivots, ncols), pivots


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
    return _rational_rows(basis, bpivots, ncols)


def rank_of_rows(rows, ncols: int) -> int:
    """Rank of a matrix given as rational rows, without normalizing output."""
    _, pivots = reduce_int_rows([int_row(r)[1] for r in rows], ncols, rank_only=True)
    return len(pivots)


def rref(m: MatrixQ) -> tuple[MatrixQ, list[int]]:
    """Reduced row echelon form with zero rows removed, plus pivot columns.

    The RREF of a matrix is unique, so the result is independent of the
    elimination strategy used internally.

    >>> r, piv = rref(MatrixQ.from_rows([[2, 0], [0, 3]]))
    >>> r == MatrixQ.identity(2), piv
    (True, [0, 1])
    """
    frac_rows, pivots = _reduce_rows(m.row_lists(), m.cols)
    return MatrixQ.from_rows(frac_rows, m.cols), pivots


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

    ``basis`` rows are independent and in RREF, so two subspaces are equal
    as sets of vectors iff they are equal as values.  Construct through
    :func:`canonical_subspace` (or the convenience constructors); the raw
    constructor trusts its input.
    """

    ambient_dim: int
    basis: MatrixQ

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceQ":
        return cls(ambient_dim, MatrixQ(0, ambient_dim, []))

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceQ":
        return cls(ambient_dim, MatrixQ.identity(ambient_dim))

    def pivot_columns(self) -> list[int]:
        piv = []
        for i in range(self.basis.rows):
            row = self.basis.row(i)
            piv.append(next(j for j, x in enumerate(row) if x))
        return piv

    def to_json(self):
        return self.basis.to_json()

    def __repr__(self):
        return f"SubspaceQ(dim {self.dim} of Q^{self.ambient_dim}, {self.basis.row_lists()!r})"


def canonical_subspace(vectors, ambient_dim: int) -> SubspaceQ:
    """Span of the given vectors, canonicalized.

    Idempotent: any spanning set of the same subspace yields the identical
    value, because the basis is put in RREF.

    >>> canonical_subspace([(2, 0), (0, 3)], 2).basis == MatrixQ.identity(2)
    True
    """
    rows = [list(v) for v in vectors]
    for r in rows:
        if len(r) != ambient_dim:
            raise InputShapeError(
                f"spanning vector of length {len(r)} in ambient dimension {ambient_dim}"
            )
    if ambient_dim < 0:
        raise InputShapeError("negative ambient dimension")
    if not rows:
        return SubspaceQ.zero(ambient_dim)
    frac_rows, _ = _reduce_rows(rows, ambient_dim)
    return SubspaceQ(ambient_dim, MatrixQ.from_rows(frac_rows, ambient_dim))


def subspace_from_json(obj, ambient_dim: int) -> SubspaceQ:
    if not isinstance(obj, list):
        raise InputShapeError("subspace must be an array of spanning row vectors")
    return canonical_subspace([vector_from_json(v) for v in obj], ambient_dim)


@dataclass(frozen=True)
class SubspaceRelation:
    """Outcome of comparing two subspaces of the same ambient space."""

    a_contains_b: bool
    b_contains_a: bool
    dim_a: int
    dim_b: int

    @property
    def equal(self) -> bool:
        return self.a_contains_b and self.b_contains_a


def subspace_relations(a: SubspaceQ, b: SubspaceQ) -> SubspaceRelation:
    """Exact containment and equality decisions for two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise InputShapeError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    # a contains b iff b's basis adds nothing to the rank of a's, and vice versa
    r = rank_of_rows(a.basis.row_lists() + b.basis.row_lists(), a.ambient_dim)
    return SubspaceRelation(r == a.dim, r == b.dim, a.dim, b.dim)
