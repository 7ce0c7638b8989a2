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
# Scaling each row to a primitive integer vector first lets the elimination
# run entirely in (arbitrary-precision) integer arithmetic: a fraction-free
# variant of Gauss-Jordan where every row combination is followed by a gcd
# normalization.  The output is the unique reduced row echelon form in
# integer-normalized presentation, so the result is independent of pivot
# choices and identical to plain Gauss-Jordan over the rationals.


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


def _reduce_rows(rows, ncols: int, rank_only: bool = False):
    """RREF of a list of rational rows; returns (fraction rows, pivots)."""
    int_rows, pivots = reduce_int_rows(_scaled_int_rows(rows), ncols, rank_only)
    if rank_only:
        return [], pivots
    frac_rows = []
    for row, c in zip(int_rows, pivots):
        piv = row[c]
        frac_rows.append([Fraction(v, piv) for v in row])
    return frac_rows, pivots


def rank_of_rows(rows, ncols: int) -> int:
    """Rank of a matrix given as rational rows, without normalizing output."""
    _, pivots = _reduce_rows(rows, ncols, rank_only=True)
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
    red, pivots = _reduce_rows(m.row_lists(), m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    spanning = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        spanning.append(v)
    frac_rows, _ = _reduce_rows(spanning, m.cols)
    return MatrixQ.from_rows(frac_rows, m.cols)


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

    def contains_vector(self, vec) -> bool:
        v = [_as_rational(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise InputShapeError("vector length does not match ambient dimension")
        for i, pc in enumerate(self.pivot_columns()):
            f = v[pc]
            if f:
                row = self.basis.row(i)
                for j in range(pc, self.ambient_dim):
                    v[j] -= f * row[j]
        return not any(v)

    def contains(self, other: "SubspaceQ") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise InputShapeError("ambient dimensions differ")
        return all(
            self.contains_vector(other.basis.row(i)) for i in range(other.dim)
        )

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
    if a.dim == b.dim:
        # canonical forms make equality a value comparison
        equal = a.basis == b.basis
        return SubspaceRelation(equal, equal, a.dim, b.dim)
    return SubspaceRelation(a.contains(b), b.contains(a), a.dim, b.dim)
