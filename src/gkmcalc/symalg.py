"""Graded pieces of symmetric algebras on rational subspaces.

For a subspace V of Q^r with a basis this module works with the degree-d
piece of the polynomial algebra S(V*), in the basis of monomials in the
coordinates dual to that basis.  A basis is a tuple of int rows, each
standing for itself over its leading entry (see
:func:`~gkmcalc.exactlin.coordinates`); the rows of a :class:`SubspaceQ`
are its canonical (RREF) basis, the one the public functions use.  The
central operation is the restriction map S(W*)_d -> S(V*)_d induced by an
inclusion V <= W: write the basis of V in the basis of W and substitute
the resulting linear forms into each monomial.  The maps are a map of
graded algebras, so they are cached per pair of bases: the linear forms
are read once, and degree d is grown from degree d - 1 by one linear-form
multiplication per monomial.  That cache also keeps the answer when V is
not in W, and graph validation reads containment from it for canonical
pairs too (:func:`contains`), so each pair is decided once.
``gkmcore.equivariant_dims`` asks for pairs of adapted bases, in which
most maps send a monomial to one monomial.

Grading convention: the generators of S(V*) sit in cohomological degree 2,
so polynomial degree d contributes to cohomological degree 2d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .errors import InputShapeError, SubspaceContainmentError
from .exactlin import SubspaceQ, coordinates

#: Entries kept by each of the ``monomial_basis`` and ``_graded`` (one
#: pair of bases, with its containment answer and every degree built for it
#: so far) caches, so that long-lived use stays within a bounded memory.
#: Validation reads the canonical pairs and ``equivariant_dims`` adds the
#: adapted ones where they differ: one pass of any ``pipebench`` workload
#: holds at most about 750 pairs (``cli-stream``; ``generic-series`` holds
#: 384, half of them adapted) and builds about 1,000 maps
#: (``simplex(5)`` up to degree 16 holds 30 pairs and builds 240), so
#: neither evicts.
CACHE_SIZE = 4096


def sym_dim(var_count: int, degree: int) -> int:
    """Dimension of the degree-``degree`` piece of a polynomial ring.

    >>> sym_dim(2, 3)
    4
    >>> sym_dim(0, 0), sym_dim(0, 2)
    (1, 0)
    """
    if var_count < 0 or degree < 0:
        raise InputShapeError("sym_dim arguments must be nonnegative")
    if var_count == 0:
        return 1 if degree == 0 else 0
    return comb(degree + var_count - 1, var_count - 1)


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis of S(V*)_d for a ``var_count``-dimensional V.

    Monomials are exponent tuples in graded-lexicographic order (all of one
    total degree, lexicographically decreasing), which fixes the row and
    column conventions of every matrix built on top.  ``index`` maps each
    monomial to its position.
    """

    var_count: int
    degree: int
    monomials: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {m: i for i, m in enumerate(self.monomials)})

    def __len__(self):
        return len(self.monomials)


@lru_cache(maxsize=CACHE_SIZE)
def monomial_basis(var_count: int, degree: int) -> MonomialBasis:
    if var_count < 0 or degree < 0:
        raise InputShapeError("monomial_basis arguments must be nonnegative")
    monomials: list[tuple[int, ...]] = []

    def emit(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 0:
            if remaining == 0:
                monomials.append(prefix)
            return
        if slots == 1:
            monomials.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            emit(prefix + (e,), remaining - e, slots - 1)

    emit((), degree, var_count)
    basis = MonomialBasis(var_count, degree, tuple(monomials))
    assert len(basis) == sym_dim(var_count, degree)
    return basis


@dataclass(frozen=True)
class RestrictionMap:
    """Matrix of S(ambient*)_d -> S(sub*)_d in the canonical monomial bases.

    Columns are indexed by the ambient monomials, rows by the sub
    monomials.  The matrix is stored as sparse integer rows over one
    positive ``scale``: ``rows[i]`` is ``((col, num), ...)``, so row i has
    the entry ``num / scale`` in each listed column (in increasing order,
    ``num`` a nonzero int) and zeros elsewhere.
    """

    ambient: SubspaceQ
    sub: SubspaceQ
    degree: int
    scale: int
    rows: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=CACHE_SIZE)
def _graded(ambient, sub):
    """``(den, forms, maps)`` for a pair of bases, None when sub's span is not
    in ambient's: the linear forms of :func:`~gkmcalc.exactlin.coordinates`
    and the ``(scale, rows)`` of the restriction maps built so far, by degree,
    which :func:`restriction_rows` extends."""
    inc = coordinates(ambient, sub)
    if inc is None:
        return None
    return *inc, {0: (1, (((0, 1),),))}


def contains(ambient: SubspaceQ, sub: SubspaceQ) -> bool:
    """Whether sub lies in ambient, decided once per pair by :func:`_graded`."""
    return _graded(ambient.rows, sub.rows) is not None


def _times_forms(prev, ambient_dim: int, sub_dim: int, degree: int, forms):
    """The rows of degree ``degree`` from those of the degree below: the image
    of an ambient monomial alpha is the image of alpha - e_j times form j, j
    the first variable of alpha."""
    images = [[] for _ in range(sym_dim(ambient_dim, degree - 1))]
    for mono, pairs in zip(monomial_basis(sub_dim, degree - 1).monomials, prev):
        for col, num in pairs:
            images[col].append((mono, num))
    prev_index = monomial_basis(ambient_dim, degree - 1).index
    sub_index = monomial_basis(sub_dim, degree).index
    rows: list[list[tuple[int, int]]] = [[] for _ in sub_index]
    for col, alpha in enumerate(monomial_basis(ambient_dim, degree).monomials):
        j = alpha.index(next(filter(None, alpha)))
        if not forms[j]:
            continue
        poly: dict[tuple[int, ...], int] = {}
        for mono, num in images[prev_index[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]]:
            for i, c in forms[j]:
                key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                poly[key] = poly.get(key, 0) + num * c
        for mono, coeff in poly.items():
            if coeff:
                rows[sub_index[mono]].append((col, coeff))
    return tuple(map(tuple, rows))


def restriction_rows(ambient, sub, degree: int):
    """``(scale, rows)`` of the degree-``degree`` restriction along a pair of
    bases (see :func:`~gkmcalc.exactlin.coordinates`), as in
    :class:`RestrictionMap`, in the monomials of the coordinates dual to them.
    Raises :class:`SubspaceContainmentError` when sub's span is not in
    ambient's."""
    graded = _graded(ambient, sub)
    if graded is None:
        raise SubspaceContainmentError(
            f"subspace of dim {len(sub)} is not contained in the ambient of dim {len(ambient)}"
        )
    den, forms, maps = graded
    # a loop, not recursion, so the call depth does not grow with the degree;
    # a degree is added only after the one below and never replaced, so
    # threads may grow one pair's maps together
    for d in range(len(maps), degree + 1):
        scale, rows = maps[d - 1]
        maps.setdefault(d, (scale * den, _times_forms(rows, len(ambient), len(sub), d, forms)))
    return maps[degree]


def restriction_matrix(ambient: SubspaceQ, sub: SubspaceQ, degree: int) -> RestrictionMap:
    """Restriction of degree-``degree`` polynomials along sub <= ambient.

    Functorial: for c <= b <= a the matrix along (a, c) equals the product
    of the matrices along (b, c) and (a, b).  Raises
    :class:`SubspaceContainmentError` when sub is not contained in ambient.
    """
    if degree < 0:
        raise InputShapeError("negative polynomial degree")
    if ambient.ambient_dim != sub.ambient_dim:
        raise InputShapeError(
            f"ambient dimensions differ: {ambient.ambient_dim} vs {sub.ambient_dim}"
        )
    return RestrictionMap(ambient, sub, degree, *restriction_rows(ambient.rows, sub.rows, degree))
