"""Graded pieces of symmetric algebras on rational subspaces.

For a subspace V of Q^r this module works with the degree-d piece of the
polynomial algebra S(V*), in the basis of monomials in the coordinates
dual to the canonical (RREF) basis of V.  The central operation is the
restriction map S(W*)_d -> S(V*)_d induced by an inclusion V <= W: write
the canonical basis of V in the canonical basis of W and substitute the
resulting linear forms into each monomial.  The maps are a map of graded
algebras, so they are cached per pair (W, V): the linear forms are read
once, and degree d is grown from degree d - 1 by one linear-form
multiplication per monomial.  That cache also keeps the answer when V is
not in W, and graph validation reads containment from it too
(:func:`contains`), so each pair is decided once.

Grading convention: the generators of S(V*) sit in cohomological degree 2,
so polynomial degree d contributes to cohomological degree 2d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .errors import InputShapeError, SubspaceContainmentError
from .exactlin import SubspaceQ, inclusion

#: Entries kept by each of the ``monomial_basis`` and ``_graded`` (one
#: pair, with its containment answer and every degree built for it so far)
#: caches, so that long-lived use stays within a bounded memory.  Validation
#: and restriction share the pairs: one pass of any ``pipebench`` workload
#: holds at most about 540 pairs, most of them only validated, and builds at
#: most about 1,000 maps (``simplex(5)`` up to degree 16 holds 30 pairs and
#: builds 240), so neither evicts.
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
def _graded(ambient: SubspaceQ, sub: SubspaceQ):
    """``(den, forms, maps)`` for sub <= ambient, None when sub is not in
    ambient: the linear forms of :func:`~gkmcalc.exactlin.inclusion` and the
    restriction maps built so far, by degree, which :func:`restriction_matrix`
    extends."""
    inc = inclusion(ambient, sub)
    if inc is None:
        return None
    return *inc, {0: RestrictionMap(ambient, sub, 0, 1, (((0, 1),),))}


def contains(ambient: SubspaceQ, sub: SubspaceQ) -> bool:
    """Whether sub lies in ambient, decided once per pair by :func:`_graded`."""
    return _graded(ambient, sub) is not None


def _times_forms(prev: RestrictionMap, den: int, forms) -> RestrictionMap:
    """The next degree's map: the image of an ambient monomial alpha is the
    image of alpha - e_j times form j, j the first variable of alpha."""
    ambient, sub, degree = prev.ambient, prev.sub, prev.degree + 1
    images = [[] for _ in range(sym_dim(ambient.dim, degree - 1))]
    for mono, pairs in zip(monomial_basis(sub.dim, degree - 1).monomials, prev.rows):
        for col, num in pairs:
            images[col].append((mono, num))
    prev_index = monomial_basis(ambient.dim, degree - 1).index
    sub_index = monomial_basis(sub.dim, degree).index
    rows: list[list[tuple[int, int]]] = [[] for _ in sub_index]
    for col, alpha in enumerate(monomial_basis(ambient.dim, degree).monomials):
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
    return RestrictionMap(ambient, sub, degree, prev.scale * den, tuple(map(tuple, rows)))


def restriction_matrix(ambient: SubspaceQ, sub: SubspaceQ, degree: int) -> RestrictionMap:
    """Restriction of degree-``degree`` polynomials along sub <= ambient.

    Functorial: for c <= b <= a the matrix along (a, c) equals the product
    of the matrices along (b, c) and (a, b).  Raises
    :class:`SubspaceContainmentError` when sub is not contained in ambient.
    """
    if degree < 0:
        raise InputShapeError("negative polynomial degree")
    graded = _graded(ambient, sub)
    if graded is None:
        raise SubspaceContainmentError(
            f"subspace of dim {sub.dim} is not contained in the ambient of dim {ambient.dim}"
        )
    den, forms, maps = graded
    # a loop, not recursion, so the call depth does not grow with the degree;
    # a degree is added only after the one below and never replaced, so
    # threads may grow one pair's maps together
    for d in range(len(maps), degree + 1):
        maps.setdefault(d, _times_forms(maps[d - 1], den, forms))
    return maps[degree]
