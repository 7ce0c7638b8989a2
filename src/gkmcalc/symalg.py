"""Graded pieces of symmetric algebras on rational subspaces.

For a subspace V of Q^r this module works with the degree-d piece of the
polynomial algebra S(V*), in the basis of monomials in the coordinates
dual to the canonical (RREF) basis of V.  The central operation is the
restriction map S(W*)_d -> S(V*)_d induced by an inclusion V <= W: write
the canonical basis of V in the canonical basis of W and substitute the
resulting linear forms into each monomial.

Grading convention: the generators of S(V*) sit in cohomological degree 2,
so polynomial degree d contributes to cohomological degree 2d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .errors import InputShapeError, SubspaceContainmentError
from .exactlin import SubspaceQ, inclusion

#: Entries kept by each of the ``monomial_basis`` and ``restriction_matrix``
#: caches, so that long-lived use stays within a fixed memory.  One pass of
#: any ``pipebench`` workload needs at most about 1,200 restriction maps
#: (``simplex(5)`` up to degree 16 needs 270), so none of them evicts.
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
            out: dict[tuple[int, ...], int] = {}
            for mono, coeff in poly.items():
                for i, c in form:
                    key = mono[:i] + (mono[i] + 1,) + mono[i + 1 :]
                    prev = out.get(key)
                    out[key] = coeff * c if prev is None else prev + coeff * c
            poly = {k: v for k, v in out.items() if v}
            if not poly:
                return {}
    return poly


@lru_cache(maxsize=CACHE_SIZE)
def restriction_matrix(ambient: SubspaceQ, sub: SubspaceQ, degree: int) -> RestrictionMap:
    """Restriction of degree-``degree`` polynomials along sub <= ambient.

    Functorial: for c <= b <= a the matrix along (a, c) equals the product
    of the matrices along (b, c) and (a, b).  Raises
    :class:`SubspaceContainmentError` when sub is not contained in ambient.
    """
    if degree < 0:
        raise InputShapeError("negative polynomial degree")
    inc = inclusion(ambient, sub)
    if inc is None:
        raise SubspaceContainmentError(
            f"subspace of dim {sub.dim} is not contained in the ambient of dim {ambient.dim}"
        )
    den, linear_forms = inc
    amb_basis = monomial_basis(ambient.dim, degree)
    sub_basis = monomial_basis(sub.dim, degree)
    rows: list[list[tuple[int, int]]] = [[] for _ in sub_basis.monomials]
    for col, alpha in enumerate(amb_basis.monomials):
        for mono, coeff in _expand_monomial(alpha, linear_forms, sub.dim).items():
            rows[sub_basis.index[mono]].append((col, coeff))
    return RestrictionMap(ambient, sub, degree, den**degree, tuple(map(tuple, rows)))
