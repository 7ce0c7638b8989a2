"""Graded pieces of symmetric algebras on rational subspaces.

For a subspace V of Q^r with a basis this module works with the degree-d
piece of the polynomial algebra S(V*), in the basis of monomials in the
coordinates dual to that basis.  A basis is a tuple of int rows, each
standing for itself over its leading entry (see
:func:`~gkmcalc.exactlin.coordinates`); the rows of a :class:`SubspaceQ`
are its canonical (RREF) basis.  The central operation is the restriction
map S(W*)_d -> S(V*)_d induced by an inclusion V <= W: write the basis of
V in the basis of W and substitute the resulting linear forms into each
monomial.  The linear forms are read once per pair of bases, as unit forms
over 1 where sub's rows are distinct rows of ambient's, and the maps,
which depend on nothing else, are cached per set of forms, which many
pairs share: a map of graded algebras, degree d is grown from degree d - 1
by one linear-form multiplication per monomial.  :func:`restriction`
resolves a pair once, and each degree is kept, and returned by
:func:`restriction_images`, as the images of the ambient
monomials and the list of the nonempty ones, which the assembly reads; the
growth addresses monomials by position only, through two tables of each
degree's :class:`MonomialBasis` (:attr:`~MonomialBasis.down` and
:attr:`~MonomialBasis.up`).  ``gkmcore.equivariant_dims`` asks for pairs of
adapted bases, in which most maps send a monomial to one monomial or to 0.

Grading convention: the generators of S(V*) sit in cohomological degree 2,
so polynomial degree d contributes to cohomological degree 2d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

from .errors import InputShapeError, SubspaceContainmentError
from .exactlin import coordinates

#: Entries kept by each of the ``monomial_basis``, ``_graded`` (one pair of
#: bases, unit-form pairs too, with its containment answer and linear forms)
#: and ``_maps`` (every degree built so far for one set of forms) caches, so
#: that long-lived use stays within a bounded memory.  ``equivariant_basis``
#: and ``class_product`` read the canonical pairs and ``equivariant_dims`` the
#: adapted ones.  One cold pass of a ``pipebench`` workload holds at most 232
#: pairs (``cli-stream``; ``generic-series`` 192) with at most 20 sets of
#: forms (``basis-ring``; ``generic-series`` 7) and builds at most 97 maps
#: past degree 0 (``simplex(5)`` up to degree 16 holds 30 pairs, 5 sets of
#: forms and builds 40), so none evicts.  The ``down`` and ``up`` tables of a
#: basis add about 64 bytes per monomial and 56 + 8 * var_count bytes per
#: monomial one degree down (plus 28 bytes per position past 256), under half
#: of what its monomials and ``index`` take: 0.06 MB beside 0.14 MB for the 30
#: bases of a ``sparse-series`` pass.
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
    monomial to its position; ``down`` and ``up``, built on first use,
    relate positions to those one degree down, so the restriction growth
    does no exponent arithmetic.
    """

    var_count: int
    degree: int
    monomials: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {m: i for i, m in enumerate(self.monomials)})

    def __len__(self):
        return len(self.monomials)

    @cached_property
    def down(self) -> tuple[tuple[int, int], ...]:
        """``(j, k)`` per monomial alpha, for degree >= 1: j is the first
        variable of alpha and k the position of alpha - e_j one degree down."""
        below = monomial_basis(self.var_count, self.degree - 1).index
        pairs = []
        for alpha in self.monomials:
            j = 0
            while not alpha[j]:
                j += 1
            pairs.append((j, below[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]]))
        return tuple(pairs)

    @cached_property
    def up(self) -> tuple[tuple[int, ...], ...]:
        """For degree >= 1, ``up[k][i]`` is the position of beta + e_i, beta
        the monomial at position k one degree down."""
        index, n = self.index, self.var_count
        return tuple(
            tuple(index[beta[:i] + (beta[i] + 1,) + beta[i + 1 :]] for i in range(n))
            for beta in monomial_basis(n, self.degree - 1).monomials
        )


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


@lru_cache(maxsize=CACHE_SIZE)
def _graded(ambient, sub):
    """``(len(sub), den, forms, maps)`` for a pair of bases, None when sub's
    span is not in ambient's: unit forms over 1 when sub's rows are distinct
    rows of ambient, else the forms of :func:`~gkmcalc.exactlin.coordinates`;
    and the maps of those forms."""
    at = {row: i for i, row in enumerate(sub)}
    if len(at) == len(sub) and at.keys() <= set(ambient):
        inc = 1, [[(at[row], 1)] if row in at else [] for row in ambient]
    elif (inc := coordinates(ambient, sub)) is None:
        return None
    forms = tuple(map(tuple, inc[1]))
    return len(sub), inc[0], forms, _maps(len(sub), inc[0], forms)


@lru_cache(maxsize=CACHE_SIZE)
def _maps(sub_dim: int, den: int, forms):
    """The maps built so far, by degree, of every pair with these forms."""
    return {0: (1, (((0, 1),),), ((0, ((0, 1),)),))}


def _times_forms(prev, ambient_dim: int, sub_dim: int, degree: int, forms):
    """The images of degree ``degree`` from those of the degree below: the
    image of an ambient monomial alpha is the image of alpha - e_j times form
    j, j the first variable of alpha.  An empty form or image gives an empty
    image, and a one-term form times a one-term image is one term, so
    neither needs summing."""
    up = monomial_basis(sub_dim, degree).up
    images = []
    for j, below in monomial_basis(ambient_dim, degree).down:
        form, image = forms[j], prev[below]
        if not form or not image:
            images.append(())
            continue
        if len(form) == 1 == len(image):
            (i, c), = form
            (mono, num), = image
            images.append(((up[mono][i], num * c),))
            continue
        poly: dict[int, int] = {}
        for mono, num in image:
            raised = up[mono]
            for i, c in form:
                key = raised[i]
                poly[key] = poly.get(key, 0) + num * c
        images.append(tuple((mono, coeff) for mono, coeff in poly.items() if coeff))
    return tuple(images)


def restriction(ambient, sub):
    """The restriction along a pair of bases, resolved once for all its
    degrees: :func:`_graded`'s entry.  Raises
    :class:`SubspaceContainmentError` when sub's span is not in ambient's."""
    graded = _graded(ambient, sub)
    if graded is None:
        raise SubspaceContainmentError(
            f"subspace of dim {len(sub)} is not contained in the ambient of dim {len(ambient)}"
        )
    return graded


def restriction_images(resolved, degree: int):
    """``(scale, images, live)`` of the degree-``degree`` piece of a
    :func:`restriction`, in the monomials of the coordinates dual to its
    bases: ``images[col]`` is the image of ambient monomial ``col`` times
    ``scale``, as ``((sub monomial, num), ...)`` with each ``num`` a nonzero
    int, and ``live`` the ``(col, image)`` pairs of the nonempty images."""
    sub_dim, den, forms, maps = resolved
    # a loop, not recursion, so the call depth does not grow with the degree;
    # a degree is added only after the one below and never replaced, so
    # threads may grow one set of maps together
    for d in range(len(maps), degree + 1):
        scale, images, _ = maps[d - 1]
        images = _times_forms(images, len(forms), sub_dim, d, forms)
        maps.setdefault(d, (scale * den, images, tuple((c, im) for c, im in enumerate(images) if im)))
    return maps[degree]
