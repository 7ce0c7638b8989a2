"""Exact references for the pipeline benchmark.

Nothing here imports gkmcalc.  Every expected value is derived by
enumeration, convolution, hand-derived closed forms or small exact
Gaussian elimination over ``fractions.Fraction``, so a defect in the
program's kernel path cannot hide in its own reference.

* :func:`face_ring_series` counts face-ring monomials of a simple
  polytope's dual complex (degree-2 generators).  For a toric one-skeleton
  whose facet normals are independent at every vertex this is the
  equivariant series, whatever the normals are.
* :func:`convolve` gives fiber joins (series times ``(1, 2g, 1)``).
* :func:`hirzebruch_series` is the hand kernel count of the two-vertex
  Hirzebruch graph.
* :func:`minimal_equivariant` inverts the minimal basic series
  ``1 + t^2 + ... + t^(2n)``.
* :func:`expected_checks` re-derives the theorem-check verdicts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


# --- small exact linear algebra --------------------------------------------


def rref(rows, ncols):
    """Reduced row echelon form over Q, zero rows dropped."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def rank(rows, ncols):
    return len(rref(rows, ncols)) if rows else 0


def rational_json(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def canonical_json(vectors, ambient):
    """JSON rows of the canonical (RREF) basis of a span."""
    return [[rational_json(x) for x in row] for row in rref(vectors, ambient)]


# --- series ----------------------------------------------------------------


def compositions(total, parts):
    """Exponent tuples of the given length summing to ``total``, in
    lexicographically decreasing order (the program's monomial order)."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for tail in compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


def face_ring_series(vertex_facets, nfacets, cutoff):
    """Face-ring Hilbert series of a simple polytope's dual complex.

    ``vertex_facets`` lists, per polytope vertex, the set of facet indices
    through it; a set of facets is a face of the dual complex iff some
    vertex lies on all of them.  Generators sit in degree 2.
    """
    maximal = [frozenset(s) for s in vertex_facets]
    coeffs = [0] * (cutoff + 1)
    for d in range(cutoff // 2 + 1):
        count = 0
        for expo in compositions(d, nfacets):
            support = {i for i, e in enumerate(expo) if e}
            if any(support <= m for m in maximal):
                count += 1
        coeffs[2 * d] = count
    return coeffs


def convolve(a, b, cutoff):
    out = [0] * (cutoff + 1)
    for i, x in enumerate(a[: cutoff + 1]):
        for j, y in enumerate(b):
            if i + j > cutoff:
                break
            out[i + j] += x * y
    return out


def hirzebruch_series(cutoff):
    """Two vertices with sphere fibers (1, 0, 1) and line isotropies, one
    edge with zero isotropy: 2 unknowns glued by 1 constraint in degree
    0, 4 unknowns glued by 1 in degree 2, 4 free unknowns above."""
    return [
        0 if m % 2 else (1 if m == 0 else 3 if m == 2 else 4)
        for m in range(cutoff + 1)
    ]


def free_series(k, cutoff):
    """1/(1 - t^2)^k."""
    if k == 0:
        return [int(m == 0) for m in range(cutoff + 1)]
    return [0 if m % 2 else comb(m // 2 + k - 1, k - 1) for m in range(cutoff + 1)]


def minimal_equivariant(n, rank_, cutoff):
    """Equivariant series whose basic series is 1 + t^2 + ... + t^(2n)."""
    basic = [1 if m % 2 == 0 and m <= 2 * n else 0 for m in range(cutoff + 1)]
    return convolve(basic, free_series(rank_ - 1, cutoff), cutoff)


def basic_series(eq, rank_):
    out = list(eq)
    for _ in range(rank_ - 1):
        out = [c - (out[m - 2] if m >= 2 else 0) for m, c in enumerate(out)]
    return out


def basic_report(eq, rank_, cutoff):
    """The ``basic`` subcommand's document (without the ``rank`` key)."""
    basic = basic_series(eq[: cutoff + 1], rank_)
    verdict = (
        "polynomial up to cutoff"
        if cutoff >= 2 and basic[cutoff] == 0 and basic[cutoff - 1] == 0
        else "inconclusive at cutoff"
    )
    top = max((m for m, c in enumerate(basic) if c), default=None)
    return {
        "series": {"cutoff": cutoff, "coeffs": basic},
        "verdict": verdict,
        "total": sum(basic),
        "top_degree": top,
    }


def expected_checks(eq, rank_, cutoff, manifold_dim, fiber_total, even_fibers):
    """Theorem-check report with the free-text ``detail`` fields removed."""
    rep = basic_report(eq, rank_, cutoff)
    basic = rep["series"]["coeffs"]
    polynomial = rep["verdict"] == "polynomial up to cutoff"
    total = rep["total"]
    checks = []
    if even_fibers:
        odd_ok = not any(basic[m] for m in range(1, cutoff + 1, 2))
        checks.append(("odd_basic_vanishing", "pass" if odd_ok else "fail"))
    else:
        checks.append(("odd_basic_vanishing", "skipped"))
    if not polynomial:
        checks.append(("orbit_space_dimension", "inconclusive"))
    else:
        checks.append(
            ("orbit_space_dimension", "pass" if total == fiber_total else "fail")
        )
    minimal = False
    if manifold_dim is None:
        checks.append(("closed_orbit_lower_bound", "skipped"))
        checks.append(("minimal_orbit_count", "skipped"))
    else:
        n = (manifold_dim - 1) // 2
        if total >= n + 1:
            checks.append(("closed_orbit_lower_bound", "pass"))
        else:
            checks.append(
                ("closed_orbit_lower_bound", "inconclusive" if not polynomial else "fail")
            )
        if not polynomial:
            checks.append(("minimal_orbit_count", "inconclusive"))
        elif total == n + 1:
            want = [1 if m % 2 == 0 and m <= 2 * n else 0 for m in range(cutoff + 1)]
            minimal = basic == want
            checks.append(("minimal_orbit_count", "pass" if minimal else "fail"))
        else:
            checks.append(("minimal_orbit_count", "pass"))
    return {
        "cutoff": cutoff,
        "equivariant": {"cutoff": cutoff, "coeffs": list(eq[: cutoff + 1])},
        "basic": rep["series"],
        "basic_verdict": rep["verdict"],
        "checks": checks,
        "minimal": minimal,
    }


def strip_check_details(report):
    """Program check report in the shape :func:`expected_checks` returns."""
    out = dict(report)
    out["checks"] = [(c["name"], c["status"]) for c in report["checks"]]
    return out


# --- other documents -------------------------------------------------------


def gysin_betti(basic_dims, matrices):
    """Betti numbers by rank-nullity in the split Gysin sequences."""
    n = len(basic_dims) - 1
    betti = [0] * (2 * n + 2)
    betti[0] = 1
    for k in range(n + 1):
        r = rank(matrices[k], basic_dims[k]) if k < n else 0
        target = basic_dims[k + 1] if k < n else 0
        betti[2 * k + 1] = basic_dims[k] - r
        if 2 * k + 2 <= 2 * n + 1:
            betti[2 * k + 2] = target - r
    return betti


def morse_bott(components, cutoff):
    out = [0] * (cutoff + 1)
    for index, coeffs in components:
        for m, c in enumerate(coeffs):
            if m + index <= cutoff:
                out[m + index] += c
    return out


def class_product(a, b, var_counts):
    """Componentwise product of two point-fiber classes in their JSON form.

    ``var_counts`` maps vertex id to its isotropy dimension, in graph
    vertex order; coefficient vectors follow :func:`compositions` order.
    """
    da, db = a["degree"] // 2, b["degree"] // 2
    d = da + db

    def polys(cls, deg):
        out = {}
        for comp in cls["components"]:
            k = var_counts[comp["vertex"]]
            monos = compositions(deg, k)
            out[comp["vertex"]] = {
                mono: Fraction(row[0])
                for mono, row in zip(monos, comp["coefficients"])
                if Fraction(row[0])
            }
        return out

    pa, pb = polys(a, da), polys(b, db)
    comps = []
    for vid, k in var_counts.items():
        prod = {}
        for ma, ca in pa.get(vid, {}).items():
            for mb, cb in pb.get(vid, {}).items():
                key = tuple(x + y for x, y in zip(ma, mb))
                prod[key] = prod.get(key, 0) + ca * cb
        if any(prod.values()):
            comps.append(
                {
                    "vertex": vid,
                    "poly_degree": d,
                    "fiber_degree": 0,
                    "coefficients": [
                        [rational_json(prod.get(mono, 0))] for mono in compositions(d, k)
                    ],
                }
            )
    return {"degree": a["degree"] + b["degree"], "components": comps}
