"""Truncated integer degree series and the series-level theorems.

A :class:`DegreeSeries` holds the coefficients of a Hilbert/Poincare
series up to a mandatory cutoff degree D; every operation truncates at
the cutoff, and every result carries it.  On top of the arithmetic this
module implements the pipeline from equivariant data down to ordinary
Betti numbers:

* :func:`basic_from_equivariant` divides out the free polynomial part
  (multiplication by ``(1 - t^2)^(rank-1)``), extracting the basic
  cohomology series of the orbit foliation;
* :func:`morse_bott_assemble` sums shifted component series,
  ``sum_B t^(index_B) P_B``;
* :func:`gysin_betti` walks the short exact sequences of the degree-wise
  split Gysin sequence of the foliation;
* :func:`stanley_reisner_hilbert` computes face-ring Hilbert series with
  degree-2 generators;
* :func:`run_checks` evaluates the theorem checks on a GKM graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import (
    FormalityViolation,
    GysinInconsistency,
    InputShapeError,
)
from .exactlin import MatrixQ, is_int, rank_of_rows
from .symalg import sym_dim

VERDICT_POLYNOMIAL = "polynomial up to cutoff"
VERDICT_INCONCLUSIVE = "inconclusive at cutoff"


@dataclass(frozen=True)
class DegreeSeries:
    """Integer coefficients by degree 0..cutoff."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InputShapeError("a series carries at least the degree-0 coefficient")
        if not all(is_int(c) for c in self.coeffs):
            raise InputShapeError("series coefficients must be integers")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def cutoff(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, degree: int) -> int:
        return self.coeffs[degree]

    @classmethod
    def from_coeffs(cls, coeffs, cutoff: int) -> "DegreeSeries":
        """The coefficients cut, or padded with zeros, to degrees 0..cutoff."""
        if cutoff < 0:
            raise InputShapeError("negative cutoff")
        coeffs = list(coeffs)[: cutoff + 1]
        return cls(tuple(coeffs + [0] * (cutoff + 1 - len(coeffs))))

    def total(self) -> int:
        """Sum of all coefficients up to the cutoff."""
        return sum(self.coeffs)

    def top_degree(self):
        """Largest degree with a nonzero coefficient, or None."""
        for d in range(self.cutoff, -1, -1):
            if self.coeffs[d]:
                return d
        return None

    def truncate(self, cutoff: int) -> "DegreeSeries":
        if cutoff > self.cutoff:
            raise InputShapeError(
                f"cannot extend a series with cutoff {self.cutoff} to {cutoff}"
            )
        return DegreeSeries(self.coeffs[: cutoff + 1])

    def shift(self, k: int) -> "DegreeSeries":
        """Multiply by t^k, keeping the cutoff."""
        if k < 0:
            raise InputShapeError("negative shift")
        zeros = (0,) * min(k, self.cutoff + 1)
        return DegreeSeries((zeros + self.coeffs)[: self.cutoff + 1])

    def add(self, other: "DegreeSeries") -> "DegreeSeries":
        d = min(self.cutoff, other.cutoff)
        return DegreeSeries(tuple(self.coeffs[i] + other.coeffs[i] for i in range(d + 1)))

    def mul_polynomial(self, poly) -> "DegreeSeries":
        """Multiply by a (complete) integer polynomial, keeping the cutoff."""
        poly = list(poly)
        out = [0] * (self.cutoff + 1)
        for k, p in enumerate(poly):
            if p == 0:
                continue
            for d in range(self.cutoff + 1 - k):
                out[d + k] += p * self.coeffs[d]
        return DegreeSeries(tuple(out))

    def to_json(self):
        return {"cutoff": self.cutoff, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj) -> "DegreeSeries":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise InputShapeError("series JSON must be {'cutoff': D, 'coeffs': [...]}")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise InputShapeError("series coeffs must be an array")
        cutoff = obj.get("cutoff", len(coeffs) - 1)
        if not is_int(cutoff) or cutoff != len(coeffs) - 1:
            raise InputShapeError("series cutoff does not match coefficient count")
        return cls(tuple(coeffs))


def free_hilbert(k: int, cutoff: int) -> DegreeSeries:
    """Hilbert series of a polynomial ring on k generators of degree 2.

    Coefficients of 1/(1-t^2)^k truncated at the cutoff.
    """
    if k < 0:
        raise InputShapeError("negative variable count")
    if cutoff < 0:
        raise InputShapeError("negative cutoff")
    coeffs = [0] * (cutoff + 1)
    for d in range(0, cutoff + 1, 2):
        coeffs[d] = sym_dim(k, d // 2)
    return DegreeSeries(tuple(coeffs))


@dataclass(frozen=True)
class BasicReport:
    """Diagnostics attached to a basic-cohomology extraction."""

    series: DegreeSeries
    verdict: str

    @property
    def is_polynomial(self) -> bool:
        return self.verdict == VERDICT_POLYNOMIAL

    @property
    def total(self) -> int:
        return self.series.total()

    @property
    def top_degree(self) -> int | None:
        return self.series.top_degree()

    def to_json(self):
        return {
            "series": self.series.to_json(),
            "verdict": self.verdict,
            "total": self.total,
            "top_degree": self.top_degree,
        }


def basic_from_equivariant(
    eq_dims: DegreeSeries, rank: int, *, top_fiber_degree: int = 0
) -> BasicReport:
    """Divide the equivariant series by the free part of rank-1 variables.

    Equivariant formality of the transverse action makes the equivariant
    series the product of 1/(1-t^2)^(rank-1) with the basic series, so the
    basic series is recovered by multiplying with (1-t^2)^(rank-1), up to
    the cutoff of ``eq_dims``.  A negative coefficient in the product means
    the input was not of that form (wrong rank, or not a Cohen-Macaulay
    action) and raises :class:`FormalityViolation`.

    The verdict is "polynomial up to cutoff" when the top two coefficients
    vanish and the cutoff is at least ``top_fiber_degree + 2`` (the top
    degree of a vertex fiber class, 0 for point fibers), else "inconclusive
    at cutoff": a genuine basic series of a compact quotient is a
    polynomial, but its trailing zeros mark the end only once no fiber
    class can lie above the cutoff.
    """
    if rank < 1:
        raise InputShapeError("rank must be at least 1")
    series = eq_dims
    for _ in range(rank - 1):
        series = series.mul_polynomial([1, 0, -1])
    negative = [d for d, c in enumerate(series.coeffs) if c < 0]
    if negative:
        raise FormalityViolation(
            f"negative coefficient at degree {negative[0]}: input series is not "
            f"a free module over {rank - 1} degree-2 generators"
        )
    cutoff = series.cutoff
    if cutoff >= top_fiber_degree + 2 and series[cutoff] == 0 and series[cutoff - 1] == 0:
        return BasicReport(series, VERDICT_POLYNOMIAL)
    return BasicReport(series, VERDICT_INCONCLUSIVE)


@dataclass(frozen=True)
class MorseBottData:
    """Critical components: (even index, basic series of the quotient)."""

    components: tuple[tuple[int, DegreeSeries], ...]

    @classmethod
    def of(cls, components) -> "MorseBottData":
        return cls(tuple((i, s) for i, s in components))

    def to_json(self):
        return {
            "components": [
                {"index": i, "series": s.to_json()} for i, s in self.components
            ]
        }

    @classmethod
    def from_json(cls, obj) -> "MorseBottData":
        if (
            not isinstance(obj, dict)
            or not isinstance(obj.get("components"), list)
        ):
            raise InputShapeError("Morse-Bott JSON must have a 'components' array")
        comps = []
        for entry in obj["components"]:
            if not isinstance(entry, dict) or "index" not in entry or "series" not in entry:
                raise InputShapeError("each component needs 'index' and 'series'")
            idx = entry["index"]
            if not is_int(idx):
                raise InputShapeError("component index must be an integer")
            comps.append((idx, DegreeSeries.from_json(entry["series"])))
        return cls(tuple(comps))


def morse_bott_assemble(data: MorseBottData, cutoff: int) -> DegreeSeries:
    """Sum of t^(index) * P_component over the critical components.

    Component series are treated as complete polynomials (their quotients
    are compact, so their Poincare series terminate); indices must be even
    and nonnegative because isotropy-invariant unstable bundles have even
    rank.
    """
    out = DegreeSeries.from_coeffs([], cutoff)
    for index, series in data.components:
        if index < 0 or index % 2 != 0:
            raise InputShapeError(f"Morse-Bott index must be even and >= 0, got {index}")
        out = out.add(DegreeSeries.from_coeffs(series.coeffs, cutoff).shift(index))
    return out


@dataclass(frozen=True)
class GysinData:
    """Even basic Betti numbers plus the Euler-class multiplications.

    ``basic_dims[k]`` is dim H^(2k) of the foliation for k = 0..n;
    ``euler_mult[k]`` is the matrix of multiplication by the basic Euler
    class H^(2k) -> H^(2k+2).  The top map (k = n) has zero target and may
    be omitted.
    """

    basic_dims: tuple[int, ...]
    euler_mult: tuple[MatrixQ, ...]

    @classmethod
    def minimal(cls, n: int) -> "GysinData":
        """The truncated polynomial ring on the Euler class: identity maps."""
        if n < 1:
            raise InputShapeError("n must be at least 1")
        return cls(
            basic_dims=(1,) * (n + 1),
            euler_mult=tuple(MatrixQ.identity(1) for _ in range(n)),
        )

    def to_json(self):
        return {
            "basic_dims": list(self.basic_dims),
            "euler_mult": [m.to_json() for m in self.euler_mult],
        }

    @classmethod
    def from_json(cls, obj) -> "GysinData":
        if not isinstance(obj, dict) or "basic_dims" not in obj:
            raise InputShapeError("Gysin JSON must have 'basic_dims'")
        dims = obj["basic_dims"]
        if not isinstance(dims, list) or not all(is_int(d) for d in dims):
            raise InputShapeError("basic_dims must be an array of integers")
        mult = obj.get("euler_mult", [])
        if not isinstance(mult, list):
            raise InputShapeError("euler_mult must be an array of matrices")
        if len(mult) > len(dims):
            raise InputShapeError(
                f"euler_mult has {len(mult)} matrices but basic_dims only "
                f"{len(dims)} degrees"
            )
        mats = [MatrixQ.from_json(m, cols=d) for m, d in zip(mult, dims)]
        return cls(tuple(dims), tuple(mats))


def gysin_betti(data: GysinData) -> tuple[int, ...]:
    """Ordinary Betti numbers b_0..b_(2n+1) from split Gysin sequences.

    With odd basic cohomology vanishing, the Gysin sequence of the orbit
    foliation splits into

        0 -> H^(2k+1)(M) -> H^(2k) -> H^(2k+2) -> H^(2k+2)(M) -> 0

    (basic groups in the middle, delta = Euler-class multiplication), so
    b_(2k+1) = dim ker(delta_k) and b_(2k+2) = dim coker(delta_k).  The
    basic dimensions run over degrees 0..2n, which fixes n.
    """
    n = len(data.basic_dims) - 1
    if any(d < 0 for d in data.basic_dims):
        raise InputShapeError("negative basic dimension")
    if not data.basic_dims or data.basic_dims[0] != 1:
        raise InputShapeError("basic degree-0 dimension must be 1 (connected manifold)")
    if len(data.euler_mult) not in (n, n + 1):
        raise InputShapeError(
            f"expected {n} (or {n + 1}) Euler multiplication matrices, got {len(data.euler_mult)}"
        )
    if len(data.euler_mult) == n + 1 and data.euler_mult[n].rows != 0:
        raise GysinInconsistency(
            "the Euler multiplication out of top degree must land in zero: "
            "basic cohomology would extend beyond degree 2n"
        )
    for k in range(n):
        m = data.euler_mult[k]
        if m.rows != data.basic_dims[k + 1] or m.cols != data.basic_dims[k]:
            raise InputShapeError(
                f"Euler multiplication {k} has shape {m.rows}x{m.cols}, "
                f"expected {data.basic_dims[k + 1]}x{data.basic_dims[k]}"
            )
    betti = [0] * (2 * n + 2)
    betti[0] = 1
    for k in range(n + 1):
        if k < n:
            m = data.euler_mult[k]
            rank = rank_of_rows(m.row_lists(), m.cols)
            target = data.basic_dims[k + 1]
        else:
            rank = 0
            target = 0
        betti[2 * k + 1] = data.basic_dims[k] - rank
        if 2 * k + 2 <= 2 * n + 1:
            betti[2 * k + 2] = target - rank
    # the k = n sequence ends in the (discarded) top even degree, which is
    # forced to vanish by the zero target above
    return tuple(betti[: 2 * n + 2])


def _normalize_faces(faces):
    normalized = set()
    for face in faces:
        f = frozenset(face)
        if len(f) != len(list(face)):
            raise InputShapeError(f"face with repeated vertices: {face!r}")
        normalized.add(f)
    return normalized


def stanley_reisner_hilbert(faces, cutoff: int) -> DegreeSeries:
    """Hilbert series of the face ring, with degree-2 generators.

    ``faces`` lists the faces of a simplicial complex (including the empty
    face); the family must be closed under subsets.  The series is
    sum over faces F of (t^2 / (1 - t^2))^|F|, truncated at the cutoff.
    """
    if cutoff < 0:
        raise InputShapeError("negative cutoff")
    family = _normalize_faces(faces)
    if frozenset() not in family:
        raise InputShapeError("face family must contain the empty face")
    for face in family:
        for v in face:
            if face - {v} not in family:
                raise InputShapeError(
                    f"face family is not closed under subsets: missing {set(face - {v})!r}"
                )
    sizes: dict[int, int] = {}
    for face in family:
        sizes[len(face)] = sizes.get(len(face), 0) + 1
    coeffs = [0] * (cutoff + 1)
    for d2 in range(0, cutoff + 1, 2):
        d = d2 // 2
        total = sizes.get(0, 0) if d == 0 else 0
        for k, count in sizes.items():
            if 1 <= k <= d:
                total += count * comb(d - 1, k - 1)
        coeffs[d2] = total
    return DegreeSeries(tuple(coeffs))


# --- theorem checks on a GKM graph -----------------------------------------

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str

    def to_json(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the theorem checks for one graph at one cutoff."""

    equivariant: DegreeSeries
    basic: BasicReport
    checks: tuple[CheckResult, ...]
    minimal: bool

    @property
    def cutoff(self) -> int:
        return self.equivariant.cutoff

    @property
    def failed(self) -> bool:
        return any(c.status == STATUS_FAIL for c in self.checks)

    @property
    def inconclusive(self) -> bool:
        return any(c.status == STATUS_INCONCLUSIVE for c in self.checks)

    def to_json(self):
        return {
            "cutoff": self.cutoff,
            "equivariant": self.equivariant.to_json(),
            "basic": self.basic.series.to_json(),
            "basic_verdict": self.basic.verdict,
            "checks": [c.to_json() for c in self.checks],
            "minimal": self.minimal,
        }


def run_checks(graph, cutoff: int) -> CheckReport:
    """Evaluate the theorem checks for a valid GKM graph.

    * ``odd_basic_vanishing``: all odd basic coefficients are zero
      (checked when every fiber is supported in even degrees; skipped
      otherwise, since odd fiber classes feed odd basic classes);
    * ``orbit_space_dimension``: the total basic dimension equals the sum
      of all vertex fiber dimensions (for point fibers: the number of
      vertices, i.e. of closed Reeb orbits);
    * ``closed_orbit_lower_bound``: for a (2n+1)-manifold the total is at
      least n+1;
    * ``minimal_orbit_count``: when the total is exactly n+1 the basic
      series must be 1 + t^2 + ... + t^(2n) and the minimal flag is set.
    """
    from . import gkmcore  # local import: gkmcore depends on this module

    if graph.manifold_dim is not None and graph.manifold_dim % 2 != 1:
        raise InputShapeError("manifold_dim must be odd (2n+1)")
    eq = gkmcore.equivariant_dims(graph, cutoff)
    report = basic_from_equivariant(eq, graph.rank, top_fiber_degree=graph.top_fiber_degree)
    basic, polynomial = report.series, report.is_polynomial
    checks = []

    even_fibers = all(
        all(q % 2 == 0 for q in v.fiber.degrees()) for v in graph.vertices
    ) and all(all(q % 2 == 0 for q in e.edge_fiber.degrees()) for e in graph.edges)
    if even_fibers:
        odd = [d for d in range(1, cutoff + 1, 2) if basic[d] != 0]
        checks.append(
            CheckResult(
                "odd_basic_vanishing",
                STATUS_PASS if not odd else STATUS_FAIL,
                "all odd basic coefficients vanish"
                if not odd
                else f"nonzero odd basic coefficients at degrees {odd}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "odd_basic_vanishing",
                STATUS_SKIPPED,
                "fibers carry odd-degree classes; odd vanishing not expected",
            )
        )

    expected_total = sum(v.fiber.total() for v in graph.vertices)
    total = basic.total()
    if not polynomial:
        status, detail = STATUS_INCONCLUSIVE, (
            f"basic series not yet polynomial at cutoff {cutoff}; "
            f"partial total {total}, expected {expected_total}"
        )
    elif total == expected_total:
        status, detail = STATUS_PASS, f"total basic dimension {total} matches the critical set"
    else:
        status, detail = STATUS_FAIL, (
            f"total basic dimension {total} != sum of fiber dimensions {expected_total}"
        )
    checks.append(CheckResult("orbit_space_dimension", status, detail))

    n = None if graph.manifold_dim is None else (graph.manifold_dim - 1) // 2
    if n is None:
        checks.append(
            CheckResult(
                "closed_orbit_lower_bound", STATUS_SKIPPED, "manifold_dim not provided"
            )
        )
    elif total >= n + 1:
        # a truncated total only undercounts, so >= is conclusive either way
        checks.append(
            CheckResult(
                "closed_orbit_lower_bound",
                STATUS_PASS,
                f"total {total} >= n+1 = {n + 1}",
            )
        )
    elif not polynomial:
        checks.append(
            CheckResult(
                "closed_orbit_lower_bound",
                STATUS_INCONCLUSIVE,
                f"partial total {total} < {n + 1} at cutoff {cutoff}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "closed_orbit_lower_bound",
                STATUS_FAIL,
                f"total {total} < n+1 = {n + 1}",
            )
        )

    minimal = False
    if n is None:
        checks.append(
            CheckResult("minimal_orbit_count", STATUS_SKIPPED, "manifold_dim not provided")
        )
    elif not polynomial:
        checks.append(
            CheckResult(
                "minimal_orbit_count",
                STATUS_INCONCLUSIVE,
                f"basic series not yet polynomial at cutoff {cutoff}",
            )
        )
    elif total == n + 1:
        want = [1 if d % 2 == 0 and d <= 2 * n else 0 for d in range(cutoff + 1)]
        if list(basic.coeffs) == want:
            minimal = True
            checks.append(
                CheckResult(
                    "minimal_orbit_count",
                    STATUS_PASS,
                    "minimal count: basic series is 1 + t^2 + ... + t^(2n)",
                )
            )
        else:
            checks.append(
                CheckResult(
                    "minimal_orbit_count",
                    STATUS_FAIL,
                    "total is n+1 but the basic series is not the truncated "
                    "polynomial ring on one degree-2 class",
                )
            )
    else:
        above = total > n + 1
        checks.append(
            CheckResult(
                "minimal_orbit_count",
                STATUS_PASS if above else STATUS_FAIL,
                f"total {total} exceeds the minimum {n + 1}; minimal flag unset"
                if above
                else f"total {total} is below the minimum {n + 1}",
            )
        )

    return CheckReport(equivariant=eq, basic=report, checks=tuple(checks), minimal=minimal)


def default_cutoff(vertex_count: int) -> int:
    """Default series cutoff: max(20, 2 * (vertex count + 2)).

    High enough that the basic polynomial of every builtin example
    terminates visibly below the cutoff.
    """
    return max(20, 2 * (vertex_count + 2))
