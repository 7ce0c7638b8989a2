"""GKM graph data model, validation and the equivariant kernel computation.

A GKM graph records, for a torus action whose equivariant cohomology is
computed from its one-skeleton, one vertex per bottom-stratum component
(with its isotropy subspace and the graded cohomology of its orbit space
as "fiber") and one edge per next-stratum component (with its isotropy
subspace, an edge fiber, and the two pullback maps from the endpoint
fibers into it).

The central computation realizes equivariant cohomology degreewise as the
kernel of the edge-restriction map: unknowns are the summands
S(t_v*)_d (x) fiber_v^q over vertices and splittings 2d + q = m, and each
edge imposes

    (restriction to t_e (x) pullback_source) - (restriction (x) pullback_target) = 0.

For point fibers with identity pullbacks this reduces to tuples of
polynomials (f_v) with f_source|t_e = f_target|t_e along every edge, and
the componentwise product makes the kernel a graded algebra.

Where each edge's lines in the bases of :func:`_adapted_bases` are lines of
both its ends, as on every toric skeleton, the kernel is counted once per
graph from faces (:func:`_face_dims`).  Otherwise (:func:`_slot_dims`)
what no degree changes is read once per call: each edge end's sign,
pullback blocks and resolved restriction (:func:`_ends`).  Each degree then
visits only the splits where a fiber is nonzero (:func:`_splits`) and
scatters its rows once, into flat slot lists (:func:`_slots`), which a rank of
rows of at most two entries reads (:func:`~gkmcalc.exactlin.pair_pivots`);
the elimination loop, for wider rows and RREF, reads :func:`_constraint_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm

from .errors import (
    InputShapeError,
    UnsupportedRingStructureError,
    ValidationError,
)
from .exactlin import (
    MatrixQ,
    SubspaceQ,
    contained,
    dual_basis,
    hyperplane_normals,
    int_rows_from_json,
    int_rows_to_json,
    is_int,
    is_int_row,
    kernel_rows,
    pair_pivots,
    reduce_int_rows,
    subspace_from_json,
)
from .series import DegreeSeries
from .symalg import monomial_basis, restriction, restriction_images, sym_dim


@dataclass(frozen=True)
class GradedVS:
    """Finite graded vector space: dimension per (nonnegative) degree."""

    dims: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for q, d in self.dims:
            if q < 0 or d < 0:
                raise InputShapeError(f"bad graded dimension ({q}, {d})")
            if q in seen:
                raise InputShapeError(f"degree {q} listed twice")
            seen.add(q)
        object.__setattr__(
            self, "dims", tuple(sorted((q, d) for q, d in self.dims if d))
        )

    @classmethod
    def of(cls, dims: dict[int, int]) -> "GradedVS":
        return cls(tuple(dims.items()))

    @classmethod
    def point(cls) -> "GradedVS":
        """One-dimensional in degree 0: the fiber of an isolated orbit."""
        return cls(((0, 1),))

    def dim(self, degree: int) -> int:
        return next((d for q, d in self.dims if q == degree), 0)

    def degrees(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.dims)

    def total(self) -> int:
        return sum(d for _, d in self.dims)

    @property
    def is_point(self) -> bool:
        return self.dims == ((0, 1),)

    def to_json(self):
        return {"dims": [[q, d] for q, d in self.dims]}

    @classmethod
    def from_json(cls, obj) -> "GradedVS":
        if not isinstance(obj, dict) or "dims" not in obj:
            raise InputShapeError("graded space JSON must be {'dims': [[degree, dim], ...]}")
        pairs = obj["dims"]
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(is_int(x) for x in p)
            for p in pairs
        ):
            raise InputShapeError("graded dims must be [degree, dim] integer pairs")
        return cls(tuple((q, d) for q, d in pairs))


@dataclass(frozen=True)
class GradedMap:
    """Degree-preserving linear map between graded vector spaces.

    Blocks exist exactly for the degrees where both source and target are
    nonzero.  Block q is a tuple of target.dim(q) int rows over source.dim(q)
    columns, in the form of :func:`~gkmcalc.exactlin.is_int_row`, so equal
    maps are equal values.
    """

    source: GradedVS
    target: GradedVS
    blocks: tuple[tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]], ...]

    def __post_init__(self):
        degrees = [q for q, _ in self.blocks]
        if len(set(degrees)) != len(degrees):
            raise InputShapeError(f"graded map lists a degree twice: {sorted(degrees)}")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks)))
        wanted = set(self.source.degrees()) & set(self.target.degrees())
        got = {q for q, _ in self.blocks}
        if wanted != got:
            raise InputShapeError(
                f"graded map must have blocks exactly in degrees {sorted(wanted)}, got {sorted(got)}"
            )
        for q, rows in self.blocks:
            width = self.source.dim(q)
            if len(rows) != self.target.dim(q) or not all(is_int_row(r, width) for r in rows):
                raise InputShapeError(
                    f"block in degree {q} is not {self.target.dim(q)} int rows over {width} columns"
                )

    @classmethod
    def identity(cls, vs: GradedVS) -> "GradedMap":
        return cls(vs, vs, tuple((q, tuple((1, ((i, 1),)) for i in range(d))) for q, d in vs.dims))

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and all(
            row == (1, ((i, 1),)) for _, rows in self.blocks for i, row in enumerate(rows)
        )

    def to_json(self):
        return {str(q): int_rows_to_json(rows, self.source.dim(q)) for q, rows in self.blocks}

    @classmethod
    def from_json(cls, obj, source: GradedVS, target: GradedVS) -> "GradedMap":
        if not isinstance(obj, dict):
            raise InputShapeError("pullback JSON must map degree -> matrix")
        blocks = []
        for key, rows in obj.items():
            try:
                q = int(key)
            except ValueError:
                q = None
            if q is None or key != str(q):
                raise InputShapeError(f"bad pullback degree key {key!r}")
            blocks.append((q, int_rows_from_json(rows, source.dim(q))))
        return cls(source, target, tuple(blocks))


@dataclass(frozen=True)
class GkmVertex:
    id: str
    isotropy: SubspaceQ
    fiber: GradedVS = GradedVS.point()


@dataclass(frozen=True)
class GkmEdge:
    """An edge with its isotropy, edge fiber and the two fiber pullbacks.

    The defaults are a point edge fiber with identity pullbacks of the
    point, which fit an edge between point-fibered vertices.  The JSON
    reader defaults differently: to the source vertex fiber, with identity
    pullbacks of it (see :func:`graph_from_json`).
    """

    id: str
    source: str
    target: str
    isotropy: SubspaceQ
    edge_fiber: GradedVS = GradedVS.point()
    pullback_source: GradedMap = GradedMap.identity(GradedVS.point())
    pullback_target: GradedMap = GradedMap.identity(GradedVS.point())


@dataclass(frozen=True)
class GkmGraph:
    """Immutable GKM graph over a rank-dimensional torus."""

    rank: int
    vertices: tuple[GkmVertex, ...]
    edges: tuple[GkmEdge, ...]
    manifold_dim: int | None = None
    bottom_orbit_dim: int | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise InputShapeError("graph rank must be at least 1")
        if self.manifold_dim is not None and not (self.manifold_dim > 0 and self.manifold_dim % 2):
            raise InputShapeError("manifold_dim must be odd (2n+1) and positive")
        # a T^rank orbit has dimension at most rank
        if self.bottom_orbit_dim is not None and not 1 <= self.bottom_orbit_dim <= self.rank:
            raise InputShapeError("bottom_orbit_dim must be at least 1 and at most the rank")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise InputShapeError("duplicate vertex ids")
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise InputShapeError("duplicate edge ids")
        by_id = {v.id: v for v in self.vertices}
        for e in self.edges:
            for ref in (e.source, e.target):
                if ref not in by_id:
                    raise InputShapeError(f"edge {e.id!r} references unknown vertex {ref!r}")
        for kind, x in [("vertex", v) for v in self.vertices] + [("edge", e) for e in self.edges]:
            if x.isotropy.ambient_dim != self.rank:
                raise InputShapeError(
                    f"{kind} {x.id!r} isotropy lives in Q^{x.isotropy.ambient_dim}, "
                    f"graph rank is {self.rank}"
                )
        object.__setattr__(self, "_by_id", by_id)

    def vertex(self, vid: str) -> GkmVertex:
        return self._by_id[vid]

    @cached_property
    def _validation(self):  # the graph is frozen, so it is validated once
        return _validate(self)

    @property
    def is_point_fibered(self) -> bool:
        return all(v.fiber.is_point for v in self.vertices) and all(
            e.edge_fiber.is_point for e in self.edges
        )

    @property
    def top_fiber_degree(self) -> int:
        """Highest degree of a vertex fiber class: 0 when every fiber is a point."""
        return max((q for v in self.vertices for q in v.fiber.degrees()), default=0)

    def to_json(self):
        out = {"rank": self.rank}
        if self.manifold_dim is not None:
            out["manifold_dim"] = self.manifold_dim
        if self.bottom_orbit_dim is not None:
            out["bottom_orbit_dim"] = self.bottom_orbit_dim
        vertices = []
        for v in self.vertices:
            vj = {"id": v.id, "isotropy": v.isotropy.to_json()}
            if not v.fiber.is_point:
                vj["fiber"] = v.fiber.to_json()
            vertices.append(vj)
        out["vertices"] = vertices
        edges = []
        for e in self.edges:
            ej = {
                "id": e.id,
                "source": e.source,
                "target": e.target,
                "isotropy": e.isotropy.to_json(),
            }
            src_fiber = self.vertex(e.source).fiber
            defaulted = (
                e.edge_fiber == src_fiber
                and e.pullback_source.is_identity
                and e.pullback_target.is_identity
            )
            if not defaulted:
                ej["edge_fiber"] = e.edge_fiber.to_json()
                ej["pullback_source"] = e.pullback_source.to_json()
                ej["pullback_target"] = e.pullback_target.to_json()
            edges.append(ej)
        out["edges"] = edges
        return out


def graph_from_json(obj) -> GkmGraph:
    """Parse the graph JSON schema.

    Missing vertex fibers default to point fibers.  Missing edge fiber data
    defaults to the source vertex fiber with identity pullbacks; an edge
    carrying only ``pullback_target`` is the normalized single-map form
    (edge fiber = source fiber, source pullback = identity).
    """
    if not isinstance(obj, dict):
        raise InputShapeError("graph JSON must be an object")
    try:
        rank = obj["rank"]
    except KeyError:
        raise InputShapeError("graph JSON needs a 'rank'") from None
    if not is_int(rank):
        raise InputShapeError("rank must be an integer")
    for key in ("manifold_dim", "bottom_orbit_dim"):
        if key in obj and not is_int(obj[key]):
            raise InputShapeError(f"{key} must be an integer")
    for key in ("vertices", "edges"):
        if key in obj and not isinstance(obj[key], list):
            raise InputShapeError(f"{key} must be an array")
    vertices = []
    for vj in obj.get("vertices", []):
        if not isinstance(vj, dict) or "id" not in vj or "isotropy" not in vj:
            raise InputShapeError("each vertex needs 'id' and 'isotropy'")
        fiber = GradedVS.from_json(vj["fiber"]) if "fiber" in vj else GradedVS.point()
        vertices.append(
            GkmVertex(
                id=str(vj["id"]),
                isotropy=subspace_from_json(vj["isotropy"], rank),
                fiber=fiber,
            )
        )
    fibers = {v.id: v.fiber for v in vertices}
    edges = []
    for ej in obj.get("edges", []):
        if not isinstance(ej, dict) or any(
            k not in ej for k in ("id", "source", "target", "isotropy")
        ):
            raise InputShapeError("each edge needs 'id', 'source', 'target', 'isotropy'")
        src, tgt = str(ej["source"]), str(ej["target"])
        if src not in fibers or tgt not in fibers:
            raise InputShapeError(
                f"edge {ej['id']!r} references unknown vertex {src if src not in fibers else tgt!r}"
            )
        src_fiber, tgt_fiber = fibers[src], fibers[tgt]
        edge_fiber = GradedVS.from_json(ej["edge_fiber"]) if "edge_fiber" in ej else src_fiber
        p_src, p_tgt = (
            GradedMap.from_json(ej[key], fiber, edge_fiber) if key in ej else GradedMap.identity(fiber)
            for key, fiber in (("pullback_source", src_fiber), ("pullback_target", tgt_fiber))
        )
        edges.append(
            GkmEdge(
                id=str(ej["id"]),
                source=src,
                target=tgt,
                isotropy=subspace_from_json(ej["isotropy"], rank),
                edge_fiber=edge_fiber,
                pullback_source=p_src,
                pullback_target=p_tgt,
            )
        )
    return GkmGraph(
        rank=rank,
        vertices=tuple(vertices),
        edges=tuple(edges),
        manifold_dim=obj.get("manifold_dim"),
        bottom_orbit_dim=obj.get("bottom_orbit_dim"),
    )


# --- validation -------------------------------------------------------------

CHECK_CONNECTED = "CONNECTED"
CHECK_CONTAINMENT = "CONTAINMENT"
CHECK_ISOTROPY_DIMENSIONS = "ISOTROPY_DIMENSIONS"
CHECK_GKM_CONDITION = "GKM_CONDITION"
CHECK_SELF_LOOP = "SELF_LOOP"
CHECK_EDGE_COUNT = "EDGE_COUNT"
CHECK_FIBER_MAPS = "FIBER_MAPS"


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    mandatory: bool
    detail: str

    @property
    def reason(self) -> str | None:
        """The check's name, except that a failed CONNECTED reads DISCONNECTED."""
        if self.passed:
            return None
        return "DISCONNECTED" if self.name == CHECK_CONNECTED else self.name

    def to_json(self):
        out = {
            "name": self.name,
            "passed": self.passed,
            "mandatory": self.mandatory,
            "detail": self.detail,
        }
        if not self.passed:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks if c.mandatory)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.reason for c in self.checks if not c.passed)

    def to_json(self):
        return {"valid": self.valid, "checks": [c.to_json() for c in self.checks]}


def validate_graph(graph: GkmGraph) -> ValidationReport:
    """Check the graph against the GKM conditions; the report is held on it.

    Mandatory: connectivity, edge-isotropy containment of codimension one,
    equal isotropy dimensions, pairwise distinct edge isotropies at each
    vertex, no self-loops, well-formed fiber maps.  Advisory: the edge
    count per vertex for isolated bottom orbits of a (2n+1)-manifold.
    """
    return graph._validation


def _validate(graph: GkmGraph) -> ValidationReport:
    checks = []

    def check(name, violations, passed, failed, mandatory=True):
        # a condition holds when it has no violations: an empty list, or False
        checks.append(ValidationCheck(name, not violations, mandatory,
                                      failed if violations else passed))

    incident: dict[str, list[GkmEdge]] = {v.id: [] for v in graph.vertices}
    for e in graph.edges:
        incident[e.source].append(e)
        if e.target != e.source:
            incident[e.target].append(e)
    if graph.vertices:
        seen = set()
        stack = [graph.vertices[0].id]
        while stack:
            vid = stack.pop()
            if vid in seen:
                continue
            seen.add(vid)
            stack.extend(e.target if e.source == vid else e.source for e in incident[vid])
        connected = len(seen) == len(graph.vertices)
    else:
        connected = False
    check(CHECK_CONNECTED, not connected,
          "underlying graph is connected", "underlying graph is not connected")

    hyperplane = {(v.id, e.id): ok and e.isotropy.dim == v.isotropy.dim - 1
                  for v in graph.vertices for e, ok in zip(
                      incident[v.id], contained(v.isotropy, [x.isotropy for x in incident[v.id]]))}
    bad_containment = [(e.id, vid) for e in graph.edges for vid in (e.source, e.target)
                       if not hyperplane[vid, e.id]]
    check(CHECK_CONTAINMENT, bad_containment,
          "every edge isotropy sits in both endpoint isotropies with codimension 1",
          f"containment/codimension violations at {bad_containment}")

    vdims = {v.isotropy.dim for v in graph.vertices}
    edims = {e.isotropy.dim for e in graph.edges}
    dims_ok = len(vdims) <= 1 and (
        not edims or (len(edims) == 1 and vdims and next(iter(edims)) == next(iter(vdims)) - 1)
    )
    dims = f"vertex isotropies of dimension {sorted(vdims)}, edges {sorted(edims)}"
    check(CHECK_ISOTROPY_DIMENSIONS, not dims_ok, dims, dims)

    gkm_bad = [(vid, a.id, b.id) for vid, edge_list in incident.items()
               for a, b in combinations(edge_list, 2) if a.isotropy == b.isotropy]
    check(CHECK_GKM_CONDITION, gkm_bad, "edge isotropies at each vertex are pairwise distinct",
          f"coinciding edge isotropies: {gkm_bad}")

    loops = [e.id for e in graph.edges if e.source == e.target]
    check(CHECK_SELF_LOOP, loops, "no self-loops", f"self-loops: {loops}")

    if (
        graph.manifold_dim is not None
        and graph.bottom_orbit_dim == 1
        and graph.is_point_fibered
    ):
        n = (graph.manifold_dim - 1) // 2
        bad_counts = {
            vid: len(edge_list)
            for vid, edge_list in incident.items()
            if len(edge_list) != n
        }
        check(CHECK_EDGE_COUNT, bad_counts,
              f"every vertex has exactly {n} incident edges (one per weight)",
              f"vertices with edge count != {n}: {bad_counts}", mandatory=False)

    fiber_bad = []
    for e in graph.edges:
        if e.pullback_source.source != graph.vertex(e.source).fiber:
            fiber_bad.append((e.id, "source pullback domain is not the source fiber"))
        if e.pullback_target.source != graph.vertex(e.target).fiber:
            fiber_bad.append((e.id, "target pullback domain is not the target fiber"))
        if e.pullback_source.target != e.edge_fiber:
            fiber_bad.append((e.id, "source pullback does not land in the edge fiber"))
        if e.pullback_target.target != e.edge_fiber:
            fiber_bad.append((e.id, "target pullback does not land in the edge fiber"))
    check(CHECK_FIBER_MAPS, fiber_bad, "fiber maps are well-formed", f"{fiber_bad}")

    return ValidationReport(tuple(checks))


def _require_valid(graph: GkmGraph):
    report = validate_graph(graph)
    if not report.valid:
        raise ValidationError(
            f"invalid GKM graph: {', '.join(report.failures)}", report
        )


# --- degreewise kernel computation ------------------------------------------


def _splits(fiber: GradedVS, var_count: int, total_degree: int):
    """``(d, q, poly_dim, fiber_dim)`` of each nonzero S^d (x) fiber^q, over
    ``var_count`` variables, with 2d + q = total_degree, by rising d: read
    off the fiber's nonzero degrees, so no other split is probed."""
    for q, n in reversed(fiber.dims):
        d, odd = divmod(total_degree - q, 2)
        if d >= 0 and not odd and (pdim := sym_dim(var_count, d)):
            yield d, q, pdim, n


def _layout(graph: GkmGraph, total_degree: int):
    blocks = {}
    offset = 0
    for v in graph.vertices:
        for d, q, pdim, fdim in _splits(v.fiber, v.isotropy.dim, total_degree):
            blocks[v.id, d, q] = offset, pdim, fdim
            offset += pdim * fdim
    return blocks, offset


def _adapted_bases(graph: GkmGraph):
    """Bases of the vertex and edge isotropies in which most edge conditions
    restrict each monomial to one monomial: ``(vertex bases, edge bases)``,
    by id, as int rows in the sense of :func:`~gkmcalc.exactlin.coordinates`.

    At a vertex the incident edges are taken in id order, each kept while the
    normal of its isotropy, a hyperplane as validation found, stays
    independent of those kept, then canonical coordinate functionals fill up;
    :func:`~gkmcalc.exactlin.dual_basis` makes that choice and finds the dual
    lines in one solve.  The lines, sorted, are the vertex's basis, so a
    kept edge's isotropy is spanned by the other lines.  An edge takes those
    other lines at its source if the source kept it, else at its target,
    else its canonical rows.  Where every incident isotropy is a coordinate
    hyperplane of the canonical basis, that basis is what the rule chooses;
    it is taken without normals or elimination.  On a toric skeleton both endpoints of
    an edge have its lines, so every constraint row has two nonzeros.
    Kernel dimensions do not depend on the bases chosen.
    """
    incident: dict[str, list[GkmEdge]] = {v.id: [] for v in graph.vertices}
    for e in sorted(graph.edges, key=lambda e: e.id):
        incident[e.source].append(e)
        incident[e.target].append(e)
    vertex_bases = {}
    others = {}  # (vertex id, edge id) -> the other lines, where kept
    for v in graph.vertices:
        rows, edges = v.isotropy.rows, incident[v.id]
        own = set(rows)
        if all(own.issuperset(e.isotropy.rows) for e in edges):
            vertex_bases[v.id] = rows
            others.update(((v.id, e.id), e.isotropy.rows) for e in edges)
            continue
        normals = hyperplane_normals(v.isotropy, [e.isotropy for e in edges])
        kept, lines = dual_basis(v.isotropy, normals)
        basis = vertex_bases[v.id] = tuple(sorted(lines, reverse=True))
        others.update(((v.id, edges[i].id), tuple(x for x in basis if x != line))
                      for i, line in zip(kept, lines) if i < len(edges))
    edge_bases = {e.id: others.get((e.source, e.id)) or others.get((e.target, e.id))
                  or e.isotropy.rows for e in graph.edges}
    return vertex_bases, edge_bases


def _ends(graph: GkmGraph, bases=None):
    """Per edge, its two ends ``(vertex id, sign, pullback blocks by degree,
    restriction)``, resolved once per call, in the canonical isotropy bases
    or in ``bases`` as :func:`_adapted_bases` returns them."""
    if bases is None:
        bases = ({v.id: v.isotropy.rows for v in graph.vertices},
                 {e.id: e.isotropy.rows for e in graph.edges})
    vertex_bases, edge_bases = bases
    return [tuple((vid, sign, dict(pullback.blocks),
                   restriction(vertex_bases[vid], edge_bases[e.id]))
                  for vid, pullback, sign in ((e.source, e.pullback_source, 1),
                                              (e.target, e.pullback_target, -1)))
            for e in graph.edges]


def _slots(graph: GkmGraph, total_degree: int, blocks, total: int, ends):
    """Rows of the edge-restriction map at one total degree, each an integer
    multiple of a row of the map, as ``(cols0, vals0, cols1, vals1, wide)``:
    row k holds ``vals0[k]`` in column ``cols0[k]``, then ``vals1[k]`` in
    ``cols1[k]``, then the entries of ``wide[k]``, if any, in scatter order.
    An empty slot holds column ``total`` with value 1, the forced zero of
    :func:`~gkmcalc.exactlin.pair_pivots`.  ``blocks`` is :func:`_layout`'s
    mapping of (vertex id, d, q) to ``(offset, poly_dim, fiber_dim)``, and
    polynomials are written in the coordinates of ``ends``, from :func:`_ends`.
    """
    cols0, vals0, cols1, vals1 = [], [], [], []
    wide: dict[int, dict[int, int]] = {}
    for e, edge_ends in zip(graph.edges, ends):
        for d, q, e_pdim, e_fdim in _splits(e.edge_fiber, e.isotropy.dim, total_degree):
            contributions = []
            for vid, sign, pblocks, to_edge in edge_ends:
                block = blocks.get((vid, d, q))
                prows = pblocks.get(q)
                if block is None or prows is None:
                    continue
                scale, _, live = restriction_images(to_edge, d)
                contributions.append((block, scale, live, prows, sign))
            # one multiplier per pullback row clears the denominators of both sides
            den = [
                lcm(*(scale * prows[ip][0] for _, scale, _, prows, _ in contributions))
                for ip in range(e_fdim)
            ]
            # row (ir, ip) at start + ir * e_fdim + ip; each endpoint's nonempty
            # images are scattered into the rows by increasing column, source first
            start = len(cols0)
            for slot, empty in ((cols0, total), (vals0, 1), (cols1, total), (vals1, 1)):
                slot.extend([empty] * (e_pdim * e_fdim))
            for (offset, _, width), scale, live, prows, sign in contributions:
                for ip, (pden, ppairs) in enumerate(prows):
                    f = sign * (den[ip] // (scale * pden))
                    for col, image in live:
                        base = offset + col * width
                        for ir, r in image:
                            k = start + ir * e_fdim + ip
                            for jp, p in ppairs:
                                if cols0[k] == total:
                                    cols0[k], vals0[k] = base + jp, f * r * p
                                elif cols1[k] == total:
                                    cols1[k], vals1[k] = base + jp, f * r * p
                                else:
                                    wide.setdefault(k, {})[base + jp] = f * r * p
    return cols0, vals0, cols1, vals1, wide


def _constraint_rows(graph: GkmGraph, total_degree: int, blocks, total: int, ends, slots=None):
    """The nonzero rows of :func:`_slots`, or of ``slots`` already scattered
    for these arguments, as sparse ``{col: int}`` dicts, entries in order."""
    cols0, vals0, cols1, vals1, wide = slots or _slots(graph, total_degree, blocks, total, ends)
    rows = [{i: a} if j == total else {i: a, j: b}
            for i, a, j, b in zip(cols0, vals0, cols1, vals1)]
    for k, entries in wide.items():
        rows[k].update(entries)
    return [row for row in rows if total not in row]  # an empty row reads {total: 1}


def _face_dims(graph: GkmGraph, bases, max_degree: int):
    """The kernel dimensions up to ``max_degree`` where the graph is
    point-fibered with identity pullbacks and each edge's lines in ``bases``
    are lines of both its ends, else None.  The nodes (vertex, set S of its
    lines) are joined along each edge whose lines contain S; a component
    gives one class in degree 0 if S is empty, else C(d - 1, |S| - 1) of
    them, one per monomial of support S, in degree 2d."""
    vertex_bases, edge_bases = bases
    if not graph.is_point_fibered or not all(
            e.pullback_source.is_identity and e.pullback_target.is_identity
            and set(edge_bases[e.id]) <= set(vertex_bases[e.source]) & set(vertex_bases[e.target])
            for e in graph.edges):
        return None
    top = max_degree // 2
    # components per support size: the nodes less the unions that join two
    count = [sum(comb(len(rows), s) for rows in vertex_bases.values()) for s in range(top + 1)]
    label = {row: i for i, row in enumerate({row for rows in vertex_bases.values() for row in rows})}
    up = {}  # node -> parent, for each node that is not a root

    def find(node):
        while node in up:  # path halving
            up[node] = node = up.get(up[node], up[node])
        return node

    for e in graph.edges:
        lines = sorted(label[row] for row in edge_bases[e.id])  # small ints hash cheaply
        for face in (face for s in range(top + 1) for face in combinations(lines, s)):
            a, b = find((e.source, face)), find((e.target, face))
            if a != b:
                up[a] = b
                count[len(face)] -= 1
    return [count[0]] + [0 if m % 2 else sum(comb(m // 2 - 1, s - 1) * count[s]
                                             for s in range(1, top + 1))
                         for m in range(1, max_degree + 1)]


def _slot_dims(graph: GkmGraph, bases, max_degree: int):
    """The kernel dimensions up to ``max_degree``, each degree ranked from its slots."""
    ends = _ends(graph, bases)
    dims = []
    for m in range(max_degree + 1):
        blocks, total = _layout(graph, m)
        if total == 0:
            dims.append(0)
            continue
        slots = _slots(graph, m, blocks, total, ends)
        if slots[4]:  # a row of three entries or more: the fixed-order loop
            _, pivots = reduce_int_rows(_constraint_rows(graph, m, blocks, total, ends, slots),
                                        total, rank_only=True)
        else:
            pivots = pair_pivots(zip(*slots[:4]), total)
        dims.append(total - len(pivots))
    return dims


def equivariant_dims(graph: GkmGraph, max_degree: int) -> DegreeSeries:
    """Graded dimensions of the equivariant cohomology kernel up to a cutoff.

    For each total degree m <= max_degree the dimension is the kernel
    dimension of the edge-restriction map described in the module
    docstring, in the bases of :func:`_adapted_bases`; the result carries
    the mandatory cutoff.  Where :func:`_face_dims` applies, a vertex line's
    dual coordinate restricts to the same edge line's or to 0, so each row is
    x_(u,a) - x_(v,a) for a monomial a in the edge's lines: no path picks up
    a sign or a permutation, so no holonomy can occur and faces count the
    kernel.  Elsewhere :func:`_slot_dims` ranks each degree's system.
    """
    if max_degree < 0:
        raise InputShapeError("max_degree must be nonnegative")
    _require_valid(graph)
    bases = _adapted_bases(graph)
    return DegreeSeries(tuple(_face_dims(graph, bases, max_degree)
                              or _slot_dims(graph, bases, max_degree)))


@dataclass(frozen=True)
class EquivariantClass:
    """A kernel element, addressable by per-vertex blocks.

    ``components`` maps (vertex id, polynomial degree, fiber degree) blocks
    to coefficient matrices of shape poly_dim x fiber_dim, with polynomial
    coefficients in the graded-lex monomial order of the vertex isotropy.
    """

    degree: int
    components: tuple[tuple[str, int, int, MatrixQ], ...]

    def component(self, vertex: str, poly_degree: int, fiber_degree: int) -> MatrixQ | None:
        key = vertex, poly_degree, fiber_degree
        return next((m for *block, m in self.components if tuple(block) == key), None)

    def vertex_polynomial(self, graph: GkmGraph, vertex: str) -> dict[tuple[int, ...], Fraction]:
        """Point-fiber convenience: {exponent tuple: coefficient}."""
        if self.degree % 2 != 0:
            return {}
        d = self.degree // 2
        m = self.component(vertex, d, 0)
        if m is None:
            return {}
        basis = monomial_basis(graph.vertex(vertex).isotropy.dim, d)
        return {
            mono: m.entry(i, 0)
            for i, mono in enumerate(basis.monomials)
            if m.entry(i, 0)
        }

    def to_json(self):
        return {
            "degree": self.degree,
            "components": [
                {
                    "vertex": vid,
                    "poly_degree": d,
                    "fiber_degree": q,
                    "coefficients": m.to_json(),
                }
                for vid, d, q, m in self.components
            ],
        }


def _classes_from_rows(basis_rows, blocks, degree) -> list[EquivariantClass]:
    classes = []
    for row in basis_rows:
        comps = []
        for (vid, d, q), (offset, pdim, fdim) in blocks.items():
            entries = row[offset : offset + pdim * fdim]
            if any(entries):
                comps.append((vid, d, q, MatrixQ(pdim, fdim, entries)))
        classes.append(EquivariantClass(degree, tuple(comps)))
    return classes


def equivariant_basis(graph: GkmGraph, degree: int) -> list[EquivariantClass]:
    """Explicit RREF basis of the kernel at one total degree."""
    if degree < 0:
        raise InputShapeError("degree must be nonnegative")
    _require_valid(graph)
    blocks, total = _layout(graph, degree)
    if total == 0:
        return []
    rows = _constraint_rows(graph, degree, blocks, total, _ends(graph))
    return _classes_from_rows(kernel_rows(rows, total), blocks, degree)


def class_product(
    graph: GkmGraph, a: EquivariantClass, b: EquivariantClass
) -> EquivariantClass:
    """Componentwise product of two kernel classes.

    The ring structure is that of point fibers with identity pullbacks;
    any other graph raises :class:`UnsupportedRingStructureError` before a
    product is formed (its kernel dimensions and bases stay available).
    Every component of ``a`` and ``b`` must be a block of the graph's layout
    in its degree, with that block's shape.
    The product is checked exactly against every row of the kernel's
    constraint system in its degree; a failure means the inputs were not
    kernel elements.
    """
    _require_valid(graph)
    if not graph.is_point_fibered:
        raise UnsupportedRingStructureError(
            "ring structure is only computed for graphs with point fibers"
        )
    for e in graph.edges:
        if not (e.pullback_source.is_identity and e.pullback_target.is_identity):
            raise UnsupportedRingStructureError(
                f"edge {e.id!r} pulls a point fiber back by a map other than the "
                "identity: the kernel is not closed under the componentwise product"
            )
    if a.degree % 2 or b.degree % 2:
        raise InputShapeError("point-fiber classes live in even degrees")
    for c in (a, b):
        shapes = _layout(graph, c.degree)[0]
        for vid, d, q, m in c.components:
            if shapes.get((vid, d, q), ())[1:] != (m.rows, m.cols):
                raise InputShapeError(
                    f"component ({vid!r}, {d}, {q}) of a degree-{c.degree} class is not "
                    f"a block of the graph's degree-{c.degree} layout with its shape"
                )
    degree = a.degree + b.degree
    blocks, total = _layout(graph, degree)
    vec = [Fraction(0)] * (total + 1)  # and the column an empty slot of a row reads
    for (vid, d, _), (offset, _, _) in blocks.items():
        index = monomial_basis(graph.vertex(vid).isotropy.dim, d).index
        pb = b.vertex_polynomial(graph, vid)
        for ma, ca in a.vertex_polynomial(graph, vid).items():
            for mb, cb in pb.items():
                key = tuple(x + y for x, y in zip(ma, mb))
                vec[offset + index[key]] += ca * cb
    cols0, vals0, cols1, vals1, wide = _slots(graph, degree, blocks, total, _ends(graph))
    residues = [x * vec[i] + y * vec[j] for i, x, j, y in zip(cols0, vals0, cols1, vals1)]
    for k, entries in wide.items():
        residues[k] += sum(c * vec[col] for col, c in entries.items())
    if any(residues):
        raise InputShapeError(
            f"the product does not satisfy the constraints of degree {degree}: "
            "class_product requires kernel elements"
        )
    return _classes_from_rows([vec], blocks, degree)[0]
