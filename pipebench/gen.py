"""Seeded input generator for the pipeline benchmark.

Every document the program sees is built here from ``(workload, seed)``
with :class:`random.Random` seeded by a string, so one seed always gives
the same inputs on every machine and Python version.  Nothing here
imports gkmcalc: graphs and polytopes are written as JSON documents, and
each job carries the exact reference it is checked against (see
:mod:`refs`).

A job is ``{"name", "kind", "doc", "arg", "expect"}``: the worker gets
``kind``, ``doc`` and ``arg``; ``expect`` never leaves the benchmark
process.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import refs

# Frozen isotropy rows of the Stiefel manifold V_2(R^5) under its rank-3
# torus, with exactly four closed Reeb orbits (a real cohomology sphere).
STIEFEL_VERTICES = {
    "P12+": ((1, 0, 1), (0, 1, 0)),
    "P12-": ((1, 0, -1), (0, 1, 0)),
    "P34+": ((1, 0, 0), (0, 1, 1)),
    "P34-": ((1, 0, 0), (0, 1, -1)),
}
STIEFEL_EDGES = {
    ("P12+", "P12-"): (0, 1, 0),
    ("P12+", "P34+"): (1, 1, 1),
    ("P12+", "P34-"): (1, -1, 1),
    ("P12-", "P34+"): (1, -1, -1),
    ("P12-", "P34-"): (1, 1, -1),
    ("P34+", "P34-"): (1, 0, 0),
}

def rng_for(tag: str, seed: int) -> random.Random:
    return random.Random(f"pipebench:{tag}:{seed}")


def _unit(i, n):
    return [1 if j == i else 0 for j in range(n)]


# --- polytopes ---------------------------------------------------------------


def simplex_incidence(n):
    """Vertices v0..vn of an n-simplex; facet j holds every vertex but vj."""
    verts = [f"v{j}" for j in range(n + 1)]
    facets = [[v for i, v in enumerate(verts) if i != j] for j in range(n + 1)]
    return verts, facets


def cube_incidence(n):
    """Vertices c<bits> of the n-cube; facets x_i = 0 and x_i = 1, in turn."""
    verts = ["c" + "".join(bits) for bits in product("01", repeat=n)]
    facets = [
        [v for v in verts if v[1 + i] == b] for i in range(n) for b in "01"
    ]
    return verts, facets


def coordinate_normals(shape, n):
    """Simplex facet j: e_j.  Cube facets x_i = 0 / x_i = 1: e_i / -e_i."""
    if shape == "simplex":
        return [_unit(j, n + 1) for j in range(n + 1)]
    return [[s * x for x in _unit(i, n + 1)] for i in range(n) for s in (1, -1)]


def generic_normals(rng, nfacets, rank, bound=3):
    """Small random integer normals in general position.

    Retries (deterministically, from ``rng``) until every ``rank`` of them,
    or all of them if there are fewer, are independent; then the normals
    at each vertex of a simple polytope are independent and the one-skeleton
    is a valid GKM graph.
    """
    k = min(rank, nfacets)
    while True:
        normals = [
            [rng.randint(-bound, bound) for _ in range(rank)] for _ in range(nfacets)
        ]
        if all(
            refs.rank([normals[i] for i in sub], rank) == k
            for sub in combinations(range(nfacets), k)
        ):
            return normals


def polytope(shape, n, normals):
    verts, facets = simplex_incidence(n) if shape == "simplex" else cube_incidence(n)
    return {"shape": shape, "n": n, "verts": verts, "facets": facets, "normals": normals}


def vertex_facets(poly):
    return [
        [i for i, f in enumerate(poly["facets"]) if v in f] for v in poly["verts"]
    ]


def polytope_doc(poly):
    """MomentPolytope JSON (vertex coordinates are placeholders: incidence
    is what the skeleton reads)."""
    n = poly["n"]
    if poly["shape"] == "simplex":
        coords = [_unit(j, n + 1) for j in range(n + 1)]
    else:
        coords = [[int(b) for b in v[1:]] + [1] for v in poly["verts"]]
    return {
        "rank": n + 1,
        "vertices": [{"id": v, "coords": c} for v, c in zip(poly["verts"], coords)],
        "facets": [
            {"normal": nrm, "vertices": f}
            for nrm, f in zip(poly["normals"], poly["facets"])
        ],
    }


def skeleton_doc(poly):
    """The polytope's one-skeleton as graph JSON, isotropies given by the
    (uncanonicalized) facet normals."""
    n, normals = poly["n"], poly["normals"]
    vf = vertex_facets(poly)
    vertices = [
        {"id": v, "isotropy": [normals[i] for i in fs]}
        for v, fs in zip(poly["verts"], vf)
    ]
    edges = []
    for a, b in combinations(range(len(poly["verts"])), 2):
        shared = sorted(set(vf[a]) & set(vf[b]))
        if len(shared) == n - 1:
            va, vb = poly["verts"][a], poly["verts"][b]
            edges.append(
                {
                    "id": f"{va}|{vb}",
                    "source": va,
                    "target": vb,
                    "isotropy": [normals[i] for i in shared],
                }
            )
    return {
        "rank": n + 1,
        "manifold_dim": 2 * n + 1,
        "bottom_orbit_dim": 1,
        "vertices": vertices,
        "edges": edges,
    }


def expected_skeleton(poly):
    """What ``toric-skeleton`` must print: canonical isotropy bases."""
    rank = poly["n"] + 1
    doc = skeleton_doc(poly)
    for part in doc["vertices"] + doc["edges"]:
        part["isotropy"] = refs.canonical_json(part["isotropy"], rank)
    return doc


# --- graph families ------------------------------------------------------------


def simplex_doc(n):
    return skeleton_doc(polytope("simplex", n, coordinate_normals("simplex", n)))


def surface_dims(g):
    return [[0, 1], [1, 2 * g], [2, 1]] if g else [[0, 1], [2, 1]]


def fiber_join_doc(n, g):
    doc = simplex_doc(n)
    del doc["bottom_orbit_dim"]
    doc["manifold_dim"] = 2 * n + 3
    for v in doc["vertices"]:
        v["fiber"] = {"dims": surface_dims(g)}
    return doc


def hirzebruch_doc(m, scale="1"):
    sphere = {"dims": [[0, 1], [2, 1]]}
    a, b = f"L({m},1)", f"L({2 * m},1)"
    return {
        "rank": 2,
        "manifold_dim": 5,
        "vertices": [
            {"id": a, "isotropy": [[1, 0]], "fiber": sphere},
            {"id": b, "isotropy": [[0, 1]], "fiber": sphere},
        ],
        "edges": [
            {
                "id": "e",
                "source": a,
                "target": b,
                "isotropy": [],
                "edge_fiber": sphere,
                "pullback_source": {"0": [[1]], "2": [[1]]},
                "pullback_target": {"0": [[1]], "2": [[scale]]},
            }
        ],
    }


def stiefel_doc():
    return {
        "rank": 3,
        "manifold_dim": 7,
        "bottom_orbit_dim": 1,
        "vertices": [
            {"id": v, "isotropy": [list(r) for r in rows]}
            for v, rows in STIEFEL_VERTICES.items()
        ],
        "edges": [
            {"id": f"{a}|{b}", "source": a, "target": b, "isotropy": [list(r)]}
            for (a, b), r in STIEFEL_EDGES.items()
        ],
    }


def family(kind, **params):
    """Reference descriptor: enough to derive every expected series."""
    if kind == "skeleton":
        poly = params["poly"]
        n = poly["n"]
        return {
            "kind": kind,
            "vertex_facets": vertex_facets(poly),
            "nfacets": len(poly["facets"]),
            "rank": n + 1,
            "manifold_dim": 2 * n + 1,
            "fiber_total": len(poly["verts"]),
            "even_fibers": True,
        }
    if kind == "fiber_join":
        n, g = params["n"], params["g"]
        return {
            "kind": kind,
            "n": n,
            "g": g,
            "rank": n + 1,
            "manifold_dim": 2 * n + 3,
            "fiber_total": (n + 1) * (2 + 2 * g),
            "even_fibers": g == 0,
        }
    if kind == "hirzebruch":
        return {"kind": kind, "rank": 2, "manifold_dim": 5, "fiber_total": 4,
                "even_fibers": True}
    return {"kind": "stiefel", "rank": 3, "manifold_dim": 7, "fiber_total": 4,
            "even_fibers": True}


def equivariant(fam, cutoff):
    kind = fam["kind"]
    if kind == "skeleton":
        return refs.face_ring_series(fam["vertex_facets"], fam["nfacets"], cutoff)
    if kind == "fiber_join":
        n = fam["n"]
        base = refs.face_ring_series(
            [[i for i in range(n + 1) if i != j] for j in range(n + 1)], n + 1, cutoff
        )
        return refs.convolve(base, [1, 2 * fam["g"], 1], cutoff)
    if kind == "hirzebruch":
        return refs.hirzebruch_series(cutoff)
    return refs.minimal_equivariant(3, 3, cutoff)


def expected_checks(fam, cutoff):
    return refs.expected_checks(
        equivariant(fam, cutoff), fam["rank"], cutoff, fam["manifold_dim"],
        fam["fiber_total"], fam["even_fibers"],
    )


def disguise(rng, doc):
    """The same graph under fresh vertex and edge ids, with every spanning
    vector rescaled and the spanning sets shuffled (both undone by
    canonicalization).  Point-fiber edges may flip orientation, which only
    negates constraint rows.  Vertex and edge order stay: they set the
    elimination order and so its cost."""
    doc = json.loads(json.dumps(doc))
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
    point = all("fiber" not in v for v in doc["vertices"])
    rename = {v["id"]: f"{tag}{k}" for k, v in enumerate(doc["vertices"])}

    def respan(rows):
        rows = [[x * f for x in r] for r, f in
                ((r, rng.choice((1, 2, 3, -1, -2))) for r in rows)]
        rng.shuffle(rows)
        return rows

    for v in doc["vertices"]:
        v["id"] = rename[v["id"]]
        v["isotropy"] = respan(v["isotropy"])
    for k, e in enumerate(doc["edges"]):
        e["source"], e["target"] = rename[e["source"]], rename[e["target"]]
        if point and rng.random() < 0.5:
            e["source"], e["target"] = e["target"], e["source"]
        e["id"] = f"{tag}e{k}"
        e["isotropy"] = respan(e["isotropy"])
    return doc


def generic_polytope(shape, n, k):
    """Polytope ``k`` of the fixed pool of generic ``shape``-``n`` polytopes.

    Elimination cost differs by up to 2x between one general-position
    normal set and another, so workloads draw their normals from fixed
    pool seeds and vary only ids and spanning sets by run seed; otherwise
    run-to-run spread would drown any change worth measuring.
    """
    nfacets = n + 1 if shape == "simplex" else 2 * n
    normals = generic_normals(rng_for(f"generic-{shape}{n}", k), nfacets, n + 1)
    return polytope(shape, n, normals)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- workloads ------------------------------------------------------------------


def _checks_job(name, doc, fam, cutoff):
    return {"name": name, "kind": "checks", "doc": doc, "arg": cutoff,
            "expect": expected_checks(fam, cutoff)}


def sparse_series(seed):
    """Coordinate isotropies: two nonzeros per row, unit coefficients.

    Cutoffs here and in the other workloads keep a pass to about two
    seconds, so a run repeats it often enough for per-job medians to be
    steady.
    """
    rng = rng_for("sparse-series", seed)
    cube = polytope("cube", 4, coordinate_normals("cube", 4))
    s4 = polytope("simplex", 4, coordinate_normals("simplex", 4))
    s5 = polytope("simplex", 5, coordinate_normals("simplex", 5))
    return [
        _checks_job("simplex(4)@14", disguise(rng, skeleton_doc(s4)),
                    family("skeleton", poly=s4), 14),
        _checks_job("fiber_join(3,2)@14", disguise(rng, fiber_join_doc(3, 2)),
                    family("fiber_join", n=3, g=2), 14),
        _checks_job("cube(4)@10", disguise(rng, skeleton_doc(cube)),
                    family("skeleton", poly=cube), 10),
        _checks_job("simplex(5)@11", disguise(rng, skeleton_doc(s5)),
                    family("skeleton", poly=s5), 11),
    ]


def phase_job(seed):
    """``simplex(5)@16``, the ROADMAP baseline; run once by a traced
    ``sparse-series`` run for its phase table, outside the timed passes."""
    s5 = polytope("simplex", 5, coordinate_normals("simplex", 5))
    return _checks_job("simplex(5)@16", disguise(rng_for("phase", seed), skeleton_doc(s5)),
                       family("skeleton", poly=s5), 16)


def generic_series(seed):
    """General-position normals: dense rational restriction matrices."""
    rng = rng_for("generic-series", seed)
    jobs = []
    for shape, n, k, cutoff in (
        ("simplex", 4, 0, 11), ("simplex", 4, 1, 11), ("cube", 3, 0, 12),
        ("cube", 4, 0, 7), ("cube", 4, 1, 7),
    ):
        poly = generic_polytope(shape, n, k)
        jobs.append(_checks_job(
            f"generic-{shape}({n})#{k}@{cutoff}", disguise(rng, skeleton_doc(poly)),
            family("skeleton", poly=poly), cutoff))
    return jobs


PRODUCT_PAIRS = 12


def basis_ring(seed):
    """RREF kernel bases (frozen digests) and ring products.

    Bases depend on vertex ids and order, so these graphs are not
    disguised; the seed picks the product pairs.
    """
    rng = rng_for("basis-ring", seed)
    s4 = polytope("simplex", 4, coordinate_normals("simplex", 4))
    gen4 = generic_polytope("simplex", 4, 0)
    fam_s4 = family("skeleton", poly=s4)
    specs = [
        ("simplex(4)", skeleton_doc(s4), fam_s4, 10),
        ("simplex(4)", skeleton_doc(s4), fam_s4, 12),
        ("fiber_join(3,2)", fiber_join_doc(3, 2), family("fiber_join", n=3, g=2), 14),
        ("generic-simplex(4)#0", skeleton_doc(gen4), family("skeleton", poly=gen4), 8),
    ]

    def basis_job(name, doc, fam, degree, keep=False):
        return {"name": f"basis {name}@{degree}", "kind": "basis", "doc": doc,
                "arg": degree, "keep": keep,
                "expect": {"count": equivariant(fam, degree)[degree],
                           "frozen": f"{name}@{degree}"}}

    jobs = [basis_job("simplex(4)", specs[0][1], fam_s4, 4, keep=True),
            basis_job("simplex(4)", specs[0][1], fam_s4, 6, keep=True)]
    n4, n6 = (equivariant(fam_s4, d)[d] for d in (4, 6))
    pairs = rng.sample([(i, j) for i in range(n4) for j in range(n6)], PRODUCT_PAIRS)
    products = [
        {"name": f"product b4[{i}]*b6[{j}]", "kind": "product", "doc": specs[0][1],
         "arg": [i, j], "expect": {"factors": [0, 1]}}
        for i, j in pairs
    ]
    # products spread between the long basis jobs, so their latencies
    # sample the whole pass rather than one stretch of it
    step = len(products) // len(specs)
    for k, spec in enumerate(specs):
        jobs.append(basis_job(*spec))
        jobs += products[k * step:(k + 1) * step]
    return jobs


# --- cli-stream ---------------------------------------------------------------

CLI_MIX = {
    "validate": 24, "validate-invalid": 16, "cohomology": 40, "basic": 30,
    "check": 40, "toric-skeleton": 25, "gysin": 20, "gysin-inconsistent": 5,
    "morse-bott": 25, "example": 25,
}


# Graph command k of a kind uses spec k % len(GRAPH_SPECS) at cutoff
# cutoffs[(k // len(GRAPH_SPECS)) % len(cutoffs)], generic normals from
# the fixed pool: the families, sizes and normals are the same for every
# seed, so per-seed work stays level while ids and spanning sets vary.
GRAPH_SPECS = (
    ("simplex", 1, (8, 16, 24)),
    ("simplex", 2, (8, 14, 20)),
    ("simplex", 3, (6, 9, 12)),
    ("generic-simplex", 2, (8, 12, 16)),
    ("generic-cube", 2, (8, 12, 16)),
    ("generic-simplex", 3, (6, 8, 10)),
    ("generic-cube", 3, (4, 6, 8)),
    ("stiefel", 0, (8, 13, 18)),
    ("fiber_join", 1, (6, 10, 14)),
    ("fiber_join", 2, (6, 10, 14)),
    ("hirzebruch", 0, (4, 12, 24)),
)


def _small_graph(rng, k):
    """Graph document number ``k`` of a command, its family and cutoff."""
    kind, n, cutoffs = GRAPH_SPECS[k % len(GRAPH_SPECS)]
    round_ = k // len(GRAPH_SPECS)
    cutoff = cutoffs[round_ % len(cutoffs)]
    if kind == "simplex":
        poly = polytope("simplex", n, coordinate_normals("simplex", n))
        return skeleton_doc(poly), family("skeleton", poly=poly), cutoff
    if kind.startswith("generic-"):
        poly = generic_polytope(kind.split("-")[1], n, round_)
        return skeleton_doc(poly), family("skeleton", poly=poly), cutoff
    if kind == "stiefel":
        return stiefel_doc(), family("stiefel"), cutoff
    if kind == "fiber_join":
        g = round_ % 3
        return fiber_join_doc(n, g), family("fiber_join", n=n, g=g), cutoff
    m = rng.randint(1, 6)
    scale = rng.choice(("1", "2", "-3", "1/2", "5/3"))
    return hirzebruch_doc(m, scale), family("hirzebruch"), cutoff


def _invalid_graph(rng, defect):
    """A simplex(n) graph (n >= 2) with one injected defect, and the checks
    that must fail (EDGE_COUNT is advisory)."""
    n = rng.randint(2, 3)
    doc = simplex_doc(n)
    if defect == "DISCONNECTED":
        twin = json.loads(json.dumps(doc))
        for v in twin["vertices"]:
            v["id"] += "'"
        for e in twin["edges"]:
            e["id"] += "'"
            e["source"] += "'"
            e["target"] += "'"
        doc["vertices"] += twin["vertices"]
        doc["edges"] += twin["edges"]
        return doc, ["CONNECTED"]
    j, jp = sorted(rng.sample(range(n + 1), 2))
    if defect == "GKM_CONDITION":
        dup = dict(next(e for e in doc["edges"] if e["id"] == f"v{j}|v{jp}"))
        dup["id"] = "dup"
        doc["edges"].append(dup)
        return doc, ["EDGE_COUNT", "GKM_CONDITION"]
    if defect == "SELF_LOOP":
        units = [_unit(k, n + 1) for k in range(n + 1) if k != j]
        span = [[a + b for a, b in zip(units[0], units[1])]] + units[2:]
        doc["edges"].append({"id": "loop", "source": f"v{j}", "target": f"v{j}",
                             "isotropy": span})
        return doc, ["EDGE_COUNT", "SELF_LOOP"]
    # CONTAINMENT: tilt one edge isotropy out of both endpoint isotropies
    rest = [_unit(k, n + 1) for k in range(n + 1) if k not in (j, jp)]
    tilted = [[a + b for a, b in zip(_unit(j, n + 1), _unit(jp, n + 1))]] + rest[1:]
    for e in doc["edges"]:
        if e["id"] == f"v{j}|v{jp}":
            e["isotropy"] = tilted
    return doc, ["CONTAINMENT"]


def _gysin_doc(rng, inconsistent):
    n = rng.randint(1, 4)
    dims = [1] + [rng.randint(1, 3) for _ in range(n)]
    mats = [
        [[rng.randint(-2, 2) for _ in range(dims[k])] for _ in range(dims[k + 1])]
        for k in range(n)
    ]
    doc = {"basic_dims": dims, "euler_mult": list(mats)}
    if inconsistent:
        doc["euler_mult"].append([[1] * dims[n]])
    elif rng.random() < 0.3:
        doc["euler_mult"].append([])
    return doc, mats


def _example_job(rng):
    kind = rng.choice(("simplex", "fiber-join", "hirzebruch", "stiefel", "simplex-polytope"))
    if kind == "simplex":
        n = rng.randint(1, 5)
        return ["example", "simplex", "--n", str(n)], expected_skeleton(
            polytope("simplex", n, coordinate_normals("simplex", n)))
    if kind == "fiber-join":
        n, g = rng.randint(1, 4), rng.randint(0, 3)
        doc = fiber_join_doc(n, g)
        for part in doc["vertices"] + doc["edges"]:
            part["isotropy"] = refs.canonical_json(part["isotropy"], n + 1)
        return ["example", "fiber-join", "--n", str(n), "--genus", str(g)], doc
    if kind == "hirzebruch":
        m = rng.randint(1, 9)
        doc = hirzebruch_doc(m)
        for key in ("edge_fiber", "pullback_source", "pullback_target"):
            del doc["edges"][0][key]
        return ["example", "hirzebruch", "--m", str(m)], doc
    if kind == "stiefel":
        doc = stiefel_doc()
        for part in doc["vertices"] + doc["edges"]:
            part["isotropy"] = refs.canonical_json(part["isotropy"], 3)
        return ["example", "stiefel"], doc
    n = rng.randint(1, 5)
    weights = [rng.choice(("1", "2", "3", "1/2", "3/2", "5/4")) for _ in range(n + 1)]
    doc = polytope_doc(polytope("simplex", n, coordinate_normals("simplex", n)))
    for j, v in enumerate(doc["vertices"]):
        v["coords"][j] = refs.rational_json(1 / Fraction(weights[j]))
    return ["example", "simplex-polytope", "--n", str(n), "--weights", *weights], doc


def cli_stream(seed):
    """A shuffled stream of small documents through every subcommand."""
    rng = rng_for("cli-stream", seed)
    seen = set()
    jobs = []

    def graph_job(cmd, k, strict=False):
        while True:
            base, fam, cutoff = _small_graph(rng, k)
            doc = disguise(rng, base)
            key = (digest(doc), cutoff)
            if key not in seen:
                seen.add(key)
                break
        argv = [cmd, "-", "--max-degree", str(cutoff)] + (["--strict"] if strict else [])
        if cmd == "cohomology":
            eq = equivariant(fam, cutoff)
            return argv, doc, 0, {"coeffs": eq, "cutoff": cutoff}
        if cmd == "basic":
            out = refs.basic_report(equivariant(fam, cutoff), fam["rank"], cutoff)
            out["rank"] = fam["rank"]
            code = 3 if strict and out["verdict"] != "polynomial up to cutoff" else 0
            return argv, doc, code, out
        out = expected_checks(fam, cutoff)
        inconclusive = any(s == "inconclusive" for _, s in out["checks"])
        return argv, doc, 3 if strict and inconclusive else 0, out

    for cmd, count in CLI_MIX.items():
        for k in range(count):
            if cmd == "validate":
                base, _, _ = _small_graph(rng, k)
                argv, doc = ["validate", "-"], disguise(rng, base)
                code, expect = 0, {"valid": True, "failed": []}
            elif cmd == "validate-invalid":
                defect = ("DISCONNECTED", "GKM_CONDITION", "SELF_LOOP", "CONTAINMENT")[k % 4]
                doc, failed = _invalid_graph(rng, defect)
                argv, code, expect = ["validate", "-"], 1, {"valid": False, "failed": failed}
            elif cmd in ("cohomology", "basic", "check"):
                argv, doc, code, expect = graph_job(
                    cmd, k, strict=cmd != "cohomology" and k % 4 == 1)
            elif cmd == "toric-skeleton":
                shape, n = rng.choice((("simplex", 1), ("simplex", 2), ("simplex", 3),
                                       ("cube", 2), ("cube", 3)))
                nfacets = n + 1 if shape == "simplex" else 2 * n
                poly = polytope(shape, n, generic_normals(rng, nfacets, n + 1))
                argv, doc, code = ["toric-skeleton", "-"], polytope_doc(poly), 0
                expect = expected_skeleton(poly)
            elif cmd in ("gysin", "gysin-inconsistent"):
                doc, mats = _gysin_doc(rng, cmd == "gysin-inconsistent")
                argv = ["gysin", "-"]
                if cmd == "gysin":
                    dims = doc["basic_dims"]
                    code = 0
                    expect = {"manifold_dim": 2 * len(dims) - 1,
                              "betti": refs.gysin_betti(dims, mats)}
                else:
                    code, expect = 2, None
            elif cmd == "morse-bott":
                comps = [(2 * rng.randint(0, 3),
                          [rng.randint(0, 3) for _ in range(rng.randint(1, 8))])
                         for _ in range(rng.randint(1, 4))]
                cutoff = rng.randint(6, 20)
                doc = {"components": [
                    {"index": i, "series": {"cutoff": len(c) - 1, "coeffs": c}}
                    for i, c in comps]}
                argv, code = ["morse-bott", "-", "--max-degree", str(cutoff)], 0
                expect = {"coeffs": refs.morse_bott(comps, cutoff), "cutoff": cutoff}
            else:
                argv, expect = _example_job(rng)
                doc, code = None, 0
            jobs.append({"name": f"{cmd}#{k}", "kind": "cli", "doc": doc, "arg": argv,
                         "expect": {"exit": code, "out": expect}})
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "sparse-series": sparse_series,
    "generic-series": generic_series,
    "basis-ring": basis_ring,
    "cli-stream": cli_stream,
}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed):
    """The workload's job list for ``seed``: program inputs plus references."""
    return BUILDERS[workload](seed)


def inputs_digest(jobs):
    """Hash of exactly what the program is given (documents and arguments)."""
    return digest([[j["kind"], j["doc"], j["arg"]] for j in jobs])
