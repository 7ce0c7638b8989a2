"""Self-tests of the pipeline benchmark.

    python3 -m pytest pipebench/tests -q

They check that the generator is deterministic, that the references
agree with brute force (and with the program) on small cases, and that
traced and untraced workers produce identical job outputs.
"""

import json
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import gkmcalc  # noqa: E402
from gkmcalc import series  # noqa: E402


# --- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    a, b = gen.build(workload, 7), gen.build(workload, 7)
    assert gen.inputs_digest(a) == gen.inputs_digest(b)
    assert json.dumps([j["expect"] for j in a]) == json.dumps([j["expect"] for j in b])
    assert gen.inputs_digest(a) != gen.inputs_digest(gen.build(workload, 8))


def test_generic_normals_are_in_general_position():
    normals = gen.generic_normals(random.Random(3), 8, 5)
    assert len(normals) == 8
    assert all(refs.rank(list(sub), 5) == 5
               for sub in combinations(normals, 5))


def test_cli_stream_never_repeats_a_graph_and_cutoff():
    keys = [
        (gen.digest(j["doc"]), j["arg"][3])
        for j in gen.cli_stream(5)
        if j["arg"][0] in ("cohomology", "basic", "check")
    ]
    assert len(keys) == len(set(keys))


# --- references against brute force ----------------------------------------------


def _brute_kernel_dims(doc, cutoff):
    """Kernel dimensions of a point-fiber graph by evaluation on grids.

    A vertex unknown is a polynomial in coordinates w.r.t. the vertex's
    spanning vectors; along an edge both endpoint polynomials are
    evaluated at every point of the grid {0..d}^k in the edge isotropy,
    which determines a degree-d polynomial on it.
    """
    rank = doc["rank"]
    verts = {v["id"]: refs.rref(v["isotropy"], rank) for v in doc["vertices"]}
    dims = []
    for m in range(cutoff + 1):
        if m % 2:
            dims.append(0)
            continue
        d = m // 2
        offsets, total = {}, 0
        for vid, basis in verts.items():
            offsets[vid] = total
            total += len(refs.compositions(d, len(basis)))
        rows = []
        for e in doc["edges"]:
            ebasis = refs.rref(e["isotropy"], rank)
            for grid in product(range(d + 1), repeat=len(ebasis)):
                point = [sum(Fraction(c) * b[i] for c, b in zip(grid, ebasis))
                         for i in range(rank)] if ebasis else [Fraction(0)] * rank
                row = [Fraction(0)] * total
                for vid, sign in ((e["source"], 1), (e["target"], -1)):
                    basis = verts[vid]
                    coords = _coordinates(point, basis)
                    for k, mono in enumerate(refs.compositions(d, len(basis))):
                        value = Fraction(1)
                        for c, a in zip(coords, mono):
                            value *= c ** a
                        row[offsets[vid] + k] += sign * value
                rows.append(row)
        dims.append(total - refs.rank(rows, total))
    return dims


def _coordinates(point, basis):
    """Coordinates of ``point`` in an RREF basis (read off pivot columns)."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    return [point[p] for p in pivots]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_face_ring_matches_closed_form_for_simplex(n):
    poly = gen.polytope("simplex", n, gen.coordinate_normals("simplex", n))
    series_ = refs.face_ring_series(gen.vertex_facets(poly), n + 1, 12)
    for d in range(7):
        full = comb(d - 1, n) if d >= 1 else 0
        assert series_[2 * d] == comb(d + n, n) - full


@pytest.mark.parametrize("shape,n,cutoff", [("simplex", 2, 8), ("cube", 2, 8),
                                            ("simplex", 3, 4), ("cube", 3, 4)])
def test_face_ring_matches_brute_force_kernel(shape, n, cutoff):
    nfacets = n + 1 if shape == "simplex" else 2 * n
    for normals in (gen.coordinate_normals(shape, n),
                    gen.generic_normals(random.Random(n), nfacets, n + 1)):
        poly = gen.polytope(shape, n, normals)
        want = refs.face_ring_series(gen.vertex_facets(poly), nfacets, cutoff)
        assert _brute_kernel_dims(gen.skeleton_doc(poly), cutoff) == want


def test_stiefel_minimal_series_matches_brute_force():
    assert _brute_kernel_dims(gen.stiefel_doc(), 8) == refs.minimal_equivariant(3, 3, 8)


def test_gysin_reference_is_rank_nullity():
    # identity Euler maps: a real cohomology sphere
    assert refs.gysin_betti([1, 1, 1], [[[1]], [[1]]]) == [1, 0, 0, 0, 0, 1]
    # zero map: kernel and cokernel are everything
    assert refs.gysin_betti([1, 2], [[[0], [0]]]) == [1, 1, 2, 2]


# --- references against the program on small cases ---------------------------


@pytest.mark.parametrize("fam_doc", [
    (gen.family("fiber_join", n=2, g=1), gen.fiber_join_doc(2, 1)),
    (gen.family("fiber_join", n=1, g=0), gen.fiber_join_doc(1, 0)),
    (gen.family("hirzebruch"), gen.hirzebruch_doc(3, "5/3")),
    (gen.family("stiefel"), gen.stiefel_doc()),
])
def test_check_reference_matches_program(fam_doc):
    fam, doc = fam_doc
    for cutoff in (6, 12):
        report = series.run_checks(gkmcalc.graph_from_json(doc), cutoff).to_json()
        assert run._norm(refs.strip_check_details(report)) == run._norm(
            gen.expected_checks(fam, cutoff))


def test_product_reference_matches_program():
    graph = gkmcalc.graph_from_json(gen.simplex_doc(2))
    b2 = gkmcalc.equivariant_basis(graph, 2)
    b4 = gkmcalc.equivariant_basis(graph, 4)
    dims = {v["id"]: 2 for v in gen.simplex_doc(2)["vertices"]}
    for a in b2:
        for b in b4[:3]:
            got = gkmcalc.class_product(graph, a, b).to_json()
            assert run._norm(got) == run._norm(
                refs.class_product(a.to_json(), b.to_json(), dims))


def test_frozen_digests_of_small_bases():
    frozen = json.loads((BENCH / "frozen.json").read_text())
    graph = gkmcalc.graph_from_json(gen.simplex_doc(4))
    for degree in (4, 6):
        basis = [c.to_json() for c in gkmcalc.equivariant_basis(graph, degree)]
        assert gen.digest(basis) == frozen[f"simplex(4)@{degree}"]


def test_skeleton_reference_matches_program():
    from gkmcalc.toric import MomentPolytope, polytope_skeleton

    poly = gen.polytope("cube", 2, gen.generic_normals(random.Random(1), 4, 3))
    got = polytope_skeleton(MomentPolytope.from_json(gen.polytope_doc(poly))).to_json()
    assert run._norm(got) == run._norm(gen.expected_skeleton(poly))


# --- worker, tracer and checker ------------------------------------------------


def _small_jobs():
    jobs = gen.cli_stream(3)[:60]
    s2 = gen.polytope("simplex", 2, gen.coordinate_normals("simplex", 2))
    jobs.append(gen._checks_job("simplex(2)@10", gen.skeleton_doc(s2),
                                gen.family("skeleton", poly=s2), 10))
    return jobs


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    jobs = _small_jobs()
    plain = run.run_pass(jobs, 0)
    traced = run.run_pass(jobs, 1, tmp_path / "spans.jsonl")
    assert [r["out"] for r in plain["replies"]] == [r["out"] for r in traced["replies"]]
    assert run.check_pass(jobs, plain["replies"], {}) == []
    totals = traced["bye"]["trace"]
    assert totals["absent"] == []
    values = run.layer_values(totals)
    assert values["gkmcore.dims_cache_hits"] == 0
    assert values["trace.unattributed_s"] <= 0.1 * values["trace.wall_s"]
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert {json.loads(x)["name"] for x in lines} >= {"job", "cli.main", "series.checks"}


def test_checker_flags_a_wrong_output():
    jobs = _small_jobs()
    replies = run.run_pass(jobs, 0)["replies"]
    replies[-1]["out"]["equivariant"]["coeffs"][2] += 1
    cli = next(i for i, j in enumerate(jobs) if j["arg"][0] == "cohomology")
    replies[cli]["out"]["exit"] = 1
    assert run.check_pass(jobs, replies, {}) == [jobs[cli]["name"], "simplex(2)@10"]


def test_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", (
        ("gone.module", "gkmcalc.no_such_module", "f", None),
        ("gone.function", "gkmcalc.symalg", "no_such_function", None),
    ))
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == ["gone.module", "gone.function"]
    assert tracer.installed == []


def test_latency_is_normalised_by_the_samples_around_each_job():
    replies = [{"t": 1.0, "cal": 0.002}, {"t": 1.0, "cal": None}, {"t": 1.0, "cal": 0.006}]
    ref = run.CAL_REF_S
    assert run.normalised(replies, 0.004) == pytest.approx(
        [ref / 0.004, ref / 0.004, ref / 0.005])
