#!/usr/bin/env python3
"""Pipeline benchmark for gkmcalc.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gkmcalc is imported from ``src/``.
Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sparse-series``  - ``run_checks`` on coordinate-isotropy graphs
* ``generic-series`` - ``run_checks`` on general-position toric skeletons
* ``basis-ring``     - RREF kernel bases and ring products
* ``cli-stream``     - ~250 small documents through ``gkmcalc.cli.main``

Load is a closed loop: one caller, one single-threaded worker process
(``worker.py``), the next job sent when the previous one returns.  A
*pass* runs the workload's fixed job list once in a fresh worker, so no
cache carries over; passes repeat while another one fits in ``--seconds``
(at least one runs).  Set-up is additionally sampled in set-up-only
workers.  Every job's output is checked exactly against :mod:`refs`
(or, for RREF bases, digests frozen in ``frozen.json``).

``--trace 0`` reports the end-to-end metrics.  A shared cloud host (a
2-vCPU Xeon VM, measured) runs the same code up to 2x slower for seconds
to minutes at a time as other tenants load it, so job latencies are
normalised to a reference host speed: the worker times a fixed pure-Python loop
(``worker.calibrate``) at least every ``CAL_EVERY_S`` between jobs, and
a job's latency is its wall time times ``CAL_REF_S`` over the mean of the
samples just before and just after it.  A job's latency is then the
median of its normalised latencies over the passes.  The raw wall-time
metrics go to ``raw_metrics`` in ``pipebench/out/result-*.json``.

* ``wall_s``      - normalised seconds inside gkmcalc calls for the job
  list: the sum of the job latencies
* ``setup_s``     - worker spawn until ready (interpreter start, imports,
  input parsing), normalised by the worker's first calibration sample,
  taken just after it; median of all set-up samples
* ``job_p50_ms`` / ``job_p90_ms`` - nearest-rank percentiles of the job
  latencies (``jobs_per_pass`` samples, on stderr; only ``cli-stream``
  has ten or more beyond p90)
* ``peak_rss_mb`` - the worker's ``ru_maxrss``, median over passes

``--trace 1`` wraps each layer (``spans.py``) and reports per-layer
metrics instead (``LAYER_METRICS``; a ``_s`` metric is span self time,
median over passes), prints every job's per-degree system shapes on
stderr, and writes the first pass's spans to ``pipebench/out/``.  On
``sparse-series`` it first runs ``simplex(5)@16`` (the ROADMAP baseline,
too long to repeat in the timed passes) traced in a worker of its own and
prints its phase table.
Which per-layer metrics should move which end-to-end metric:

* restriction, assembly (rows, nnz) and scaling: ``wall_s`` and
  ``peak_rss_mb`` on ``sparse-series``
* ``exactlin.elim_rank_s``, ``elim_calls``, ``elim_cells``: ``wall_s`` on
  ``generic-series``
* ``elim_rref_s``, ``kernel_s``, ``classes_s``, ``mul_vector_s``,
  ``product_self_s``, ``basis_self_s``: ``wall_s`` on ``basis-ring``
* ``cli.self_s``, parse, validate, layout, ``series.self_s``,
  ``toric.skeleton_s``: ``job_p50_ms`` and ``job_p90_ms`` on ``cli-stream``
* ``trace.*`` describe the trace itself; ``gkmcore.dims_cache_hits`` must
  stay 0 (no job repeats a graph and cutoff)

Failed checks are reported through ``failed`` and ``correct`` in the
result line, whose ``attempted`` counts every job of every pass.  The
last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import refs  # noqa: E402

# calibrate() seconds at the host speed normalised times refer to: about
# what the loop takes on a 2-vCPU Xeon VM when no other tenant slows it
CAL_REF_S = 0.006
# set-up-only workers sampled before and again after the passes
SETUP_ONLY_WORKERS = 3
WORKER_TIMEOUT_S = 60


class WorkerError(RuntimeError):
    pass


class Worker:
    """One closed-loop worker process; the constructor returns once ready."""

    def __init__(self, jobs, trace, spans_path=None):
        payload = {
            "jobs": [{k: j.get(k) for k in ("kind", "doc", "arg", "keep")} for j in jobs],
            "trace": trace,
            "spans": str(spans_path) if spans_path else None,
        }
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True,
        )
        try:
            self.send(payload)
            self.ready = self.recv()
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    def send(self, obj):
        try:
            self.proc.stdin.write(json.dumps(obj) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError("worker exited early") from None

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def quit(self):
        self.send({"quit": True})
        bye = self.recv()
        self.close()
        return bye

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=WORKER_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_pass(jobs, trace, spans_path=None):
    worker = Worker(jobs, trace, spans_path)
    try:
        replies = []
        for i in range(len(jobs)):
            worker.send({"job": i})
            replies.append(worker.recv())
        bye = worker.quit()
    finally:
        worker.close()
    return {"setup_s": worker.setup_s, "ready": worker.ready, "replies": replies,
            "bye": bye, "norm_s": normalised(replies, bye["cal"])}


def normalised(replies, final_cal):
    """Each job's latency at the reference host speed: ``t`` times
    ``CAL_REF_S`` over the mean of the worker's calibration samples taken
    last before and first after the job."""
    cals = [r["cal"] for r in replies] + [final_cal]
    before, last = [], None
    for c in cals[:-1]:
        last = c if c is not None else last
        before.append(last)
    after, nxt = [], None
    for c in reversed(cals[1:]):
        nxt = c if c is not None else nxt
        after.append(nxt)
    after.reverse()
    return [r["t"] * CAL_REF_S * 2 / (b + a) for r, b, a in zip(replies, before, after)]


# --- checking ------------------------------------------------------------------


def _norm(obj):
    return json.loads(json.dumps(obj))


def check_pass(jobs, replies, frozen):
    """Names of the jobs whose output differs from the reference."""
    bad = []
    kept = []
    for job, reply in zip(jobs, replies):
        try:
            ok = "error" not in reply["out"] and _matches(job, reply["out"], frozen, kept)
        except (KeyError, IndexError, TypeError, ValueError):  # malformed output
            ok = False
        if not ok:
            bad.append(job["name"])
    return bad


def _matches(job, out, frozen, kept):
    exp = job["expect"]
    if job["kind"] == "checks":
        return _norm(exp) == _norm(refs.strip_check_details(out))
    if job["kind"] == "basis":
        if job.get("keep"):
            kept.append(out["classes"])
        return out["count"] == exp["count"] and out["sha256"] == frozen.get(exp["frozen"])
    if job["kind"] == "product":
        i, j = job["arg"]
        a, b = (kept[k] for k in exp["factors"])
        dims = {v["id"]: len(v["isotropy"]) for v in job["doc"]["vertices"]}
        return _norm(out) == _norm(refs.class_product(a[i], b[j], dims))
    if out["exit"] != exp["exit"] or "Traceback" in out["stderr"]:
        return False
    if exp["out"] is None:
        return out["stdout"] == "" and out["stderr"].startswith("error:")
    doc = json.loads(out["stdout"])
    cmd = job["arg"][0]
    if cmd == "validate":
        doc = {"valid": doc["valid"],
               "failed": sorted(c["name"] for c in doc["checks"] if not c["passed"])}
    elif cmd == "check":
        doc = refs.strip_check_details(doc)
    return _norm(doc) == _norm(exp["out"])


# --- metrics ------------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile: always the latency of an actual job."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def job_latencies(passes, raw=False):
    """Each job's median latency over the passes, in seconds, normalised
    to the reference host speed unless ``raw``."""
    per_pass = [[r["t"] for r in p["replies"]] if raw else p["norm_s"] for p in passes]
    return [statistics.median(ts[i] for ts in per_pass) for i in range(len(per_pass[0]))]


def end_to_end(passes, setup_samples, raw=False):
    latencies = job_latencies(passes, raw)
    ms = [t * 1000 for t in latencies]
    return {
        "wall_s": (sum(latencies), "s"),
        "setup_s": (statistics.median(t if raw else t * CAL_REF_S / cal
                                      for t, cal in setup_samples), "s"),
        "job_p50_ms": (percentile(ms, 50), "ms"),
        "job_p90_ms": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (statistics.median(p["bye"]["rss_kb"] / 1024 for p in passes), "MB"),
    }


# per-layer metric -> (unit, span name, field); "self_s" is the span's
# self time summed over the pass
LAYER_METRICS = {
    "symalg.restriction_s": ("s", "symalg.restriction", "self_s"),
    "symalg.restriction_calls": ("count", "symalg.restriction", "calls"),
    "symalg.restriction_hit_ratio": ("ratio", "symalg.restriction", "hit_ratio"),
    "gkmcore.assemble_self_s": ("s", "gkmcore.assemble", "self_s"),
    "gkmcore.constraint_rows": ("count", "gkmcore.assemble", "rows"),
    "gkmcore.constraint_nnz": ("count", "gkmcore.assemble", "nnz"),
    "exactlin.scale_s": ("s", "exactlin.scale", "self_s"),
    "exactlin.elim_rank_s": ("s", "exactlin.elim_rank", "self_s"),
    "exactlin.elim_rref_s": ("s", "exactlin.elim_rref", "self_s"),
    "exactlin.elim_calls": ("count", "exactlin.elim_*", "calls"),
    "exactlin.elim_cells": ("count", "exactlin.elim_*", "cells"),
    "exactlin.kernel_s": ("s", "exactlin.kernel", "self_s"),
    "exactlin.mul_vector_s": ("s", "exactlin.mul_vector", "self_s"),
    "gkmcore.classes_s": ("s", "gkmcore.classes", "self_s"),
    "gkmcore.product_self_s": ("s", "gkmcore.product", "self_s"),
    "gkmcore.basis_self_s": ("s", "gkmcore.basis", "self_s"),
    "gkmcore.dims_self_s": ("s", "gkmcore.dims", "self_s"),
    "gkmcore.dims_cache_hits": ("count", "gkmcore.dims", "hit"),
    "gkmcore.parse_s": ("s", "gkmcore.parse", "self_s"),
    "gkmcore.validate_s": ("s", "gkmcore.validate", "self_s"),
    "gkmcore.validate_calls": ("count", "gkmcore.validate", "calls"),
    "gkmcore.layout_s": ("s", "gkmcore.layout", "self_s"),
    "series.self_s": ("s", "series.*", "self_s"),
    "toric.skeleton_s": ("s", "toric.skeleton", "self_s"),
    "cli.self_s": ("s", "cli.main", "self_s"),
    "trace.wall_s": ("s", "job", "dur_s"),
    "trace.unattributed_s": ("s", "job", "self_s"),
    "trace.overhead_s": ("s", None, "overhead_s"),
}


def layer_values(totals):
    """Per-layer metric values of one traced pass."""
    spans = totals["spans"]

    def field(pattern, key):
        names = [n for n in spans if n == pattern or
                 (pattern.endswith("*") and n.startswith(pattern[:-1]))]
        if key == "hit_ratio":
            calls = sum(spans[n]["calls"] for n in names)
            return sum(spans[n].get("hit", 0) for n in names) / calls if calls else 0.0
        return sum(spans[n].get(key, 0) for n in names)

    out = {}
    for metric, (_unit, span, key) in LAYER_METRICS.items():
        out[metric] = totals["overhead_s"] if span is None else field(span, key)
    return out


def per_layer(passes):
    values = [layer_values(p["bye"]["trace"]) for p in passes]
    return {m: (statistics.median(v[m] for v in values), LAYER_METRICS[m][0])
            for m in LAYER_METRICS}


PHASES = {
    "assembly": ("gkmcore.assemble", "symalg.restriction"),
    "scaling": ("exactlin.scale",),
    "elimination": ("exactlin.elim_rank", "exactlin.elim_rref"),
}


def report_phases(job, reply, log):
    """Phase table of one traced job."""
    layers = reply["trace"]["layers"]
    log(f"phase table {job['name']} (traced): total {reply['t']:.3f} s")
    for phase, names in PHASES.items():
        log(f"  {phase:<12} {sum(layers.get(n, 0.0) for n in names):8.3f} s")
    rest = reply["t"] - sum(layers.get(n, 0.0) for ns in PHASES.values() for n in ns)
    log(f"  {'other':<12} {rest:8.3f} s")


def report_trace(jobs, passes, log):
    """Per-degree shapes and acceptance shares of the first traced pass."""
    first = passes[0]
    for job, reply in zip(jobs, first["replies"]):
        shapes = " ".join(
            f"{s.get('degree')}:{s.get('rows')}x{s.get('cols')}/{s.get('nnz')}->{s.get('rank')}"
            + ("" if s["kind"] == "rank" else "(rref)")
            for s in reply["trace"]["shapes"]
        )
        log(f"shapes {job['name']}: {shapes or '-'}")
    values = layer_values(first["bye"]["trace"])
    wall = values["trace.wall_s"]
    elim = values["exactlin.elim_rank_s"] + values["exactlin.elim_rref_s"]
    front = (values["symalg.restriction_s"] + values["gkmcore.assemble_self_s"]
             + values["exactlin.scale_s"])
    log(f"shares of traced wall {wall:.3f} s: elimination {elim / wall:.3f}, "
        f"restriction+assembly+scaling {front / wall:.3f}, "
        f"unattributed {values['trace.unattributed_s'] / wall:.4f}, "
        f"overhead {values['trace.overhead_s'] / wall:.4f}")
    absent = first["bye"]["trace"]["absent"]
    if absent:
        log(f"absent layers (hook target missing, reported as 0): {', '.join(absent)}")


# --- environment -----------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (ROOT / "src" / "gkmcalc" / "__init__.py").is_file():
        log(f"error: no gkmcalc sources under {ROOT / 'src'}")
        return 2
    jobs = gen.build(args.workload, args.seed)
    frozen = json.loads((HERE / "frozen.json").read_text())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    def sample_setup():
        t0 = perf_counter()
        for _ in range(SETUP_ONLY_WORKERS):
            w = Worker(jobs, 0)
            bye = w.quit()
            setup_samples.append((w.setup_s, bye["cal"]))
        return perf_counter() - t0

    phase = None
    if args.trace and args.workload == "sparse-series":
        phase = [gen.phase_job(args.seed)]

    start = perf_counter()
    setup_samples = []
    passes = []
    try:
        if phase:
            phase_pass = run_pass(phase, 1)
            report_phases(phase[0], phase_pass["replies"][0], log)
            start = perf_counter()
        reserve = sample_setup()
        while True:
            t0 = perf_counter()
            spans_path = OUT / f"spans-{tag}.jsonl" if args.trace and not passes else None
            passes.append(run_pass(jobs, args.trace, spans_path))
            setup_samples.append((passes[-1]["setup_s"], passes[-1]["replies"][0]["cal"]))
            took = perf_counter() - t0
            if perf_counter() - start + took + reserve > args.seconds:
                break
        sample_setup()
    except WorkerError as exc:
        log(f"error: {exc}")
        return 2

    failures = [check_pass(jobs, p["replies"], frozen) for p in passes]
    attempted = len(jobs) * len(passes)
    if phase:
        failures.append(check_pass(phase, phase_pass["replies"], frozen))
        attempted += 1
    failed = sum(len(f) for f in failures)
    for names in failures:
        for name in names[:5]:
            log(f"mismatch: {name}")
    if args.trace:
        report_trace(jobs, passes, log)
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, setup_samples)
    env = {
        "python": platform.python_version(),
        "backend": passes[0]["ready"]["backend"],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    record = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "inputs_sha256": gen.inputs_digest(jobs), "passes": len(passes),
        "jobs_per_pass": len(jobs), "setup_samples": len(setup_samples),
        "latency_samples": len(jobs) * len(passes), "failures": failures,
        "job_latencies_s": dict(zip((j["name"] for j in jobs), job_latencies(passes))),
        "raw_metrics": None if args.trace else end_to_end(passes, setup_samples, raw=True),
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    log("run " + json.dumps({k: record[k] for k in (
        "env", "inputs_sha256", "passes", "jobs_per_pass", "setup_samples",
        "latency_samples", "raw_metrics")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
