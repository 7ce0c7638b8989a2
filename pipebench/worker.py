"""Benchmark worker: one single-threaded process serving one caller.

Protocol, one JSON object per line on stdin/stdout:

1. the caller sends ``{"jobs": [...], "trace": 0|1, "spans": path|null}``;
   the worker imports gkmcalc from ``<checkout>/src``, builds every input
   (parses graph documents) and answers ``{"ready": ...}`` - the caller
   times set-up up to this line;
2. ``{"job": i}`` runs job ``i`` and answers ``{"i", "t", "cal", "out"}``,
   where ``t`` is the wall time of the call into gkmcalc (checking the
   output happens outside it) and ``cal`` is a :func:`calibrate` sample
   taken just before the call, or null if the last one is less than
   ``CAL_EVERY_S`` old;
3. ``{"quit": true}`` answers with the peak RSS, a last ``cal`` sample
   and, when traced, the span totals, writes the spans to ``spans`` and
   exits.

Run as a script: ``python3 pipebench/worker.py`` (the caller does this).
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


CAL_EVERY_S = 0.1


def calibrate():
    """Seconds this process takes for a fixed piece of pure-Python work.

    Exact fractions and integer arithmetic, like the program's own.  A
    shared host can change speed by up to 2x for seconds to minutes at a
    time as other tenants load it; samples taken next to each job let the
    caller tell that apart from a change in the program.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    return perf_counter() - t0


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _graph_inputs(jobs, graph_from_json):
    """Parse each distinct graph document once."""
    graphs = {}
    for job in jobs:
        if job["kind"] != "cli":
            key = json.dumps(job["doc"], sort_keys=True)
            if key not in graphs:
                graphs[key] = graph_from_json(job["doc"])
            job["graph"] = graphs[key]
        elif job["doc"] is not None:
            job["stdin"] = json.dumps(job["doc"])
        else:
            job["stdin"] = ""


class Runner:
    def __init__(self, gkmcalc):
        self.gkmcalc = gkmcalc
        self.kept = []

    def call(self, job):
        g = self.gkmcalc
        kind = job["kind"]
        if kind == "checks":
            return g.run_checks(job["graph"], job["arg"])
        if kind == "basis":
            return g.equivariant_basis(job["graph"], job["arg"])
        if kind == "product":
            i, j = job["arg"]
            return g.class_product(job["graph"], self.kept[0][i], self.kept[1][j])
        saved = sys.stdin, sys.stdout, sys.stderr
        out, err = io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(job["stdin"]), out, err
        try:
            code = g.cli.main(list(job["arg"]))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()[:300]}

    def encode(self, job, result):
        """JSON-able output the caller checks against its reference."""
        kind = job["kind"]
        if kind == "checks":
            return result.to_json()
        if kind == "basis":
            classes = [c.to_json() for c in result]
            out = {"count": len(classes), "sha256": digest(classes)}
            if job.get("keep"):
                self.kept.append(result)
                out["classes"] = classes
            return out
        if kind == "product":
            return result.to_json()
        return result


def main():
    chan_in, chan_out = sys.stdin, sys.stdout

    def send(obj):
        chan_out.write(json.dumps(obj) + "\n")
        chan_out.flush()

    setup = json.loads(chan_in.readline())
    import gkmcalc
    import gkmcalc.cli  # noqa: F401  (the cli module is not imported by the package)

    jobs = setup["jobs"]
    _graph_inputs(jobs, gkmcalc.graph_from_json)
    tracer = None
    if setup["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    runner = Runner(gkmcalc)
    send({"ready": True, "python": platform.python_version(),
          "backend": getattr(gkmcalc, "ACTIVE_BACKEND", None)})

    last_cal = None
    for line in chan_in:
        msg = json.loads(line)
        if "quit" in msg:
            break
        i = msg["job"]
        job = jobs[i]
        cal = None
        if last_cal is None or perf_counter() - last_cal >= CAL_EVERY_S:
            cal = calibrate()
            last_cal = perf_counter()
        if tracer:
            tracer.begin(i)
        t0 = perf_counter()
        try:
            result = runner.call(job)
            out = None
        except Exception as exc:  # a failing job is a result, not a crash
            out = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            dt = perf_counter() - t0
            if tracer:
                tracer.end()
        if out is None:
            out = runner.encode(job, result)
        reply = {"i": i, "t": dt, "cal": cal, "out": out}
        if tracer:
            reply["trace"] = tracer.job_summary()
        send(reply)

    bye = {"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "cal": calibrate()}
    if tracer:
        bye["trace"] = tracer.totals()
        if setup.get("spans"):
            tracer.dump(setup["spans"])
    send(bye)


if __name__ == "__main__":
    main()
