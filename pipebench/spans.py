"""Span tracer for the traced benchmark run.

The library is not modified: :meth:`Tracer.install` replaces each layer's
function, at every gkmcalc module that holds it (the defining module and
every ``from ... import`` site), with a wrapper that records a span.
A hook whose target no longer exists is reported as absent rather than
failing the run.

A span has a name, start, end, parent span and job id; spans stay in
memory and are written out by :meth:`Tracer.dump` when the worker exits.
Self time is a span's duration minus the time its children took,
including their wrappers; the tracer's own bookkeeping (the wrapper time
outside the wrapped call) is summed separately as overhead, so the self
times, the job spans' unattributed remainder and the overhead add up to
the traced job time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _nnz(rows):
    """Nonzeros of dense list rows; any other row type counts its length."""
    return sum(len(r) - r.count(0) if isinstance(r, list) else len(r) for r in rows)


def _guarded(call, *args):
    """Run a counter; a target whose signature changed stays uncounted
    instead of failing the traced job."""
    try:
        return call(*args)
    except (TypeError, AttributeError, IndexError, KeyError, ValueError):
        return None


class _Counter:
    """Counts taken around one call of a hooked target."""

    def __init__(self, fn):
        self.info = getattr(fn, "cache_info", None)

    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, state, args, kwargs, result):
        return {}


class _Cache(_Counter):
    """Hit or miss of an ``lru_cache``-wrapped target, from ``cache_info``."""

    def before(self, tracer, args, kwargs):
        return self.info().hits if self.info else None

    def after(self, tracer, state, args, kwargs, result):
        if state is None:
            return {}
        return {"hit": int(self.info().hits > state)}


class _Assemble(_Counter):
    """``_constraint_rows(graph, total_degree, blocks, total)``."""

    def before(self, tracer, args, kwargs):
        tracer.degree = args[1] if len(args) > 1 else None
        return None

    def after(self, tracer, state, args, kwargs, result):
        return {"degree": tracer.degree, "rows": len(result),
                "cols": args[3] if len(args) > 3 else None, "nnz": _nnz(result)}


class _Elim(_Counter):
    """``reduce_int_rows(rows, ncols, rank_only)``; consumes ``rows``, so
    the shape is taken before the call."""

    @staticmethod
    def name(args, kwargs):
        rank_only = kwargs.get("rank_only", args[2] if len(args) > 2 else False)
        return "exactlin.elim_rank" if rank_only else "exactlin.elim_rref"

    def before(self, tracer, args, kwargs):
        rows = args[0]
        return {"degree": tracer.degree, "rows": len(rows), "cols": args[1],
                "nnz": _nnz(rows)}

    def after(self, tracer, state, args, kwargs, result):
        state["rank"] = len(result[1])
        return state


# (span name, "module" or "module:Class", attribute, counter)
HOOKS = (
    ("symalg.restriction", "gkmcalc.symalg", "restriction_matrix", _Cache),
    ("gkmcore.assemble", "gkmcalc.gkmcore", "_constraint_rows", _Assemble),
    ("exactlin.scale", "gkmcalc.exactlin", "_scaled_int_rows", None),
    ("exactlin.elim", "gkmcalc.exactlin", "reduce_int_rows", _Elim),
    ("exactlin.kernel", "gkmcalc.exactlin", "kernel_basis", None),
    ("exactlin.mul_vector", "gkmcalc.exactlin:MatrixQ", "mul_vector", None),
    ("gkmcore.parse", "gkmcalc.gkmcore", "graph_from_json", None),
    ("gkmcore.validate", "gkmcalc.gkmcore", "validate_graph", None),
    ("gkmcore.layout", "gkmcalc.gkmcore", "_layout", None),
    ("gkmcore.dims", "gkmcalc.gkmcore", "equivariant_dims", _Cache),
    ("gkmcore.basis", "gkmcalc.gkmcore", "equivariant_basis", None),
    ("gkmcore.classes", "gkmcalc.gkmcore", "_classes_from_rows", None),
    ("gkmcore.product", "gkmcalc.gkmcore", "class_product", None),
    ("series.checks", "gkmcalc.series", "run_checks", None),
    ("series.basic", "gkmcalc.series", "basic_from_equivariant", None),
    ("series.gysin", "gkmcalc.series", "gysin_betti", None),
    ("series.morse_bott", "gkmcalc.series", "morse_bott_assemble", None),
    ("toric.skeleton", "gkmcalc.toric", "polytope_skeleton", None),
    ("cli.main", "gkmcalc.cli", "main", None),
)


class Span:
    __slots__ = ("name", "index", "parent", "job", "start", "end", "child", "attrs")

    def __init__(self, name, index, parent, job):
        self.name, self.index, self.parent, self.job = name, index, parent, job
        self.start = self.end = self.child = 0.0
        self.attrs = None

    @property
    def self_time(self):
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = None
        self.first = 0
        self.degree = None
        self.overhead = 0.0
        self.installed: list[str] = []
        self.absent: list[str] = []

    # --- hooks ------------------------------------------------------------

    def install(self):
        for name, owner, attr, counter in HOOKS:
            mod_name, _, cls_name = owner.partition(":")
            holder = sys.modules.get(mod_name)
            if holder is not None and cls_name:
                holder = getattr(holder, cls_name, None)
            target = getattr(holder, attr, None) if holder is not None else None
            if target is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, target, counter(target) if counter else None)
            if cls_name:
                setattr(holder, attr, wrapper)
            else:
                for mod_key, mod in list(sys.modules.items()):
                    if mod_key == "gkmcalc" or mod_key.startswith("gkmcalc."):
                        for key, value in list(vars(mod).items()):
                            if value is target:
                                setattr(mod, key, wrapper)
            self.installed.append(name)

    def _wrap(self, name, fn, counter):
        tracer = self
        pick = getattr(counter, "name", None)

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            a = perf_counter()
            parent = tracer.stack[-1]
            label = _guarded(pick, args, kwargs) if pick else name
            span = Span(label or name, len(tracer.spans), parent.index, tracer.job)
            tracer.spans.append(span)
            state = _guarded(counter.before, tracer, args, kwargs) if counter else None
            tracer.stack.append(span)
            b = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                c = perf_counter()
                tracer.stack.pop()
            if counter:
                span.attrs = _guarded(counter.after, tracer, state, args, kwargs, result)
            span.start, span.end = b, c
            d = perf_counter()
            parent.child += d - a
            tracer.overhead += (d - a) - (c - b)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- jobs -------------------------------------------------------------

    def begin(self, job):
        self.job = job
        self.degree = None
        self.first = len(self.spans)
        root = Span("job", len(self.spans), None, job)
        self.spans.append(root)
        self.stack.append(root)
        root.start = perf_counter()

    def end(self):
        root = self.stack.pop()
        root.end = perf_counter()
        self.job = None

    # --- output -----------------------------------------------------------

    def job_summary(self):
        """Self seconds per span name and the elimination shapes of the
        last job."""
        layers: dict[str, float] = {}
        shapes = []
        for s in self.spans[self.first:]:
            layers[s.name] = layers.get(s.name, 0.0) + s.self_time
            if s.name.startswith("exactlin.elim_") and s.attrs:
                shapes.append(dict(s.attrs, kind=s.name.rsplit("_", 1)[1]))
        return {"layers": layers, "shapes": shapes}

    def totals(self):
        """Per-span-name self time, call count and summed counters."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"self_s": 0.0, "calls": 0, "dur_s": 0.0})
            agg["self_s"] += s.self_time
            agg["dur_s"] += s.end - s.start
            agg["calls"] += 1
            for key, value in (s.attrs or {}).items():
                if key != "degree" and isinstance(value, int):
                    agg[key] = agg.get(key, 0) + value
            if s.attrs and s.attrs.get("rows") and s.attrs.get("cols"):
                agg["cells"] = agg.get("cells", 0) + s.attrs["rows"] * s.attrs["cols"]
        return {"spans": out, "overhead_s": self.overhead, "absent": self.absent}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "index": s.index, "parent": s.parent,
                    "job": s.job, "start": s.start, "end": s.end,
                    "self": s.self_time, "attrs": s.attrs,
                }) + "\n")
