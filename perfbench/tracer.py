"""Outside-in span tracer for the gr1kit layers.

``Tracer.install`` replaces the public functions of each gr1kit module
(and the JSON methods of ``gr1.Strategy``) with wrappers that record one
span per call: name, start, end, parent span and job id.  Nothing under
``src/`` changes; calls that reach a function through its module
attribute or through a module global are traced, calls through a name
imported with ``from ... import`` are not.  ``uninstall`` puts the
originals back, so traced and untraced rounds can alternate in one
process.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict

LAYERS = ("speclang", "workdelivery", "arena", "gr1", "sim", "check", "cli")

# Helpers called once per expression node, trace row or simulation step.
# A span per call would time the tracer rather than the layer, so their
# time stays in the calling span.
LEAF_HELPERS = {
    "speclang": {"eval_expr", "expr_refs", "format_expr",
                 "v", "vp", "t", "tp", "const", "conj", "disj"},
    "workdelivery": {"human_mode", "dropoff_attempt", "backlog_successors"},
    "sim": {"adversary_choice"},
}

# Public methods traced besides module-level functions.
METHODS = {"gr1": {"Strategy": ("save", "load")}}

# Per-layer timings: metric name -> span name (inclusive span time).
SPAN_TIMES = {
    "arena.build_s": "arena.build_arena",
    "gr1.solve_s": "gr1.solve",
    "gr1.extract_s": "gr1.extract_strategy",
    "gr1.save_s": "gr1.Strategy.save",
    "gr1.load_s": "gr1.Strategy.load",
    "gr1.oracle_s": "gr1.brute_force_oracle",
    "speclang.parse_s": "speclang.parse_spec",
    "sim.run_s": "sim.run",
    "sim.csv_write_s": "sim.write_csv",
    "sim.csv_read_s": "sim.read_csv",
    "check.safety_s": "check.check_safety",
    "check.lasso_s": "check.lasso_check",
    "check.closure_s": "check.verify_strategy_closure",
    "check.recurrence_s": "check.check_recurrence",
}


def _count_arena(tracer, args, arena):
    counts = tracer.counts
    counts["arena.states"] += arena.n_states
    counts["arena.pairs"] += arena.n_pairs
    counts["arena.edges"] += len(arena.sys_next)
    counts["arena.stage1_cells"] += arena.n_states * arena.n_env
    counts["arena.response_cells"] += arena.n_pairs * arena.n_sys


def _count_solve(tracer, args, result):
    counts = tracer.counts
    finite = result.y_rank[result.y_rank != tracer.inf_rank]
    if finite.size:
        counts["gr1.y_waves"] = max(counts["gr1.y_waves"], int(finite.max()))
    for witness in result.x_witness or ():
        counts["gr1.x_layers"] += sum(len(layer) for layer in witness.values())


def _count_extract(tracer, args, strategy):
    tracer.counts["gr1.controller_nodes"] += strategy.n_nodes


def _count_run(tracer, args, trace):
    tracer.counts["sim.steps"] += trace.n_steps()


def _count_safety(tracer, args, verdict):
    tracer.counts["check.transitions_checked"] += sum(
        1 for row in args[0].rows[1:] if not row.human_away)


OBSERVERS = {
    "arena.build_arena": _count_arena,
    "gr1.solve": _count_solve,
    "gr1.extract_strategy": _count_extract,
    "sim.run": _count_run,
    "check.check_safety": _count_safety,
}


class Tracer:
    """Spans of traced calls, kept in memory until written out."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.inf_rank = self.modules["gr1"].INF_RANK
        self.spans = []            # (name, start, end, parent, job)
        self.counts = defaultdict(int)
        self.job = None
        self.active = False
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1,
                              self.job)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self):
        for layer, mod in self.modules.items():
            skip = LEAF_HELPERS.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_") and attr not in skip
                        and obj.__module__ == mod.__name__):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    self._saved.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        setattr(cls, meth,
                                classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def mark(self):
        """Start of a traced round: returns the index of its first span."""
        self.counts = defaultdict(int)
        return len(self.spans)


def self_times(spans):
    """Self time per layer and inclusive time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Returns (self_by_layer, inclusive_by_name, top_level_total).
    """
    child = defaultdict(float)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child[parent] += end - start
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    top = 0.0
    for idx, (name, start, end, parent, _job) in enumerate(spans):
        dur = end - start
        by_layer[name.split(".", 1)[0]] += dur - child[idx]
        by_name[name] += dur
        if parent < 0:
            top += dur
    return by_layer, by_name, top


def layer_metrics(spans, offset, counts, round_wall):
    """Per-layer metrics of one traced round (spans from index `offset`)."""
    local = []
    for name, start, end, parent, job in spans[offset:]:
        local.append((name, start, end,
                      parent - offset if parent >= 0 else -1, job))
    by_layer, by_name, top = self_times(local)
    out = {metric: by_name.get(span, 0.0)
           for metric, span in SPAN_TIMES.items()}
    for key in ("arena.states", "arena.pairs", "arena.edges",
                "arena.stage1_cells", "gr1.y_waves", "gr1.x_layers",
                "gr1.controller_nodes", "sim.steps",
                "check.transitions_checked"):
        out[key] = counts.get(key, 0)
    cells = counts.get("arena.stage1_cells", 0)
    out["arena.pair_yield"] = counts["arena.pairs"] / cells if cells else 0.0
    resp = counts.get("arena.response_cells", 0)
    out["arena.edge_yield"] = counts["arena.edges"] / resp if resp else 0.0
    run_s = out["sim.run_s"]
    out["sim.steps_per_s"] = out["sim.steps"] / run_s if run_s else 0.0
    out["cli.self_s"] = by_layer.get("cli", 0.0)
    for layer in LAYERS:
        if layer != "cli":
            out[f"self.{layer}_s"] = by_layer.get(layer, 0.0)
    out["self.bench_s"] = round_wall - top
    out["trace.spans"] = len(local)
    return out


def write_spans(path, spans, bounds, t0):
    """CSV of every span: round, id, name, start, end, parent, job.

    `bounds` holds each traced round's (first, end) span indices.  Times
    are seconds since `t0`; ids and parents are indices into `spans`."""
    with open(path, "w") as fp:
        fp.write("round,id,name,start_s,end_s,parent,job\n")
        for rnd, (lo, hi) in enumerate(bounds):
            for idx in range(lo, hi):
                name, start, end, parent, job = spans[idx]
                fp.write(f"{rnd},{idx},{name},{start - t0:.6f},"
                         f"{end - t0:.6f},{parent},{job}\n")
