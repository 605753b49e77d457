"""Outside-in tracer for the traced run.

It wraps public functions of ``tsproject`` from the benchmark's own files: no
source file of the package changes.  A function is rebound in every
``tsproject.*`` namespace that holds the same object, because the modules call
each other through their own imports (``tuple_sets`` is imported into
``ancestor_query``, ``cutoff_bound`` into ``cli``, ``generating_set`` is looked
up as a global by ``get_monoid``).  Methods are wrapped on their class.

Spans (name, start, end, parent, op id) are kept in memory in flat arrays and
written out when the run ends.  Only calls made inside an op are recorded, so
the benchmark's own output checks do not count.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path


def _size(result) -> int:
    """Size of a returned collection; vertices plus edges for a graph."""
    if hasattr(result, "__len__"):
        return len(result)
    return len(result.vertices) + len(result.directed) + len(result.bidirected)


# (module, attribute, span name, extra quantity or None).  An extra quantity
# is (name, function of the call's args and result) summed over calls.
_OUT = ("out", lambda args, result: _size(result))
TARGETS = (
    ("summary_mwdg", "closure", "summary_mwdg.closure", None),
    ("summary_mwdg", "tuple_sets", "summary_mwdg.tuple_sets", _OUT),
    ("summary_mwdg", "get_monoid", "summary_mwdg.get_monoid", _OUT),
    ("summary_mwdg", "generating_set", "summary_mwdg.generating_set", _OUT),
    ("summary_mwdg", "monoid_from_generating_set", "summary_mwdg.monoid_from_generating_set", None),
    ("summary_mwdg", "access_points", "summary_mwdg.access_points", None),
    ("summary_mwdg", "enumerate_cycle_classes", "summary_mwdg.enumerate_cycle_classes", _OUT),
    ("summary_mwdg", "build_graph_of_cycles", "summary_mwdg.build_graph_of_cycles", None),
    ("summary_mwdg", "cycle_free_paths", "summary_mwdg.cycle_free_paths", None),
    ("ancestor_query", "CommonAncestorEngine.__init__", "ancestor_query.CommonAncestorEngine", None),
    ("ancestor_query", "CommonAncestorEngine.query", "ancestor_query.query", None),
    ("ancestor_query", "CommonAncestorEngine.tuples", "ancestor_query.tuples", None),
    ("ancestor_query", "CommonAncestorEngine.monoid", "ancestor_query.monoid", None),
    ("ancestor_query", "summary_prefilter", "ancestor_query.summary_prefilter", None),
    ("diophantine", "has_nonneg_solution", "diophantine.has_nonneg_solution", None),
    ("diophantine", "case_number", "diophantine.case_number", None),
    # bits: c + 1, the size of the reachable-sums table the call computes.
    ("diophantine", "bounded_representable", "diophantine.bounded_representable",
     ("bits", lambda args, result: args[0] + 1)),
    ("ts_projection", "marginal_ts_admg", "ts_projection.marginal_ts_admg", None),
    ("ts_projection", "marginal_ts_dmag", "ts_projection.marginal_ts_dmag", None),
    ("ts_projection", "simple_marginal_ts_admg", "ts_projection.simple_marginal_ts_admg", None),
    ("ts_projection", "canonical_ts_dag", "ts_projection.canonical_ts_dag", None),
    ("ts_projection", "cutoff_bound", "ts_projection.cutoff_bound", None),
    ("finite_projection", "admg_latent_project", "finite_projection.admg_latent_project", None),
    ("finite_projection", "canonical_dag", "finite_projection.canonical_dag", None),
    ("finite_projection", "dmag_project", "finite_projection.dmag_project", None),
    ("finite_projection", "has_inducing_path", "finite_projection.has_inducing_path", None),
    ("finite_projection", "ancestors", "finite_projection.ancestors", None),
    ("graph_model", "unroll_window", "graph_model.unroll_window", _OUT),
    ("graph_model", "FiniteMixedGraph.__init__", "graph_model.FiniteMixedGraph", None),
    ("graph_model", "parse_template", "graph_model.parse_template", None),
    ("graph_model", "FiniteMixedGraph.to_json", "graph_model.to_json", None),
    # depth: the window length w, i.e. the number of time steps unrolled.
    ("oracle_testkit", "window_marginal", "oracle_testkit.window_marginal",
     ("depth", lambda args, result: args[3])),
    ("cli", "run", "cli.run", None),
)

# Per-layer metrics: (metric name, unit, span name, quantity).  Quantities:
# s = total time of the outermost spans, self_s = time minus child spans,
# calls = number of calls, anything else = an extra quantity of TARGETS.
LAYER_METRICS = (
    ("summary_mwdg.closure.s", "s", "summary_mwdg.closure", "s"),
    ("summary_mwdg.closure.calls", "count", "summary_mwdg.closure", "calls"),
    ("summary_mwdg.tuple_sets.self_s", "s", "summary_mwdg.tuple_sets", "self_s"),
    ("summary_mwdg.tuple_sets.calls", "count", "summary_mwdg.tuple_sets", "calls"),
    ("summary_mwdg.tuple_sets.out", "count", "summary_mwdg.tuple_sets", "out"),
    ("summary_mwdg.get_monoid.s", "s", "summary_mwdg.get_monoid", "s"),
    ("summary_mwdg.get_monoid.calls", "count", "summary_mwdg.get_monoid", "calls"),
    ("summary_mwdg.get_monoid.out", "count", "summary_mwdg.get_monoid", "out"),
    ("summary_mwdg.generating_set.s", "s", "summary_mwdg.generating_set", "s"),
    ("summary_mwdg.generating_set.out", "count", "summary_mwdg.generating_set", "out"),
    ("summary_mwdg.monoid_from_generating_set.self_s", "s",
     "summary_mwdg.monoid_from_generating_set", "self_s"),
    ("summary_mwdg.access_points.s", "s", "summary_mwdg.access_points", "s"),
    ("summary_mwdg.enumerate_cycle_classes.s", "s", "summary_mwdg.enumerate_cycle_classes", "s"),
    ("summary_mwdg.enumerate_cycle_classes.out", "count",
     "summary_mwdg.enumerate_cycle_classes", "out"),
    ("summary_mwdg.build_graph_of_cycles.s", "s", "summary_mwdg.build_graph_of_cycles", "s"),
    ("summary_mwdg.cycle_free_paths.s", "s", "summary_mwdg.cycle_free_paths", "s"),
    ("summary_mwdg.cycle_free_paths.calls", "count", "summary_mwdg.cycle_free_paths", "calls"),
    ("ancestor_query.CommonAncestorEngine.s", "s", "ancestor_query.CommonAncestorEngine", "s"),
    ("ancestor_query.query.calls", "count", "ancestor_query.query", "calls"),
    ("ancestor_query.query.self_s", "s", "ancestor_query.query", "self_s"),
    ("ancestor_query.summary_prefilter.calls", "count", "ancestor_query.summary_prefilter",
     "calls"),
    ("ancestor_query.summary_prefilter.s", "s", "ancestor_query.summary_prefilter", "s"),
    ("ancestor_query.tuples.calls", "count", "ancestor_query.tuples", "calls"),
    ("ancestor_query.monoid.calls", "count", "ancestor_query.monoid", "calls"),
    ("diophantine.has_nonneg_solution.calls", "count", "diophantine.has_nonneg_solution",
     "calls"),
    ("diophantine.has_nonneg_solution.s", "s", "diophantine.has_nonneg_solution", "s"),
    ("diophantine.case_number.calls", "count", "diophantine.case_number", "calls"),
    ("diophantine.bounded_representable.calls", "count", "diophantine.bounded_representable",
     "calls"),
    ("diophantine.bounded_representable.s", "s", "diophantine.bounded_representable", "s"),
    ("diophantine.bounded_representable.bits", "count", "diophantine.bounded_representable",
     "bits"),
    ("ts_projection.marginal_ts_admg.s", "s", "ts_projection.marginal_ts_admg", "s"),
    ("ts_projection.marginal_ts_dmag.s", "s", "ts_projection.marginal_ts_dmag", "s"),
    ("ts_projection.simple_marginal_ts_admg.self_s", "s",
     "ts_projection.simple_marginal_ts_admg", "self_s"),
    ("ts_projection.canonical_ts_dag.s", "s", "ts_projection.canonical_ts_dag", "s"),
    ("ts_projection.cutoff_bound.s", "s", "ts_projection.cutoff_bound", "s"),
    ("finite_projection.admg_latent_project.s", "s", "finite_projection.admg_latent_project",
     "s"),
    ("finite_projection.admg_latent_project.calls", "count",
     "finite_projection.admg_latent_project", "calls"),
    ("finite_projection.canonical_dag.s", "s", "finite_projection.canonical_dag", "s"),
    ("finite_projection.dmag_project.self_s", "s", "finite_projection.dmag_project", "self_s"),
    ("finite_projection.has_inducing_path.calls", "count", "finite_projection.has_inducing_path",
     "calls"),
    ("finite_projection.has_inducing_path.s", "s", "finite_projection.has_inducing_path", "s"),
    ("finite_projection.ancestors.calls", "count", "finite_projection.ancestors", "calls"),
    ("finite_projection.ancestors.s", "s", "finite_projection.ancestors", "s"),
    ("graph_model.unroll_window.s", "s", "graph_model.unroll_window", "s"),
    ("graph_model.unroll_window.out", "count", "graph_model.unroll_window", "out"),
    ("graph_model.FiniteMixedGraph.s", "s", "graph_model.FiniteMixedGraph", "s"),
    ("graph_model.parse_template.s", "s", "graph_model.parse_template", "s"),
    ("graph_model.to_json.s", "s", "graph_model.to_json", "s"),
    ("oracle_testkit.window_marginal.s", "s", "oracle_testkit.window_marginal", "s"),
    ("oracle_testkit.window_marginal.calls", "count", "oracle_testkit.window_marginal", "calls"),
    ("oracle_testkit.window_marginal.depth", "count", "oracle_testkit.window_marginal", "depth"),
    ("cli.run.self_s", "s", "cli.run", "self_s"),
)

# Ratios, each with its base: (metric name, numerator, denominator, one minus?).
RATIOS = (
    # 1 - summary_prefilter.calls / query.calls: queries answered from the cache.
    ("ancestor_query.answer_hit_ratio", "ancestor_query.summary_prefilter",
     "ancestor_query.query", True),
    # 1 - tuple_sets.calls / tuples.calls
    ("ancestor_query.tuples_hit_ratio", "summary_mwdg.tuple_sets", "ancestor_query.tuples", True),
    # 1 - get_monoid.calls / monoid.calls
    ("ancestor_query.monoid_hit_ratio", "summary_mwdg.get_monoid", "ancestor_query.monoid", True),
    # has_nonneg_solution.calls / summary_prefilter.calls: instances per decision.
    ("diophantine.instances_per_decide", "diophantine.has_nonneg_solution",
     "ancestor_query.summary_prefilter", False),
)

PER_LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
PER_LAYER_UNITS.update({name: "ratio" for name, _, _, _ in RATIOS})
PER_LAYER_UNITS["trace.overhead_s"] = "s"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.extra: dict[int, float] = {}  # name id -> summed extra quantity
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.outermost = array("b")  # 0 if a span of the same name encloses it
        self.active: dict[int, int] = {}
        self.stack: list[int] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        depth = self.active.get(nid, 0)
        self.outermost.append(depth == 0)
        self.active[nid] = depth + 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.active[self.span_name[idx]] -= 1

    @contextmanager
    def op(self, kind: str = "op"):
        """Root span of one op, or of a group's set-up with kind "prepare"."""
        self.current_op += 1
        idx = self._open(self._id(kind))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, extra):
        nid = self._id(name)
        extra_fn = extra[1] if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra_fn is not None:
                self.extra[nid] = self.extra.get(nid, 0) + extra_fn(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that binds it."""
        for modname, _, _, _ in TARGETS:
            importlib.import_module(f"tsproject.{modname}")
        modules = [
            m for n, m in sys.modules.items() if n == "tsproject" or n.startswith("tsproject.")
        ]
        for modname, attr, name, extra in TARGETS:
            owner = importlib.import_module(f"tsproject.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], name, extra))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def metrics(self, passes: float) -> dict[str, float]:
        """Per-layer metrics per pass, computed from the spans."""
        n_names = len(self.names)
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        calls = [0] * n_names
        child = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for idx in range(len(start)):
            duration = end[idx] - start[idx]
            if parent[idx] >= 0:
                child[parent[idx]] += duration
        for idx in range(len(start)):
            nid = self.span_name[idx]
            duration = end[idx] - start[idx]
            calls[nid] += 1
            self_time[nid] += duration - child[idx]
            if self.outermost[idx]:
                total[nid] += duration

        def quantity(span: str, qty: str) -> float:
            nid = self.name_id.get(span)
            if nid is None:
                return 0
            if qty == "s":
                return total[nid]
            if qty == "self_s":
                return self_time[nid]
            if qty == "calls":
                return calls[nid]
            return self.extra.get(nid, 0)

        out = {
            name: quantity(span, qty) / passes for name, _, span, qty in LAYER_METRICS
        }
        for name, num, den, one_minus in RATIOS:
            n, d = quantity(num, "calls"), quantity(den, "calls")
            out[name] = ((1 - n / d) if one_minus else n / d) if d else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.start, self.end, self.parent, self.op_id)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["start", "d"], ["end", "d"], ["parent", "i"], ["op", "i"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in arrays:
                arr.tofile(fh)
