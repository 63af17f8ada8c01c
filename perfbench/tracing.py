"""Spans and counts at the boundaries of splatlift's modules, recorded from
outside the package.

`install` wraps the public functions of each traced module (and the few
methods named in METHODS) and rebinds every name under which the CLI and
the other modules look them up, so calls between modules are seen too.
`model` runs only inside rasterize calls and `verify` is on no user path;
neither is wrapped. Spans stay in memory until `Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
import weakref

import numpy as np

LAYERS = ("rasterize", "solver", "aggregate", "query", "formats", "synthbench", "cli")
METHODS = {"rasterize": [("WeightMatrix", "validate")],
           "solver": [("ObservationSet", "dense_values")]}


class Tracer:
    """Spans of the main thread and of the worker threads the CLI starts.

    Each thread keeps its own stack of open spans. A span opened in a worker
    thread with nothing open there has the main thread's innermost open span
    as parent: the call that started the pool and waits for it.
    """

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, run id]
        self.counts = {}
        self.run_id = ""
        self._main = threading.get_ident()
        self._stacks = {self._main: []}
        self._lock = threading.Lock()
        self._materialized = {}
        self.hook_s = 0.0    # time spent in `after`

    def _stack(self) -> list:
        with self._lock:
            return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str) -> int:
        stack = self._stack()
        outer = stack or self._stacks[self._main]
        with self._lock:
            self.spans.append([name, time.perf_counter(), None,
                               outer[-1] if outer else -1, self.run_id])
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def count_max(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, value), value)

    def overhead_s(self) -> float:
        """Time the tracing added: the spans times the cost of one wrapper,
        measured in this process, plus the time spent in the hooks."""
        return len(self.spans) * wrapper_cost_s() + self.hook_s

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    # -- hooks: counts taken where the work happens --------------------------

    def after(self, name: str, args, result, index: int) -> None:
        if name == "rasterize.build_weight_matrix":
            covered = int(np.count_nonzero(np.diff(result.indptr)))
            nbytes = result.indptr.nbytes + result.indices.nbytes + result.weights.nbytes
            self.count("rasterize.nnz_built", result.nnz)
            for key, value in (("rays", result.rows), ("covered_rays", covered),
                               ("nnz", result.nnz), ("matrix_bytes", nbytes)):
                self.count_max(f"rasterize.{key}", value)
        elif name in ("solver.lift_rowsum", "solver.lift_rowsum_squared"):
            A, obs = args[0], args[1]
            per_row = np.diff(A.indptr)
            self.count("solver.entries", int(per_row[obs.observed_mask()].sum()))
        elif name == "solver.ObservationSet.dense_values":
            key = id(result)
            ref = self._materialized.get(key)
            if ref is None or ref() is not result:
                self._materialized[key] = weakref.ref(result)
                self.count("solver.dense_values_bytes", result.nbytes)
        elif name == "aggregate.cluster_features":
            field = args[0]
            observed = ~field.unobserved & (np.linalg.norm(field.values, axis=1) > 0)
            self.count("aggregate.cluster_points", int(np.count_nonzero(observed)))
            self.count("aggregate.clusters", result.n_clusters)
        elif name == "aggregate.filter_observations":
            records = result[1]
            self.count("aggregate.masks_checked", len(records))
            self.count("aggregate.masks_dropped", sum(1 for r in records if not r.kept))
        elif name.startswith(("formats.read_", "formats.write_")):
            parent = self.spans[index][3]
            nested = parent >= 0 and self.spans[parent][0].startswith("formats.")
            if not nested and args and isinstance(args[0], (str, os.PathLike)):
                kind = "read" if ".read_" in name else "write"
                self.count(f"formats.{kind}_bytes", os.path.getsize(args[0]))


def _wrap_function(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(index)
                    return
                except BaseException:
                    tracer.close(index)
                    raise
                tracer.close(index)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            if name == "query.auto_threshold" and type(exc).__name__ == "ValleyNotFoundError":
                tracer.count("query.threshold_fallbacks")
            raise
        tracer.close(index)
        start = time.perf_counter()
        tracer.after(name, args, result, index)
        tracer.hook_s += time.perf_counter() - start
        return result
    return wrapper


def wrapper_cost_s(calls: int = 10000) -> float:
    """Seconds a wrapper adds to one call, hooks aside: the best of three
    timings of a wrapped no-op less that of the bare no-op."""
    def noop():
        return None

    def best(fn) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times) / calls

    return max(best(_wrap_function(Tracer(), "calibrate.noop", noop)) - best(noop), 0.0)


def install(tracer: Tracer) -> None:
    """Wrap and rebind; call after importing splatlift.cli."""
    import splatlift.cli  # noqa: F401  (imports every traced module)

    modules = {layer: sys.modules[f"splatlift.{layer}"] for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            replaced[obj] = _wrap_function(tracer, f"{layer}.{attr}", obj)
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap_function(tracer, f"{layer}.{cls_name}.{meth}",
                                              getattr(cls, meth)))
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "splatlift" or name.startswith("splatlift.")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, attr, replaced[obj])


# -- per-layer metrics from one traced round --------------------------------

MB = float(1 << 20)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, counts, command_wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of one traced round.

    A span's self time is its duration minus the part of it that its direct
    children cover. Without worker threads the layer self times add up to
    the round's command time (trace.unaccounted_s is the microseconds
    around each call); spans of parallel threads each count in full.
    """
    dur = [end - start for _name, start, end, _parent, _run in spans]
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    child = [_covered([(spans[c][1], spans[c][2]) for c in kids]) for kids in children]
    self_s = {layer: 0.0 for layer in LAYERS}
    total = {}
    calls = {}
    for i, (name, _s, _e, parent, _run) in enumerate(spans):
        self_s[name.split(".")[0]] += dur[i] - child[i]
        nested = name.startswith("formats.") and parent >= 0 \
            and spans[parent][0].startswith("formats.")
        if not nested:  # bytes and seconds of a formats call are counted once
            total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def fmt_total(kind):
        return sum(v for n, v in total.items() if n.startswith(f"formats.{kind}_"))

    build_s = t("rasterize.build_weight_matrix")
    lift_names = ("solver.lift_rowsum", "solver.lift_rowsum_squared")
    lift_s = t(*lift_names)
    covered = counts.get("rasterize.covered_rays", 0)
    m = {
        "rasterize.build_calls": calls.get("rasterize.build_weight_matrix", 0),
        "rasterize.build_s": build_s,
        "rasterize.nnz_per_s": counts.get("rasterize.nnz_built", 0) / build_s if build_s else 0.0,
        "rasterize.validate_s": t("rasterize.WeightMatrix.validate"),
        "rasterize.stream_s": t("rasterize.iter_view_entries"),
        "rasterize.render_s": t("rasterize.render"),
        "rasterize.render_labels_s": t("rasterize.render_labels"),
        "rasterize.rays": counts.get("rasterize.rays", 0),
        "rasterize.covered_rays": covered,
        "rasterize.nnz": counts.get("rasterize.nnz", 0),
        "rasterize.entries_per_ray": counts.get("rasterize.nnz", 0) / covered if covered else 0.0,
        "rasterize.matrix_mb": counts.get("rasterize.matrix_bytes", 0) / MB,
        "solver.lift_calls": sum(calls.get(n, 0) for n in lift_names),
        "solver.lift_s": lift_s,
        "solver.entries_per_s": counts.get("solver.entries", 0) / lift_s if lift_s else 0.0,
        "solver.streaming_accumulate_s": sum(
            dur[i] - _covered([(spans[c][1], spans[c][2]) for c in children[i]
                               if spans[c][0] == "rasterize.iter_view_entries"])
            for i, span in enumerate(spans) if span[0] == "solver.lift_streaming"),
        "solver.dense_values_s": t("solver.ObservationSet.dense_values"),
        "solver.dense_values_mb": counts.get("solver.dense_values_bytes", 0) / MB,
        "aggregate.cluster_s": t("aggregate.cluster_features"),
        "aggregate.cluster_points": counts.get("aggregate.cluster_points", 0),
        "aggregate.clusters": counts.get("aggregate.clusters", 0),
        "aggregate.project_s": t("aggregate.project_clusters"),
        "aggregate.filter_s": t("aggregate.filter_observations"),
        "aggregate.masks_checked": counts.get("aggregate.masks_checked", 0),
        "aggregate.masks_dropped": counts.get("aggregate.masks_dropped", 0),
        "query.calls": calls.get("query.attention_scores", 0),
        "query.scores_s": t("query.attention_scores"),
        "query.render_attention_s": t("query.render_attention"),
        "query.threshold_s": t("query.auto_threshold"),
        "query.segment_s": t("query.segment"),
        "query.threshold_fallbacks": counts.get("query.threshold_fallbacks", 0),
        "formats.read_s": fmt_total("read"),
        "formats.read_mb": counts.get("formats.read_bytes", 0) / MB,
        "formats.write_s": fmt_total("write"),
        "formats.write_mb": counts.get("formats.write_bytes", 0) / MB,
        "synthbench.make_scene_s": t("synthbench.make_scene"),
        "synthbench.make_observations_s": t("synthbench.make_observations"),
        "cli.commands": calls.get("cli.main", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    m["trace.unaccounted_s"] = command_wall_s - sum(self_s.values())
    m["trace.pipeline_s"] = command_wall_s
    m["trace.overhead_s"] = overhead_s
    return m
