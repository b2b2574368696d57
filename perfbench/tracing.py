"""In-memory span tracing of ccselect's public functions, from the outside.

Each traced function is replaced, at every module attribute through which the
package looks it up, by a wrapper that records a span (name, start, end,
parent span). ``from .kernels import center`` binds ``center`` into
``ccselect.objective`` at import time, so wrapping ``ccselect.kernels.center``
alone would miss every call; the wrap sites below are therefore the lookup
sites. Spans live in flat arrays until the run ends and are then written out
as JSON.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict

# Objective spans whose direct parent is an optimize span are the optimizer's
# objective evaluations.
OBJECTIVE_SPANS = (
    "objective.exact_objective",
    "objective.soft_penalty_objective",
    "objective.low_rank_objective",
)


class Tracer:
    """Collects spans and counters; restores every wrapped attribute on close."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.timed_from = 0

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_return(counters, args, result)`` runs after a successful call,
        outside the span, to accumulate computed counts. A lookup site that
        no longer exists is skipped, so a restructured program still runs
        traced and that layer reports 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer.counters, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def begin_timed(self) -> None:
        """Mark the start of the timed region: later spans and counts are its."""
        self.timed_from = len(self.start)
        self.counters.clear()

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_totals(self, first: int, last: int):
        """Per span name: (calls, inclusive seconds, self seconds) over a span range.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly (one thread), so children never overlap.
        """
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child.get(i, 0.0)
        return calls, incl, self_s

    def optimizer_evals(self) -> int:
        """Objective spans opened directly under an optimize span (timed region)."""
        objective_ids = {self._name_ids[n] for n in OBJECTIVE_SPANS if n in self._name_ids}
        optimize_id = self._name_ids.get("optimizer.optimize")
        count = 0
        for i in range(self.timed_from, len(self.start)):
            p = self.parent[i]
            if self.name_id[i] in objective_ids and p >= 0 and self.name_id[p] == optimize_id:
                count += 1
        return count

    def write(self, path) -> None:
        spans = [
            [self.name_id[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "timed_from": self.timed_from,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh)


def _add_gram_bytes(counters, args, result):
    counters["kernels.gram_bytes"] += 8 * result.n ** 2


def _add_response_gram_bytes(counters, args, result):
    counters["kernels.response_gram_bytes"] += 8 * result.y_mat.shape[0] ** 2


def _add_cholesky_flops(counters, args, result):
    counters["objective.cholesky_flops"] += args[0].shape[0] ** 3 / 3.0


def _add_iterations(counters, args, result):
    counters["optimizer.iterations"] += result.iterations


def _add_subsets(counters, args, result):
    counters["oracle.subsets"] += len(result[1])


def install(cc) -> Tracer:
    """Wrap the public functions of the ccselect package ``cc`` where they are looked up."""
    t = Tracer()
    # weighted_gaussian_gram, center and cho_factor are bound into objective
    # by name; response_gram, median_bandwidth, the objectives, draw_map and
    # project into optimizer; median_bandwidth and exact_objective into oracle.
    t.wrap(cc.objective, "weighted_gaussian_gram", "kernels.weighted_gaussian_gram",
           _add_gram_bytes)
    t.wrap(cc.objective, "center", "kernels.center")
    t.wrap(cc.objective, "cho_factor", "objective.cholesky", _add_cholesky_flops)
    t.wrap(cc.objective, "exact_objective", "objective.exact_objective")
    t.wrap(cc.optimizer, "response_gram", "kernels.response_gram", _add_response_gram_bytes)
    t.wrap(cc.optimizer, "median_bandwidth", "kernels.median_bandwidth")
    t.wrap(cc.optimizer, "exact_objective", "objective.exact_objective")
    t.wrap(cc.optimizer, "soft_penalty_objective", "objective.soft_penalty_objective")
    t.wrap(cc.optimizer, "low_rank_objective", "objective.low_rank_objective")
    t.wrap(cc.optimizer, "draw_map", "random_features.draw_map")
    t.wrap(cc.optimizer, "project", "optimizer.project")
    t.wrap(cc.optimizer, "optimize", "optimizer.optimize", _add_iterations)
    t.wrap(cc.oracle, "median_bandwidth", "kernels.median_bandwidth")
    t.wrap(cc.oracle, "exact_objective", "objective.exact_objective")
    t.wrap(cc.oracle, "exhaustive_argmin", "oracle.exhaustive_argmin", _add_subsets)
    # RandomFeatureMap.centered_embed looks up the module-level function;
    # grad_contract is only reachable as a method.
    t.wrap(cc.random_features, "centered_embed", "random_features.centered_embed")
    t.wrap(cc.random_features.RandomFeatureMap, "grad_contract",
           "random_features.grad_contract")
    t.wrap(cc.bench, "pearson_baseline", "bench.pearson_baseline")
    t.wrap(cc.dataio, "load_csv", "dataio.load_csv")
    t.wrap(cc.synthdata, "generate", "synthdata.generate")
    return t


# (metric name, unit, how it is read off the timed region's spans).
# Counts and times are per cell, the workload's unit of work.
PER_CELL_SPANS = (
    ("kernels.weighted_gaussian_gram.calls", "count", "kernels.weighted_gaussian_gram", "calls"),
    ("kernels.weighted_gaussian_gram.s", "s", "kernels.weighted_gaussian_gram", "incl"),
    ("kernels.center.s", "s", "kernels.center", "incl"),
    ("kernels.response_gram.s", "s", "kernels.response_gram", "incl"),
    ("kernels.median_bandwidth.s", "s", "kernels.median_bandwidth", "incl"),
    ("objective.exact_objective.calls", "count", "objective.exact_objective", "calls"),
    ("objective.exact_objective.self_s", "s", "objective.exact_objective", "self"),
    ("objective.cholesky.calls", "count", "objective.cholesky", "calls"),
    ("objective.cholesky.s", "s", "objective.cholesky", "incl"),
    ("objective.low_rank_objective.calls", "count", "objective.low_rank_objective", "calls"),
    ("objective.low_rank_objective.self_s", "s", "objective.low_rank_objective", "self"),
    ("random_features.draw_map.s", "s", "random_features.draw_map", "incl"),
    ("random_features.centered_embed.calls", "count", "random_features.centered_embed", "calls"),
    ("random_features.centered_embed.s", "s", "random_features.centered_embed", "incl"),
    ("random_features.grad_contract.s", "s", "random_features.grad_contract", "incl"),
    ("optimizer.optimize.self_s", "s", "optimizer.optimize", "self"),
    ("optimizer.project.calls", "count", "optimizer.project", "calls"),
    ("optimizer.project.s", "s", "optimizer.project", "incl"),
    ("oracle.exhaustive_argmin.self_s", "s", "oracle.exhaustive_argmin", "self"),
    ("bench.pearson_baseline.s", "s", "bench.pearson_baseline", "incl"),
    ("dataio.load_csv.s", "s", "dataio.load_csv", "incl"),
)
PER_CELL_COUNTERS = (
    ("kernels.gram_bytes", "bytes"),
    ("kernels.response_gram_bytes", "bytes"),
    ("objective.cholesky_flops", "flop"),
    ("optimizer.iterations", "count"),
    ("oracle.subsets", "count"),
)


def layer_metrics(tracer: Tracer, cells: int) -> dict:
    """Per-layer metrics of the timed region, per completed cell."""
    calls, incl, self_s = tracer.layer_totals(tracer.timed_from, len(tracer.start))
    pick = {"calls": calls, "incl": incl, "self": self_s}
    out = {}
    for metric, unit, span, kind in PER_CELL_SPANS:
        out[metric] = (pick[kind].get(span, 0) / cells, unit)
    for metric, unit in PER_CELL_COUNTERS:
        out[metric] = (tracer.counters.get(metric, 0.0) / cells, unit)
    evals = tracer.optimizer_evals()
    iterations = tracer.counters.get("optimizer.iterations", 0.0)
    out["optimizer.evals"] = (evals / cells, "count")
    out["optimizer.accepted_per_eval"] = (iterations / evals if evals else 0.0, "ratio")
    _, setup_incl, _ = tracer.layer_totals(0, tracer.timed_from)
    out["synthdata.generate.s"] = (setup_incl.get("synthdata.generate", 0.0), "s")
    return out
