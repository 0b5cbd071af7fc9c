"""Spans recorded from outside the program, and the per-layer metrics built on them.

The benchmark wraps effortsim's public functions at run time, where their
callers look them up, records one span per call and removes every wrapper
when the traced phase ends. Nothing here changes the program's files.

A span's self time is its duration minus the part of it that its child
spans cover. Counts are taken from arguments and return values at the
wrapped boundary; ``cells`` and ``bytes`` figures are computed from array
shapes and ``nbytes``, not measured.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    iteration: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``iteration`` tags every span opened while set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """A function that records a span around ``fn``.

        ``count(args, kwargs, result)`` returns the span's counts; it runs
        only when ``fn`` returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                start=self.clock(),
                end=None,
                parent=self._stack[-1] if self._stack else None,
                iteration=self.iteration,
            )
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.id, [])
            if min(b, s.end) > max(a, s.start)
        ]
        out[s.id] = (s.end - s.start) - _covered(inside)
    return out


def outermost(spans: list[Span]) -> list[Span]:
    """Spans not nested inside a span of the same name (recursion counts once)."""
    by_id = {s.id: s for s in spans}
    keep = []
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            keep.append(s)
    return keep


# ---------------------------------------------------------------- targets


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows_of_result(args, kwargs, result):
    return {"rows": int(result.size)}


def _rows_of_pop(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 0, "pop").size)}


def _matrix(args, kwargs, result):
    return {"cells": int(result.size), "bytes": int(result.nbytes)}


def _eps_sum(args, kwargs, result):
    xa = _arg(args, kwargs, 2, "Xa")
    xb = _arg(args, kwargs, 3, "Xb")
    feats = _arg(args, kwargs, 4, "feature_indices")
    return {"feature_cells": int(xa.shape[0]) * int(xb.shape[0]) * len(feats)}


def _predict_rows(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _sweep(args, kwargs, result):
    return {"passes": len(result.deltas)}


def _simulate(args, kwargs, result):
    return {
        "imitators": sum(1 for o in result.outcomes if o.changed),
        "scanned": len(result.outcomes),
        "focal_points": len(result.focal_points),
    }


def _absent(args, kwargs, result):
    return {"absent": int(result is None)}


FIT_FUNCTIONS = ("fit_linear", "fit_ridge", "fit_tree", "fit_mlp", "fit_constrained_linear")
COMMANDS = ("cmd_fairness", "cmd_simulate", "cmd_sweep_tau")


def targets(es) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every wrapped boundary.

    ``es`` holds the imported effortsim modules by short name. A function
    is wrapped in every module that looks it up by that name; a method is
    wrapped on the class that defines it.
    """
    h, d, e, m, f, dyn, seg, fig = (
        es["harness"], es["dataset"], es["effort"], es["models"],
        es["fairness"], es["dynamics"], es["segregation"], es["figures"],
    )
    out = [
        (h, "load_csv", "dataset.load_csv", _rows_of_result),
        (d, "load_csv", "dataset.load_csv", _rows_of_result),
        (h, "write_csv", "dataset.write_csv", _rows_of_pop),
        (d, "write_csv", "dataset.write_csv", _rows_of_pop),
        (e.EffortEngine, "pairwise_effort", "effort.pairwise_effort", _matrix),
        (e.EffortEngine, "eps_sum", "effort.EffortEngine.eps_sum", _eps_sum),
        (f.FairnessAudit, "__init__", "fairness.FairnessAudit", None),
        (f.FairnessAudit, "sweep", "fairness.sweep", _sweep),
        (f.FairnessAudit, "effort_reward", "fairness.effort_reward", None),
        (h, "simulate", "dynamics.simulate", _simulate),
        (dyn, "simulate", "dynamics.simulate", _simulate),
        (h, "feature_shift_report", "dynamics.feature_shift_report", None),
        (dyn, "feature_shift_report", "dynamics.feature_shift_report", None),
        (seg, "pairwise_distances", "segregation.pairwise_distances", _matrix),
        (seg, "absolute_clustering", "segregation.absolute_clustering", None),
        (seg, "spectral_segregation", "segregation.spectral_segregation", _absent),
        (seg, "build_focal_neighborhoods", "segregation.build_focal_neighborhoods", None),
        (seg, "measure_population", "segregation.measure_population", None),
        (h.StageRunner, "run", "harness.StageRunner.run", None),
        (fig, "cmd_figures", "figures.cmd_figures", None),
    ]
    for owner in (h, m):
        out += [(owner, name, "models.fit", None) for name in FIT_FUNCTIONS]
    for cls in (m.Predictor, m.LinearPredictor, m.TreePredictor, m.MlpPredictor):
        if "predict_rows" in vars(cls):
            out.append((cls, "predict_rows", "models.predict_rows", _predict_rows))
    out += [(h, name, f"harness.{name}", None) for name in COMMANDS]
    return out


class Instrumentation:
    """Context manager that installs the wrappers and always removes them."""

    def __init__(self, tracer: Tracer, target_list):
        self.tracer = tracer
        self.targets = target_list
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for owner, attr, name, count in self.targets:
                original = vars(owner)[attr]
                self.saved.append((owner, attr, original))
                setattr(owner, attr, self.tracer.wrap(name, original, count))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.restore()


# ---------------------------------------------------------------- metrics

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "dataset.load_csv.self_s": ("s", "lower"),
    "dataset.load_csv.rows": ("count", "lower"),
    "dataset.write_csv.self_s": ("s", "lower"),
    "dataset.write_csv.rows": ("count", "lower"),
    "effort.pairwise_effort.self_s": ("s", "lower"),
    "effort.pairwise_effort.calls": ("count", "lower"),
    "effort.pairwise_effort.cells": ("computed-cells", "lower"),
    "effort.pairwise_effort.max_bytes": ("computed-bytes", "lower"),
    "effort.EffortEngine.eps_sum.self_s": ("s", "lower"),
    "effort.EffortEngine.eps_sum.calls": ("count", "lower"),
    "effort.EffortEngine.eps_sum.feature_cells": ("computed-cells", "lower"),
    "models.fit.self_s": ("s", "lower"),
    "models.fit.calls": ("count", "lower"),
    "models.predict_rows.self_s": ("s", "lower"),
    "models.predict_rows.calls": ("count", "lower"),
    "models.predict_rows.rows": ("count", "lower"),
    "fairness.FairnessAudit.self_s": ("s", "lower"),
    "fairness.FairnessAudit.calls": ("count", "lower"),
    "fairness.sweep.self_s": ("s", "lower"),
    "fairness.sweep.passes": ("count", "lower"),
    "fairness.effort_reward.self_s": ("s", "lower"),
    "dynamics.simulate.self_s": ("s", "lower"),
    "dynamics.simulate.calls": ("count", "lower"),
    "dynamics.simulate.imitators": ("count", "higher"),
    "dynamics.simulate.imitator_ratio": ("share", "higher"),
    "dynamics.simulate.focal_points": ("count", "lower"),
    "dynamics.feature_shift_report.self_s": ("s", "lower"),
    "segregation.pairwise_distances.self_s": ("s", "lower"),
    "segregation.pairwise_distances.calls": ("count", "lower"),
    "segregation.pairwise_distances.cells": ("computed-cells", "lower"),
    "segregation.pairwise_distances.max_bytes": ("computed-bytes", "lower"),
    "segregation.absolute_clustering.self_s": ("s", "lower"),
    "segregation.spectral_segregation.self_s": ("s", "lower"),
    "segregation.spectral_segregation.absent": ("count", "lower"),
    "segregation.build_focal_neighborhoods.self_s": ("s", "lower"),
    "segregation.measure_population.self_s": ("s", "lower"),
    "segregation.measure_population.calls": ("count", "lower"),
    "harness.StageRunner.run.self_s": ("s", "lower"),
    "harness.output_bytes": ("bytes", "lower"),
    "harness.cmd_fairness.total_s": ("s", "lower"),
    "harness.cmd_simulate.total_s": ("s", "lower"),
    "harness.cmd_sweep_tau.total_s": ("s", "lower"),
    "figures.cmd_figures.self_s": ("s", "lower"),
    "trace.layer_share": ("share", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# Spans that are glue around the layers rather than a layer of their own.
_GLUE = {"harness.StageRunner.run"} | {f"harness.{c}" for c in COMMANDS}


def iteration_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one iteration's spans (no output or overhead terms).

    A layer that did not run reports zero time and zero counts.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[tuple[str, str], int] = {}
    max_bytes: dict[str, int] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        for key, value in s.counts.items():
            if key == "bytes":
                max_bytes[s.name] = max(max_bytes.get(s.name, 0), value)
            else:
                sums[(s.name, key)] = sums.get((s.name, key), 0) + value
    for s in outermost(spans):
        calls[s.name] = calls.get(s.name, 0) + 1

    # harness.output_bytes and trace.overhead_s come from outside the spans;
    # they read 0 here until the caller fills them in.
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "self_s":
            out[metric] = self_s.get(span, 0.0)
        elif stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "max_bytes":
            out[metric] = max_bytes.get(span, 0)
        else:
            out[metric] = sums.get((span, stat), 0)
    scanned = sums.get(("dynamics.simulate", "scanned"), 0)
    out["dynamics.simulate.imitator_ratio"] = (
        out["dynamics.simulate.imitators"] / scanned if scanned else 0.0
    )
    for c in COMMANDS:
        out[f"harness.{c}.total_s"] = sum(
            s.end - s.start for s in spans if s.name == f"harness.{c}"
        )
    # Share of the top-level calls' time that named layers account for.
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    layers = sum(v for k, v in self_s.items() if k not in _GLUE)
    out["trace.layer_share"] = layers / roots if roots else 0.0
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over iterations."""
    return {k: statistics.median(it[k] for it in per_iteration) for k in per_iteration[0]}
