"""Span recorder and per-layer wrappers for the falsecall benchmark.

Layers are the modules of ``src/falsecall``.  Tracing wraps the public
functions listed in ``TRACED`` from outside the package: each wrapper
records one span (name, start, end, parent span, pass) and the work counts
read from the call's arguments and return value.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "falsecall"

TRACED = (
    "cli.load_experiment_setup",
    "dataset.load_csv",
    "dataset.chrono_split",
    "dataset.stratified_kfold",
    "dataset.FeatureEncoder.transform",
    "classifiers.train",
    "classifiers.score",
    "curves.sweep_thresholds",
    "curves.auc_pr",
    "curves.constrained_auc",
    "curves.select_threshold",
    "metrics.confusion_counts",
    "experiment.read_scores_csv",
    "experiment.score_report",
    "experiment.optimize_hyperparams",
    "experiment.run_single_seed",
    "experiment.evaluate_external",
    "reporting.export_curve",
    "reporting.dump_json",
    "reporting.write_bundle",
)

PASS_SPAN = "pass"


def _count_train(counts, args, result):
    trees = result.state.get("trees", ())
    counts["classifiers.train.trees"] += len(trees)
    counts["classifiers.train.nodes"] += sum(len(t["feature"]) for t in trees)


def _count_score(counts, args, result):
    rows, state = len(result), args[0].state
    counts["classifiers.score.rows"] += rows
    counts["classifiers.score.tree_rows"] += rows * len(state.get("trees", ()))
    if "X" in state:
        counts["classifiers.score.pairs"] += rows * len(state["X"])


def _count_ranked(counts, args, result):
    counts["curves.rows_ranked"] += len(args[0])


def _count_sweep(counts, args, result):
    _count_ranked(counts, args, result)
    counts["curves.sweep_thresholds.points"] += len(result)


def _count_select(counts, args, result):
    counts["curves.select_threshold.feasible"] += bool(result.feasible)


COUNTERS = {
    "classifiers.train": _count_train,
    "classifiers.score": _count_score,
    "curves.sweep_thresholds": _count_sweep,
    "curves.auc_pr": _count_ranked,
    "curves.select_threshold": _count_select,
    "experiment.read_scores_csv":
        lambda c, a, r: c.update({"experiment.read_scores_csv.rows": len(r[0])}),
    "dataset.FeatureEncoder.transform":
        lambda c, a, r: c.update({"dataset.FeatureEncoder.transform.rows": r.n_rows}),
    "reporting.export_curve":
        lambda c, a, r: c.update({"reporting.export_curve.points": len(r["points"])}),
    "reporting.dump_json":
        lambda c, a, r: c.update({"reporting.dump_json.bytes": len(r)}),
}

#: Per-pass counts reported by :func:`layer_metrics`, with their units.
COUNT_METRICS = (
    ("classifiers.train.trees", "count"),
    ("classifiers.train.nodes", "count"),
    ("classifiers.score.rows", "count"),
    ("classifiers.score.tree_rows", "count"),
    ("classifiers.score.pairs", "count"),
    ("curves.rows_ranked", "count"),
    ("curves.sweep_thresholds.points", "count"),
    ("curves.select_threshold.feasible_ratio", "ratio"),
    ("experiment.read_scores_csv.rows", "count"),
    ("dataset.FeatureEncoder.transform.rows", "count"),
    ("reporting.export_curve.points", "count"),
    ("reporting.dump_json.bytes", "bytes"),
)


class SpanRecorder:
    """In-memory spans and counts, grouped by pass."""

    def __init__(self):
        #: Each span is [name, start, end, parent index or None, pass id].
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts[self.pass_id], args, result)
            return result

        return traced


def _owner_and_attr(name: str):
    module_name, _, path = name.partition(".")
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *inner, attr = path.split(".")
    for part in inner:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every function in ``TRACED`` for the duration of the block.

    A function imported by name into another module is a separate binding,
    so each package module whose namespace holds the original object gets
    the wrapper too; a method is replaced on its class.
    """
    modules = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    patches = []
    for name in TRACED:
        owner, attr = _owner_and_attr(name)
        original = vars(owner)[attr]
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [(module, key) for module in modules
                        for key, value in vars(module).items() if value is original]
        traced = recorder.wrap(name, original)
        for target, key in bindings:
            setattr(target, key, traced)
            patches.append((target, key, original))
    try:
        yield recorder
    finally:
        for target, key, original in reversed(patches):
            setattr(target, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so the children of a span never overlap and
    their durations can simply be summed.
    """
    result = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            result[parent] -= end - start
    return result


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(recorder: SpanRecorder, names=TRACED) -> dict:
    """Per-pass median calls, busy and self seconds of each layer, plus counts."""
    per_pass: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for (name, start, end, _, pass_id), own in zip(recorder.spans,
                                                   self_times(recorder.spans)):
        entry = per_pass[pass_id][name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    for pass_id, layers in per_pass.items():
        counts = recorder.counts[pass_id]
        calls = layers["curves.select_threshold"][0]
        counts["curves.select_threshold.feasible_ratio"] = (
            counts["curves.select_threshold.feasible"] / calls if calls else 0.0)

    passes = sorted(per_pass)
    metrics = {}
    for name in names:
        for slot, suffix, unit in ((0, "calls", "count"), (1, "busy_s", "s"),
                                   (2, "self_s", "s")):
            values = [per_pass[p][name][slot] for p in passes]
            metrics[f"{name}.{suffix}"] = {"value": _median(values), "unit": unit}
    for name, unit in COUNT_METRICS:
        values = [recorder.counts[p][name] for p in passes]
        metrics[name] = {"value": _median(values), "unit": unit}
    return metrics
