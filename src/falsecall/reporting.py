"""Machine-readable renderings of experiment results.

Tables, curve geometry, timelines and metric surfaces are emitted as paired
CSV (three-decimal display) and JSON (full precision, sorted keys).  Every
numeric cell carries its provenance: the evaluation set and how many seeds
defined it.  Rounding is display-only; downstream comparisons should parse
the JSON.  File layout under an output directory is
``<run-id>/<table|curve|timeline|surface>.<csv|json>``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .curves import (OperatingCurve, constrained_auc_case,
                     volume_at_target_slip)
from .dataset import _atomic_output
from .errors import InputError
from .metrics import MetricReport, MetricSurface, TargetSpec

#: Column aliases accepted by :func:`render_table` (case-insensitive).
_ALIASES = {
    "cv": "cv", "vs": "v_at_s", "vats": "v_at_s", "v_at_s": "v_at_s",
    "cauc": "cauc", "aucpr": "auc_pr", "auc_pr": "auc_pr", "prc": "auc_pr",
    "youden": "youden_score", "youdenscore": "youden_score",
    "youden_score": "youden_score", "accuracy": "accuracy",
    "precision": "precision", "recall": "recall_pos", "recall_pos": "recall_pos",
    "f1": "f1", "f1score": "f1", "volumereduction": "volume_reduction",
    "volume_reduction": "volume_reduction", "slip": "slip_rate",
    "sliprate": "slip_rate", "slip_rate": "slip_rate",
    "youdenatthreshold": "youden_at_threshold",
    "youden_at_threshold": "youden_at_threshold",
}

DEFAULT_COLUMNS = ("accuracy", "f1", "auc_pr", "youden_score", "v_at_s",
                   "cv", "cauc", "slip_rate", "volume_reduction")


def canonical_metric(name: str) -> str:
    key = "".join(ch for ch in name.lower() if ch.isalnum() or ch == "_")
    if key not in _ALIASES:
        raise InputError(f"unknown metric column {name!r}")
    return _ALIASES[key]


def _json_safe(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _cell(mean: Optional[float], std: Optional[float]) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.3f}±{std:.3f}"


def render_table(aggregates: dict, columns=DEFAULT_COLUMNS) -> tuple[str, dict]:
    """One row per model per evaluation set; returns (csv_text, json_object).

    ``aggregates`` maps the model kind to its :class:`SeedAggregate`; the
    mapping order fixes the row order.
    """
    if not aggregates:
        raise InputError("no aggregates to render")
    metric_keys = [canonical_metric(c) for c in columns]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["model", "eval_set", "n_seeds"] + list(metric_keys))
    rows = []
    for kind, aggregate in aggregates.items():
        for eval_set in aggregate.reports:
            csv_row = [kind, eval_set, len(aggregate.seeds)]
            json_metrics = {}
            for key in metric_keys:
                mean, std, n = aggregate.mean_std(eval_set, key)
                csv_row.append(_cell(mean, std))
                json_metrics[key] = {"mean": mean, "std": std, "n": n}
            writer.writerow(csv_row)
            rows.append({"model": kind, "eval_set": eval_set,
                         "n_seeds": len(aggregate.seeds),
                         "seeds": list(aggregate.seeds),
                         "metrics": json_metrics})
    return buffer.getvalue(), {"rows": rows, "columns": list(metric_keys)}


def export_curve(curve: OperatingCurve, targets: TargetSpec) -> dict:
    """Curve points, target-zone rectangle and the applied area case."""
    if len(curve) == 0:
        raise InputError("empty curve")
    cauc_value, case = constrained_auc_case(curve, targets)
    points = [{"threshold": _json_safe(float(t)), "v": float(v),
               "one_minus_s": float(1.0 - s)}
              for t, v, s in zip(curve.thresholds, curve.v, curve.s)]
    return {
        "points": points,
        "target_zone": {
            "v_min": targets.v_target,
            "one_minus_s_min": 1.0 - targets.s_target,
            "corners": [[targets.v_target, 1.0 - targets.s_target], [1.0, 1.0]],
            "area": (1.0 - targets.v_target) * targets.s_target,
        },
        "case": case,
        "cauc": cauc_value,
        "v_at_s": volume_at_target_slip(curve, targets).value,
    }


def export_timeline(aggregates: dict) -> tuple[str, dict]:
    """Slip and volume-reduction series test, slice1..slice5 per model."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["model", "eval_set", "slip_mean", "slip_std",
                     "volume_reduction_mean", "volume_reduction_std", "n_seeds"])
    models = {}
    for kind, aggregate in aggregates.items():
        series = []
        for eval_set in aggregate.reports:
            slip_mean, slip_std, slip_n = aggregate.mean_std(eval_set, "slip_rate")
            v_mean, v_std, v_n = aggregate.mean_std(eval_set, "volume_reduction")
            writer.writerow([
                kind, eval_set,
                "n/a" if slip_mean is None else f"{slip_mean:.3f}",
                "n/a" if slip_std is None else f"{slip_std:.3f}",
                "n/a" if v_mean is None else f"{v_mean:.3f}",
                "n/a" if v_std is None else f"{v_std:.3f}",
                len(aggregate.seeds)])
            series.append({"eval_set": eval_set,
                           "slip_rate": {"mean": slip_mean, "std": slip_std,
                                         "n": slip_n},
                           "volume_reduction": {"mean": v_mean, "std": v_std,
                                                "n": v_n}})
        models[kind] = {"series": series, "n_seeds": len(aggregate.seeds)}
    return buffer.getvalue(), {"models": models}


def export_surface(surface: MetricSurface) -> tuple[str, dict]:
    """Flat cell listing of a metric surface, CSV and JSON."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["s", "v", "accuracy", "f1", "cv"])
    for i, s in enumerate(surface.s_values):
        for j, v in enumerate(surface.v_values):
            writer.writerow([f"{s:.6f}", f"{v:.6f}",
                             f"{surface.accuracy[i, j]:.6f}",
                             f"{surface.f1[i, j]:.6f}",
                             f"{surface.cv[i, j]:.6f}"])
    payload = {
        "prevalence": surface.prevalence,
        "targets": {"s_target": surface.targets.s_target,
                    "v_target": surface.targets.v_target},
        "s_values": [float(x) for x in surface.s_values],
        "v_values": [float(x) for x in surface.v_values],
        "accuracy": surface.accuracy.tolist(),
        "f1": surface.f1.tolist(),
        "cv": surface.cv.tolist(),
    }
    return buffer.getvalue(), payload


@dataclass
class ReportBundle:
    """Everything an experiment run writes, ready for serialisation."""

    run_id: str
    table_csv: str
    table_json: dict
    timeline_csv: str
    timeline_json: dict
    curves_json: dict
    verdicts: list
    surface_csv: Optional[str] = None
    surface_json: Optional[dict] = None
    provenance: dict = field(default_factory=dict)


def build_bundle(aggregates: dict, targets: TargetSpec, verdicts: list,
                 run_id: str = "run", provenance: Optional[dict] = None,
                 surface: Optional[MetricSurface] = None) -> ReportBundle:
    table_csv, table_json = render_table(aggregates)
    table_json["verdicts"] = verdicts
    table_json["provenance"] = provenance or {}
    timeline_csv, timeline_json = export_timeline(aggregates)
    curves = {}
    for kind, aggregate in aggregates.items():
        if aggregate.reference_curve is not None:
            entry = export_curve(aggregate.reference_curve, targets)
            entry["eval_set"] = "test"
            entry["seed"] = aggregate.reference_seed
            curves[kind] = entry
    surface_csv = surface_json = None
    if surface is not None:
        surface_csv, surface_json = export_surface(surface)
    return ReportBundle(run_id=run_id, table_csv=table_csv,
                        table_json=table_json, timeline_csv=timeline_csv,
                        timeline_json=timeline_json,
                        curves_json={"models": curves},
                        verdicts=verdicts, surface_csv=surface_csv,
                        surface_json=surface_json,
                        provenance=provenance or {})


def dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_bundle(bundle: ReportBundle, out_dir) -> str:
    """Write all bundle files under ``<out_dir>/<run_id>/``; returns that path."""
    target = os.path.join(str(out_dir), bundle.run_id)
    os.makedirs(target, exist_ok=True)
    files = {
        "table.csv": bundle.table_csv,
        "table.json": dump_json(bundle.table_json),
        "timeline.csv": bundle.timeline_csv,
        "timeline.json": dump_json(bundle.timeline_json),
        "curve.json": dump_json(bundle.curves_json),
    }
    if bundle.surface_csv is not None:
        files["surface.csv"] = bundle.surface_csv
        files["surface.json"] = dump_json(bundle.surface_json)
    for name, content in files.items():
        with _atomic_output(os.path.join(target, name)) as handle:
            handle.write(content)
    return target


def report_to_json(report: MetricReport) -> dict:
    """Full-precision JSON form of one metric report."""
    payload = {key: _json_safe(report.metric(key)) for key in MetricReport.METRIC_KEYS}
    payload["threshold"] = _json_safe(report.threshold)
    payload["slip_equals_target"] = report.slip_equals_target
    payload["n_rows"] = report.n_rows
    payload["n_positives"] = report.n_positives
    return payload
