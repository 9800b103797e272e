"""Every output file's content, and the one writer that puts it on disk.

Tables, curve geometry, timelines, metric surfaces and projections are
emitted as paired CSV (three-decimal display) and JSON (full precision,
sorted keys).  Every numeric cell carries its provenance: the evaluation set
and how many seeds defined it.  Rounding is display-only; downstream
comparisons should parse the JSON.  File layout under an output directory
is ``<run-id>/<table|curve|timeline|surface>.<csv|json>``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import asdict, dataclass
from typing import Optional

from .curves import (OperatingCurve, constrained_auc_case,
                     volume_at_target_slip)
from .dataset import Pca2dResult, _atomic_output
from .errors import InputError
from .metrics import MetricReport, MetricSurface, TargetSpec, _json_safe

NO_THRESHOLD_MARK = "n/a (no a-priori threshold)"
#: The metrics that only a decision threshold defines.
_THRESHOLD_METRICS = MetricReport.METRIC_KEYS[:8]

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


def _shown(value: Optional[float], missing: str = "n/a") -> str:
    """A CSV cell: three decimals, or ``missing`` where the value is undefined."""
    return missing if value is None else f"{value:.3f}"


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
                csv_row.append(_shown(mean) if mean is None else f"{mean:.3f}±{std:.3f}")
                json_metrics[key] = {"mean": mean, "std": std, "n": n}
            writer.writerow(csv_row)
            rows.append({"model": kind, "eval_set": eval_set,
                         "n_seeds": len(aggregate.seeds),
                         "seeds": list(aggregate.seeds),
                         "metrics": json_metrics})
    return buffer.getvalue(), {"rows": rows, "columns": list(metric_keys)}


def export_curve(curve: OperatingCurve, targets: TargetSpec) -> dict:
    """Curve points, target-zone rectangle and the applied area case."""
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
            slip, volume = (dict(zip(("mean", "std", "n"),
                                     aggregate.mean_std(eval_set, key)))
                            for key in ("slip_rate", "volume_reduction"))
            writer.writerow([kind, eval_set, _shown(slip["mean"]), _shown(slip["std"]),
                             _shown(volume["mean"]), _shown(volume["std"]),
                             len(aggregate.seeds)])
            series.append({"eval_set": eval_set, "slip_rate": slip,
                           "volume_reduction": volume})
        models[kind] = {"series": series, "n_seeds": len(aggregate.seeds)}
    return buffer.getvalue(), {"models": models}


def _surface_csv(surface: MetricSurface) -> str:
    return "s,v,accuracy,f1,cv\n" + "".join(
        f"{s:.6f},{v:.6f},{a:.6f},{f:.6f},{c:.6f}\n"
        for s, accuracy, f1, cv in zip(surface.s_values, surface.accuracy,
                                       surface.f1, surface.cv)
        for v, a, f, c in zip(surface.v_values, accuracy, f1, cv))


def _surface_payload(surface: MetricSurface) -> dict:
    return {
        "prevalence": surface.prevalence,
        "targets": asdict(surface.targets),
        "s_values": [float(x) for x in surface.s_values],
        "v_values": [float(x) for x in surface.v_values],
        "accuracy": surface.accuracy.tolist(),
        "f1": surface.f1.tolist(),
        "cv": surface.cv.tolist(),
    }


def _projection_csv(projection: Pca2dResult) -> str:
    return "pc1,pc2,row_index,label\n" + "".join(
        f"{x!r},{y!r},{i},{l}\n" for x, y, i, l in projection.rows())


def _projection_payload(projection: Pca2dResult) -> dict:
    return {
        "explained_variance": [float(x) for x in projection.explained_variance],
        "rows": [{"pc1": x, "pc2": y, "row_index": i, "label": l}
                 for x, y, i, l in projection.rows()]}


#: The (CSV text, JSON payload) renderers of each value ``write_export`` takes.
_EXPORT_FORMS = {MetricSurface: (_surface_csv, _surface_payload),
                 Pca2dResult: (_projection_csv, _projection_payload)}


def export_surface(surface: MetricSurface) -> tuple[str, dict]:
    """Flat cell listing of a metric surface, CSV and JSON."""
    return _surface_csv(surface), _surface_payload(surface)


def export_projection(projection: Pca2dResult) -> tuple[str, dict]:
    """Each row's two principal-component coordinates, CSV and JSON."""
    return _projection_csv(projection), _projection_payload(projection)


def render_reports(reports: dict, targets: TargetSpec,
                   threshold_supplied: bool) -> tuple[str, dict]:
    """The ``evaluate`` table, one row per ``{eval_set: MetricReport}`` entry.

    A threshold metric undefined for want of a threshold shows
    :data:`NO_THRESHOLD_MARK` rather than ``n/a``.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("eval_set",) + MetricReport.METRIC_KEYS)
    for eval_set, report in reports.items():
        unset = NO_THRESHOLD_MARK if report.threshold is None else "n/a"
        writer.writerow([eval_set] + [
            _shown(report.metric(key), unset if key in _THRESHOLD_METRICS else "n/a")
            for key in MetricReport.METRIC_KEYS])
    return buffer.getvalue(), {
        "rows": [{"eval_set": eval_set, **report_to_json(report)}
                 for eval_set, report in reports.items()],
        "targets": asdict(targets), "threshold_supplied": threshold_supplied}


def _pair(stem: str, csv_text: str, payload) -> dict:
    return {f"{stem}.csv": csv_text, f"{stem}.json": dump_json(payload)}


def evaluation_files(result, targets: TargetSpec, threshold_supplied: bool) -> dict:
    """The files of ``evaluate`` for an :class:`ExternalEvaluation`.

    Without a curve (a single class), ``curve.json`` maps to ``None``, so
    :func:`write_files` removes one an earlier run left behind.
    """
    reports = {"overall": result.report, **{
        f"slice{i}": r for i, r in enumerate(result.slice_reports or (), 1)}}
    curve = result.report.curve
    return {**_pair("table", *render_reports(reports, targets, threshold_supplied)),
            "curve.json": (None if curve is None
                           else dump_json(export_curve(curve, targets)))}


@dataclass
class ReportBundle:
    """Everything an experiment run writes, as ``{file name: text}``."""

    run_id: str
    files: dict


def build_bundle(aggregates: dict, targets: TargetSpec, verdicts: list,
                 run_id: str = "run", provenance: Optional[dict] = None,
                 surface: Optional[MetricSurface] = None) -> ReportBundle:
    table_csv, table_json = render_table(aggregates)
    table_json["verdicts"] = verdicts
    table_json["provenance"] = provenance or {}
    curves = {kind: {**export_curve(aggregate.reference_curve, targets),
                     "eval_set": "test", "seed": aggregate.reference_seed}
              for kind, aggregate in aggregates.items()
              if aggregate.reference_curve is not None}
    files = {**_pair("table", table_csv, table_json),
             **_pair("timeline", *export_timeline(aggregates)),
             "curve.json": dump_json({"models": curves})}
    if surface is not None:
        files.update(_pair("surface", *export_surface(surface)))
    return ReportBundle(run_id=run_id, files=files)


#: One-line encoder for flat lists of scalars.  Without ``indent``, CPython
#: runs the C encoder; the "\n" item separator lets the result split into its
#: items, since no encoded scalar holds a raw newline.
_FLAT = json.JSONEncoder(separators=("\n", ": "))
_SCALARS = (str, int, float, type(None))


def dump_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    Flat lists go through the C encoder in one call, and a list of dicts
    with one shared key set and scalar values (curve points, table and
    projection rows) is rendered one column at a time.
    """
    return _render(payload, "") + "\n"


def _render(value, indent: str) -> str:
    """``value`` as indented JSON whose closing bracket sits at ``indent``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return ("[\n" + inner + (",\n" + inner).join(_items(value, inner))
                + "\n" + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        return _object(_keys([key for key, _ in items]),
                       _items([v for _, v in items], indent + "  "), indent)
    return _FLAT.encode(value)


def _object(keys: list, texts, indent: str) -> str:
    """Encoded keys paired with their rendered values, closed at ``indent``."""
    inner = indent + "  "
    return ("{\n" + ",\n".join(f"{inner}{key}: {text}"
                                for key, text in zip(keys, texts))
            + "\n" + indent + "}")


def _items(values, indent: str) -> list:
    """Each item of a non-empty list rendered at ``indent``."""
    if _all_scalar(values):
        return _flat(values)
    return _rows(values, indent) or [_render(value, indent) for value in values]


def _all_scalar(values) -> bool:
    return all(issubclass(kind, _SCALARS) for kind in set(map(type, values)))


def _flat(values) -> list:
    """Scalars encoded in one C-encoder call, one string each."""
    return _FLAT.encode(values)[1:-1].split("\n")


def _keys(keys: list) -> list:
    """Dict keys encoded as ``json.dumps`` spells them: always as strings."""
    for key in keys:
        if not (key is None or isinstance(key, (str, int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
    return _flat([key if isinstance(key, str) else _FLAT.encode(key) for key in keys])


def _rows(rows, indent: str) -> Optional[list]:
    """Dicts sharing one key set with scalar values, rendered column by column.

    Each column is encoded in one call and every row filled into one
    template; ``None`` when ``rows`` are not such dicts.
    """
    if not all(isinstance(row, dict) for row in rows) or not rows[0]:
        return None
    keys = rows[0].keys()
    if any(row.keys() != keys for row in rows):
        return None
    names = sorted(keys)
    columns = [[row[name] for row in rows] for name in names]
    if not all(map(_all_scalar, columns)):
        return None
    template = _object([key.replace("%", "%%") for key in _keys(names)],
                       ["%s"] * len(names), indent)
    return [template % cells for cells in zip(*map(_flat, columns))]


def write_files(directory, files: dict) -> None:
    """Write ``{name: text}`` under ``directory``; a ``None`` text deletes that file."""
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(directory, name)
            if text is None:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
                continue
            with _atomic_output(path) as handle:
                handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def write_export(path, value) -> None:
    """Write a surface or projection as JSON if ``path`` ends in ``.json``, else CSV.

    Only the form written is rendered.
    """
    to_csv, to_payload = _EXPORT_FORMS[type(value)]
    text = (dump_json(to_payload(value)) if str(path).endswith(".json")
            else to_csv(value))
    with _atomic_output(path) as handle:
        handle.write(text)


def write_bundle(bundle: ReportBundle, out_dir) -> str:
    """Write all bundle files under ``<out_dir>/<run_id>/``; returns that path."""
    target = os.path.join(str(out_dir), bundle.run_id)
    write_files(target, bundle.files)
    return target


def report_to_json(report: MetricReport) -> dict:
    """Full-precision JSON form of one metric report."""
    payload = {key: _json_safe(report.metric(key)) for key in MetricReport.METRIC_KEYS}
    payload["threshold"] = _json_safe(report.threshold)
    payload["slip_equals_target"] = report.slip_equals_target
    payload["n_rows"] = report.n_rows
    payload["n_positives"] = report.n_positives
    return payload
