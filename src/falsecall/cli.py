"""Command-line interface.

Subcommands: ``evaluate`` (score-file evaluation), ``experiment`` (full
multi-seed workflow from a config file), ``generate`` (synthetic dataset to
CSV), ``drift`` (2-D principal-component export of a dataset) and
``surface`` (analytic metric grid).  Exit codes: 0 success, 1 input or
config error, 2 internal invariant violation.  Diagnostics go to standard
error; data goes to files or standard output only.

Config files are plain ``key = value`` lines (``#`` starts a comment line);
see the README for the schema.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional

from .classifiers import BALANCED_RANDOM_FOREST, HyperParamSpace, KINDS, \
    KNN, RANDOM_FOREST
from .dataset import (Dataset, SyntheticConfig, generate_synthetic, load_csv,
                      one_hot_fit_transform, pca2d, write_csv)
from .errors import FalseCallError, IngestionError, InputError
from .experiment import (EVAL_SETS, ExperimentConfig, evaluate_external,
                         run_multi_seed, verdict)
from .metrics import MetricReport, TargetSpec, metric_surface
from .reporting import (build_bundle, dump_json, export_curve, export_surface,
                        report_to_json, write_bundle)

NO_THRESHOLD_MARK = "n/a (no a-priori threshold)"
_THRESHOLD_METRICS = MetricReport.METRIC_KEYS[:8]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# Config parsing


def parse_kv_text(text: str, origin: str = "config") -> dict:
    entries: dict[str, str] = {}
    problems = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"line {line_no}: expected 'key = value'")
            continue
        if key in entries:
            problems.append(f"line {line_no}: duplicate key {key!r}")
            continue
        entries[key] = value
    if problems:
        raise IngestionError(f"{origin}: " + "; ".join(problems))
    return entries


def _converted(value, key: str, convert, problems: list):
    """``convert(value)``; a value it rejects adds a problem naming ``key``."""
    try:
        return convert(value)
    except ValueError:
        expected = "an integer" if convert is int else "a number"
        problems.append(f"key {key!r} must be {expected}, got {value!r}")
        return None


def _parse_windows(value: str, key: str, problems: list) -> tuple:
    windows = []
    for part in value.split(","):
        part = part.strip()
        lo, sep, hi = part.partition(":")
        if not sep:
            raise InputError(f"window {part!r} must look like start:end")
        windows.append((_converted(lo, key, float, problems),
                        _converted(hi, key, float, problems)))
    return tuple(windows)


_SYNTH_KEYS = ("n_rows", "prevalence", "n_clusters", "windows",
               "drift_strength", "noise", "n_features", "seed")


def _synthetic_kwargs(kv: dict, problems: list, prefix: str = "") -> dict:
    """``SyntheticConfig`` arguments; usable only if ``problems`` stayed empty."""
    def get(name, convert, default=None):
        return _converted(kv.get(prefix + name, default), prefix + name,
                          convert, problems)

    if kv.get(prefix + "n_rows") is None or kv.get(prefix + "prevalence") is None:
        raise InputError(f"synthetic data needs {prefix}n_rows and {prefix}prevalence")
    kwargs = {
        "n_rows": get("n_rows", int),
        "prevalence": get("prevalence", float),
        "n_clusters": get("n_clusters", int, 1),
        "drift_strength": get("drift_strength", float, 3.0),
        "noise": get("noise", float, 1.0),
        "n_features": get("n_features", int, 5),
        "seed": get("seed", int, 0),
    }
    windows = kv.get(prefix + "windows")
    if windows:
        kwargs["cluster_windows"] = _parse_windows(windows, prefix + "windows",
                                                   problems)
    elif kwargs["n_clusters"] is not None:
        kwargs["cluster_windows"] = ((0.0, 1.0),) * kwargs["n_clusters"]
    return kwargs


def _parse_bounds(value: str, key: str,
                  problems: list) -> Optional[tuple[int, int]]:
    lo, sep, hi = value.partition(":")
    if not sep:
        raise InputError(f"bounds {value!r} must look like low:high")
    bounds = (_converted(lo, key, int, problems), _converted(hi, key, int, problems))
    return None if None in bounds else bounds


def _spaces_from_kv(kv: dict, problems: list) -> dict:
    forest_bounds = {}
    knn_bounds = {}
    for key, value in kv.items():
        if not key.startswith("space."):
            continue
        _, group, param = key.split(".", 2)
        bounds = _parse_bounds(value, key, problems)
        if bounds is None:
            continue
        if group == "forest":
            forest_bounds[param] = bounds
        elif group == "knn":
            knn_bounds[param] = bounds
        else:
            raise InputError(f"unknown space group {group!r} in {key!r}")
    spaces = {}
    if forest_bounds:
        for kind in (RANDOM_FOREST, BALANCED_RANDOM_FOREST):
            spaces[kind] = HyperParamSpace.default(kind).narrowed(**forest_bounds)
    if knn_bounds:
        spaces[KNN] = HyperParamSpace.default(KNN).narrowed(**knn_bounds)
    return spaces


_TOP_KEYS = {"run_id", "models", "regime", "s_target", "v_target", "optimizer",
             "budget", "k_folds", "base_seed", "n_seeds", "data"}
_CSV_KEYS = {"path", "timestamp_column", "label_column", "positive_label",
             "categorical_columns"}


def load_experiment_setup(path) -> tuple[ExperimentConfig, Dataset, dict]:
    """Parse an experiment config file and materialise its dataset.

    Returns (config, dataset, provenance echo).  All schema violations are
    collected and reported together.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            kv = parse_kv_text(handle.read(), origin=str(path))
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc

    problems = []
    for key in kv:
        top, dot, rest = key.partition(".")
        if key in _TOP_KEYS:
            continue
        if top == "csv" and dot and rest in _CSV_KEYS:
            continue
        if top == "synthetic" and dot and rest in _SYNTH_KEYS:
            continue
        if top == "space" and dot:
            continue
        problems.append(f"unknown key {key!r}")
    if "models" not in kv:
        problems.append("missing key 'models'")
    if kv.get("data") not in ("synthetic", "csv"):
        problems.append("key 'data' must be 'synthetic' or 'csv'")
    if problems:
        raise IngestionError(f"{path}: " + "; ".join(sorted(problems)))

    kinds = tuple(m.strip() for m in kv["models"].split(",") if m.strip())
    for kind in kinds:
        if kind not in KINDS:
            problems.append(f"unknown model kind {kind!r} (choose from {KINDS})")
    if problems:
        raise IngestionError(f"{path}: " + "; ".join(sorted(problems)))

    numbers = {key: _converted(kv.get(key, default), key, convert, problems)
               for key, convert, default in (
                   ("s_target", float, 0.01), ("v_target", float, 0.40),
                   ("budget", int, 20), ("k_folds", int, 5),
                   ("base_seed", int, 0), ("n_seeds", int, 10))}
    spaces = _spaces_from_kv(kv, problems)
    synthetic = (_synthetic_kwargs(kv, problems, "synthetic.")
                 if kv["data"] == "synthetic" else None)
    if problems:
        raise IngestionError(f"{path}: " + "; ".join(sorted(problems)))

    targets = TargetSpec(s_target=numbers["s_target"], v_target=numbers["v_target"])
    config = ExperimentConfig(
        model_kinds=kinds,
        regime=kv.get("regime", "requirement_aware"),
        targets=targets,
        optimizer=kv.get("optimizer", "random"),
        budget=numbers["budget"],
        k_folds=numbers["k_folds"],
        base_seed=numbers["base_seed"],
        n_seeds=numbers["n_seeds"],
        spaces=spaces,
        run_id=kv.get("run_id", "run"),
    )

    if synthetic is not None:
        dataset = generate_synthetic(SyntheticConfig(**synthetic))
    else:
        if "csv.path" not in kv:
            raise IngestionError(f"{path}: csv data needs csv.path")
        categorical = None
        if kv.get("csv.categorical_columns"):
            categorical = [c.strip() for c in kv["csv.categorical_columns"].split(",")]
        dataset = load_csv(kv["csv.path"],
                           timestamp_column=kv.get("csv.timestamp_column", "timestamp"),
                           label_column=kv.get("csv.label_column", "label"),
                           positive_label=kv.get("csv.positive_label"),
                           categorical_columns=categorical)
    provenance = {"config": dict(sorted(kv.items()))}
    return config, dataset, provenance


# ---------------------------------------------------------------------------
# Subcommands


def _report_csv_row(report, label: str) -> list:
    cells = [label]
    for key in MetricReport.METRIC_KEYS:
        value = report.metric(key)
        if value is None:
            cells.append(NO_THRESHOLD_MARK if key in _THRESHOLD_METRICS
                         and report.threshold is None else "n/a")
        else:
            cells.append(f"{value:.3f}")
    return cells


def cmd_evaluate(args) -> int:
    targets = TargetSpec(s_target=args.s_target, v_target=args.v_target)
    result = evaluate_external(args.scores, targets, threshold=args.threshold,
                               n_slices=args.slices_by_timestamp)
    os.makedirs(args.out, exist_ok=True)

    lines = [",".join(("eval_set",) + MetricReport.METRIC_KEYS)]
    lines.append(",".join(_report_csv_row(result.report, "overall")))
    rows = [{"eval_set": "overall", **report_to_json(result.report)}]
    if result.slice_reports:
        for i, slice_report in enumerate(result.slice_reports, 1):
            lines.append(",".join(_report_csv_row(slice_report, f"slice{i}")))
            rows.append({"eval_set": f"slice{i}", **report_to_json(slice_report)})
    with open(os.path.join(args.out, "table.csv"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    table = {"rows": rows,
             "targets": {"s_target": targets.s_target, "v_target": targets.v_target},
             "threshold_supplied": args.threshold is not None}
    with open(os.path.join(args.out, "table.json"), "w", encoding="utf-8") as handle:
        handle.write(dump_json(table))
    if result.report.curve is not None:
        with open(os.path.join(args.out, "curve.json"), "w", encoding="utf-8") as handle:
            handle.write(dump_json(export_curve(result.report.curve, targets)))
    print(f"evaluated {result.report.n_rows} rows "
          f"({result.report.n_positives} defects) -> {args.out}")
    return 0


def cmd_experiment(args) -> int:
    config, dataset, provenance = load_experiment_setup(args.config)
    aggregates = run_multi_seed(config, dataset)
    verdicts = [verdict(aggregates[kind], config.targets)
                for kind in config.model_kinds]
    provenance.update({
        "regime": config.regime,
        "seeds": config.seeds,
        "targets": {"s_target": config.targets.s_target,
                    "v_target": config.targets.v_target},
        "eval_sets": list(EVAL_SETS),
        "dataset": {"n_rows": dataset.n_rows, "prevalence": dataset.prevalence},
    })
    bundle = build_bundle(aggregates, config.targets, verdicts,
                          run_id=config.run_id, provenance=provenance)
    target = write_bundle(bundle, args.out)
    for entry in verdicts:
        status = "PASS" if entry["passed"] else "FAIL"
        mean_cv = entry["mean_cv"]
        shown = "n/a" if mean_cv is None else f"{mean_cv:.3f}"
        print(f"{entry['kind']}: {status} mean test cv={shown} "
              f"(seeds passing {entry['seeds_passing']}/{entry['seeds_total']})")
    print(f"reports written to {target}", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            kv = parse_kv_text(handle.read(), origin=str(args.config))
    except OSError as exc:
        raise IngestionError(f"cannot open {args.config}: {exc}") from exc
    unknown = [k for k in kv if k not in _SYNTH_KEYS]
    if unknown:
        raise IngestionError(f"{args.config}: unknown keys {sorted(unknown)}")
    problems = []
    synthetic = _synthetic_kwargs(kv, problems)
    if problems:
        raise IngestionError(f"{args.config}: " + "; ".join(problems))
    dataset = generate_synthetic(SyntheticConfig(**synthetic))
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows "
          f"({int(dataset.labels.sum())} defects) to {args.out}")
    return 0


def cmd_drift(args) -> int:
    categorical = ([c.strip() for c in args.categorical.split(",")]
                   if args.categorical else None)
    dataset = load_csv(args.data, timestamp_column=args.timestamp_column,
                       label_column=args.label_column,
                       positive_label=args.positive_label,
                       categorical_columns=categorical)
    matrix, _ = one_hot_fit_transform(dataset)
    projection = pca2d(matrix)
    if str(args.out).endswith(".json"):
        payload = {
            "explained_variance": [float(x) for x in projection.explained_variance],
            "rows": [{"pc1": x, "pc2": y, "row_index": i, "label": l}
                     for x, y, i, l in projection.rows()],
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump_json(payload))
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("pc1,pc2,row_index,label\n")
            for x, y, i, l in projection.rows():
                handle.write(f"{x!r},{y!r},{i},{l}\n")
    print(f"projected {matrix.n_rows} rows -> {args.out}")
    return 0


def cmd_surface(args) -> int:
    targets = TargetSpec(s_target=args.s_target, v_target=args.v_target)
    surface = metric_surface(args.prevalence, args.resolution, targets)
    surface_csv, surface_json = export_surface(surface)
    content = (dump_json(surface_json) if str(args.out).endswith(".json")
               else surface_csv)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(content)
    print(f"wrote {args.resolution}x{args.resolution} surface to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="falsecall",
                     description="Requirement-aware evaluation for "
                                 "false-call reduction classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="evaluate an exported score/label CSV")
    p.add_argument("--scores", required=True, help="CSV with score,label[,timestamp]")
    p.add_argument("--s-target", type=float, default=0.01, dest="s_target")
    p.add_argument("--v-target", type=float, default=0.40, dest="v_target")
    p.add_argument("--threshold", type=float, default=None,
                   help="a-priori decision threshold, if one exists")
    p.add_argument("--slices-by-timestamp", type=int, default=None,
                   dest="slices_by_timestamp", metavar="N",
                   help="also report N chronological slices")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the multi-seed workflow")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    p.add_argument("--config", required=True, help="key = value generator config")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("drift", help="export a 2-D principal-component projection")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--timestamp-column", default="timestamp", dest="timestamp_column")
    p.add_argument("--label-column", default="label", dest="label_column")
    p.add_argument("--positive-label", default=None, dest="positive_label")
    p.add_argument("--categorical", default=None,
                   help="comma-separated categorical column overrides")
    p.add_argument("--out", required=True, help="output path (.csv or .json)")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("surface", help="export the analytic metric surface")
    p.add_argument("--prevalence", type=float, required=True)
    p.add_argument("--s-target", type=float, default=0.01, dest="s_target")
    p.add_argument("--v-target", type=float, default=0.40, dest="v_target")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True, help="output path (.csv or .json)")
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FalseCallError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
