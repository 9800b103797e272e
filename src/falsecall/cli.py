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
import inspect
import sys
import traceback
from dataclasses import asdict
from typing import Optional

from .classifiers import BALANCED_RANDOM_FOREST, HyperParamSpace, KINDS, \
    KNN, RANDOM_FOREST
from .dataset import (MISSING_POLICIES, Dataset, SyntheticConfig,
                      generate_synthetic, load_csv, one_hot_fit_transform,
                      pca2d, write_csv)
from .errors import FalseCallError, IngestionError, InputError
from .experiment import (EVAL_SETS, ExperimentConfig, evaluate_external,
                         run_multi_seed, verdict)
from .metrics import TargetSpec, metric_surface
from .reporting import (NO_THRESHOLD_MARK, _shown, build_bundle,
                        evaluation_files, write_bundle, write_export,
                        write_files)


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


def _read_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_kv_text(handle.read(), origin=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def _names(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _kinds(value: str) -> tuple:
    kinds = _names(value)
    if not set(kinds) <= set(KINDS):
        raise ValueError(value)
    return kinds


def _policy(value: str) -> str:
    if value not in MISSING_POLICIES:
        raise ValueError(value)
    return value


def _bounds(value: str) -> tuple[int, int]:
    lo, hi = value.split(":")
    return int(lo), int(hi)


def _windows(value: str) -> tuple:
    return tuple((float(lo), float(hi))
                 for lo, hi in (part.split(":") for part in value.split(",")))


#: What a value must look like, for every parser that can reject one.
_EXPECTED = {int: "an integer", float: "a number",
             _kinds: "comma-separated model kinds from " + ", ".join(KINDS),
             _policy: " or ".join(map(repr, MISSING_POLICIES)),
             _bounds: "integers low:high",
             _windows: "comma-separated start:end numbers"}

_SYNTHETIC_KEYS = {"n_rows": int, "prevalence": float, "n_clusters": int,
                   "windows": _windows, "drift_strength": float, "noise": float,
                   "n_features": int, "seed": int}
_SPACE_KINDS = {"space.forest.": (RANDOM_FOREST, BALANCED_RANDOM_FOREST),
                "space.knn.": (KNN,)}

#: Every experiment config key as {section prefix: {key: parser}}.  Each key
#: is named after what it sets: an ``ExperimentConfig`` or ``TargetSpec``
#: field (``models`` is ``model_kinds``), a ``load_csv`` parameter, a
#: ``SyntheticConfig`` field (``windows`` is ``cluster_windows``) or a
#: ``HyperParamSpace`` integer range; ``data`` picks the section.  A key left
#: out takes the default of what it sets.
_EXPERIMENT_KEYS = {
    "": {"run_id": str, "models": _kinds, "regime": str, "s_target": float,
         "v_target": float, "optimizer": str, "budget": int, "k_folds": int,
         "base_seed": int, "n_seeds": int, "data": str},
    "csv.": {name: {"categorical_columns": _names, "missing": _policy}.get(name, str)
             for name in inspect.signature(load_csv).parameters},
    "synthetic.": _SYNTHETIC_KEYS,
    **{prefix: dict.fromkeys(HyperParamSpace.default(kinds[0]).int_ranges, _bounds)
       for prefix, kinds in _SPACE_KINDS.items()},
}


def _read_keys(kv: dict, sections: dict, problems: list) -> dict:
    """Parse every config line by ``sections``, ``{prefix: {key: parser}}``.

    Returns ``{prefix: {key: value}}`` for the keys present.  An unknown key,
    or a value its parser rejects, adds a problem naming the key.
    """
    values = {prefix: {} for prefix in sections}
    for name, text in kv.items():
        prefix = next((p for p in sections if p and name.startswith(p)), "")
        key = name[len(prefix):]
        parse = sections[prefix].get(key)
        if parse is None:
            problems.append(f"unknown key {name!r}")
            continue
        try:
            values[prefix][key] = parse(text)
        except ValueError:
            problems.append(f"key {name!r} must be {_EXPECTED[parse]}, got {text!r}")
    return values


def _missing(build, kv: dict, prefix: str = "") -> list:
    """A problem for each parameter of ``build`` with neither default nor key."""
    return [f"missing key {prefix + name!r}"
            for name, param in inspect.signature(build).parameters.items()
            if param.default is param.empty and prefix + name not in kv]


def _synthetic_config(values: dict) -> SyntheticConfig:
    """Without ``windows``, each cluster spans the whole timestamp range."""
    values = dict(values)
    if "windows" in values:
        values["cluster_windows"] = values.pop("windows")
    elif "n_clusters" in values:
        values["cluster_windows"] = (SyntheticConfig.cluster_windows
                                     * values["n_clusters"])
    return SyntheticConfig(**values)


def _built(problems: list, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or ``None`` with its ``InputError`` in ``problems``."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        problems.append(str(exc))
        return None


def load_experiment_setup(path) -> tuple[ExperimentConfig, Dataset, dict]:
    """Parse an experiment config file and materialise its dataset.

    Returns (config, dataset, provenance echo).  Unknown and missing keys,
    unparseable values and the range checks of the objects built from them
    are collected and reported together, before any data is read.
    """
    kv = _read_config(path)
    problems = [] if "models" in kv else ["missing key 'models'"]
    values = _read_keys(kv, _EXPERIMENT_KEYS, problems)
    top = values[""]
    source = top.pop("data", None)
    if source not in ("synthetic", "csv"):
        problems.append("key 'data' must be 'synthetic' or 'csv'")
    elif source == "synthetic":
        problems += _missing(SyntheticConfig, kv, "synthetic.")
    elif source == "csv":
        problems += _missing(load_csv, kv, "csv.")

    targets = _built(problems, TargetSpec, **{
        key: top.pop(key) for key in ("s_target", "v_target") if key in top})
    spaces = {kind: _built(problems, HyperParamSpace.default(kind).narrowed,
                           **values[prefix])
              for prefix, kinds in _SPACE_KINDS.items() if values[prefix]
              for kind in kinds}
    config = (_built(problems, ExperimentConfig, model_kinds=top.pop("models"),
                     targets=targets or TargetSpec(), **top,
                     spaces={kind: space for kind, space in spaces.items() if space})
              if "models" in top else None)
    synthetic = (_built(problems, _synthetic_config, values["synthetic."])
                 if source == "synthetic"
                 and not _missing(SyntheticConfig, values["synthetic."]) else None)
    if problems:
        raise IngestionError(f"{path}: " + "; ".join(sorted(set(problems))))
    dataset = (generate_synthetic(synthetic) if source == "synthetic"
               else load_csv(**values["csv."]))
    return config, dataset, {"config": dict(sorted(kv.items()))}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_evaluate(args) -> int:
    targets = TargetSpec(s_target=args.s_target, v_target=args.v_target)
    result = evaluate_external(args.scores, targets, threshold=args.threshold,
                               n_slices=args.slices_by_timestamp)
    write_files(args.out, evaluation_files(result, targets, args.threshold is not None))
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
        "targets": asdict(config.targets),
        "eval_sets": list(EVAL_SETS),
        "dataset": {"n_rows": dataset.n_rows, "prevalence": dataset.prevalence},
    })
    bundle = build_bundle(aggregates, config.targets, verdicts,
                          run_id=config.run_id, provenance=provenance)
    target = write_bundle(bundle, args.out)
    for entry in verdicts:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"{entry['kind']}: {status} mean test cv={_shown(entry['mean_cv'])} "
              f"(seeds passing {entry['seeds_passing']}/{entry['seeds_total']})")
    print(f"reports written to {target}", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    kv = _read_config(args.config)
    problems = _missing(SyntheticConfig, kv)
    values = _read_keys(kv, {"": _SYNTHETIC_KEYS}, problems)[""]
    config = (_built(problems, _synthetic_config, values)
              if not _missing(SyntheticConfig, values) else None)
    if problems:
        raise IngestionError(f"{args.config}: " + "; ".join(sorted(problems)))
    dataset = generate_synthetic(config)
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows "
          f"({int(dataset.labels.sum())} defects) to {args.out}")
    return 0


def cmd_drift(args) -> int:
    dataset = load_csv(args.data, **{
        key: value for key, value in vars(args).items()
        if key in inspect.signature(load_csv).parameters})
    matrix, _ = one_hot_fit_transform(dataset)
    write_export(args.out, pca2d(matrix))
    print(f"projected {matrix.n_rows} rows -> {args.out}")
    return 0


def cmd_surface(args) -> int:
    targets = TargetSpec(s_target=args.s_target, v_target=args.v_target)
    surface = metric_surface(args.prevalence, args.resolution, targets)
    write_export(args.out, surface)
    print(f"wrote {args.resolution}x{args.resolution} surface to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="falsecall",
                     description="Requirement-aware evaluation for "
                                 "false-call reduction classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    targets = argparse.ArgumentParser(add_help=False)
    targets.add_argument("--s-target", type=float, default=TargetSpec.s_target,
                         dest="s_target")
    targets.add_argument("--v-target", type=float, default=TargetSpec.v_target,
                         dest="v_target")

    p = sub.add_parser("evaluate", help="evaluate an exported score/label CSV",
                       parents=[targets])
    p.add_argument("--scores", required=True, help="CSV with score,label[,timestamp]")
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

    # Options left out take the defaults of load_csv.
    p = sub.add_parser("drift", help="export a 2-D principal-component projection",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--timestamp-column", dest="timestamp_column")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--positive-label", dest="positive_label")
    p.add_argument("--categorical", type=_names, dest="categorical_columns",
                   help="comma-separated categorical column overrides")
    p.add_argument("--out", required=True, help="output path (.csv or .json)")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("surface", help="export the analytic metric surface",
                       parents=[targets])
    p.add_argument("--prevalence", type=float, required=True)
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
