"""Workloads of the falsecall benchmark and the generator of their inputs.

Each workload is one CLI command run on inputs generated from the workload
seed.  The program receives only the generated files.  ``check`` returns the
problems found in a pass's outputs; an empty list means the pass is correct.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: Output directory of every pass, relative to the workload's directory.
OUT = "out"
S_TARGET = 0.01
PREVALENCE = 0.01

EXPERIMENT_ROWS = 4000
#: Training sees only the chronological first half, and tree-growth work
#: follows its defect count; every seed's dataset has exactly this many, so
#: the work per pass does not depend on the seed.
FIRST_HALF_DEFECTS = round(EXPERIMENT_ROWS // 2 * PREVALENCE)
N_SEEDS, BUDGET, K_FOLDS = 3, 3, 5
#: classifiers.train calls per experiment pass: one per trial and fold, plus
#: one final fit, for each seed.
EXPERIMENT_FITS = N_SEEDS * (BUDGET * K_FOLDS + 1)
#: max_depth is a single value: with max_depth = 5:8 the size of the trees
#: grown, and so the time of a pass, varied by up to a third from seed to seed.
EXPERIMENT_SPACES = {
    "random_forest": ("space.forest.n_trees = 10:14\n"
                      "space.forest.max_depth = 6:6\n"
                      "space.forest.min_leaf = 6:12\n"),
    "knn": "space.knn.k = 1:31\n",
}

TIED_ROWS = 500_000
DISTINCT_ROWS = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple
    #: Writes the inputs for a seed into a directory; returns the facts the
    #: output check needs, with ``work`` (units per pass) among them.
    make_inputs: Callable[[int, Path], dict]
    work_unit: str
    check: Callable[[Path, dict], list]


# ---------------------------------------------------------------------------
# Input generation


def write_experiment_inputs(seed: int, directory: Path, model: str) -> dict:
    """Drifting 4-cluster dataset CSV plus an experiment config for ``model``.

    The generator seed is the first ``derive_seed(seed, attempt)`` whose
    dataset has ``FIRST_HALF_DEFECTS`` defects in its first half.
    """
    from falsecall.dataset import SyntheticConfig, generate_synthetic, write_csv
    from falsecall.seeding import derive_seed

    for attempt in itertools.count():
        # Two clusters open in the second half, so later slices look drifted.
        dataset = generate_synthetic(SyntheticConfig(
            n_rows=EXPERIMENT_ROWS, prevalence=PREVALENCE, n_clusters=4,
            cluster_windows=((0.0, 1.0), (0.0, 1.0), (0.5, 1.0), (0.5, 1.0)),
            drift_strength=5.0, n_features=6, seed=derive_seed(seed, attempt)))
        if dataset.labels[:EXPERIMENT_ROWS // 2].sum() == FIRST_HALF_DEFECTS:
            break
    write_csv(dataset, directory / "data.csv")
    (directory / "experiment.cfg").write_text(
        "run_id = bench\n"
        f"models = {model}\n"
        "regime = requirement_aware\n"
        f"s_target = {S_TARGET}\n"
        f"budget = {BUDGET}\n"
        f"k_folds = {K_FOLDS}\n"
        f"n_seeds = {N_SEEDS}\n"
        "base_seed = 0\n"
        "data = csv\n"
        "csv.path = data.csv\n"
        "csv.categorical_columns = source\n"
        + EXPERIMENT_SPACES[model], encoding="utf-8")
    return {"rows": dataset.n_rows, "work": EXPERIMENT_FITS}


def write_score_inputs(seed: int, directory: Path, rows: int, tied: bool) -> dict:
    """Score export with 1 % defects; defects score higher on average.

    Tied scores sit on a 0.001 grid, as forest vote fractions do; otherwise
    scores are continuous doubles written in full precision, so in practice
    no two are equal.
    """
    rng = np.random.default_rng(seed)
    labels = (rng.random(rows) < PREVALENCE).astype(np.int64)
    scores = np.where(labels == 1, rng.beta(4.0, 2.0, rows), rng.beta(2.0, 4.0, rows))
    if tied:
        text = [f"{s:.3f},{y},{t}" for t, (s, y) in enumerate(zip(scores, labels))]
    else:
        text = [f"{s!r},{y},{t}" for t, (s, y) in enumerate(zip(scores.tolist(), labels))]
    with open(directory / "scores.csv", "w", encoding="utf-8") as handle:
        handle.write("score,label,timestamp\n")
        handle.write("\n".join(text))
        handle.write("\n")
    return {"rows": rows, "positives": int(labels.sum()), "work": rows}


# ---------------------------------------------------------------------------
# Output checks

RANGES = (("cv", S_TARGET - 1.0, 1.0), ("cauc", -1.0, 1.0), ("v_at_s", 0.0, 1.0))


def range_problems(label: str, values: dict) -> list:
    """cv in [s_target - 1, 1], cAUC in [-1, 1], V@S in [0, 1] where defined."""
    problems = []
    for key, lo, hi in RANGES:
        value = values.get(key)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or not lo <= value <= hi:
            problems.append(f"{label}: {key}={value!r} outside [{lo}, {hi}]")
    return problems


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def check_experiment(out: Path, facts: dict) -> list:
    try:
        table = _load(out / "bench" / "table.json")
        curves = _load(out / "bench" / "curve.json")
        _load(out / "bench" / "timeline.json")
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(table.get("rows", ())) != 6:
        problems.append(f"table.json has {len(table.get('rows', ()))} rows, expected 6")
    if table.get("provenance", {}).get("dataset", {}).get("n_rows") != facts["rows"]:
        problems.append("table.json provenance does not give the dataset size")
    if len(table.get("verdicts", ())) != 1:
        problems.append("table.json should hold one verdict")
    for row in table.get("rows", ()):
        means = {key: cell.get("mean") for key, cell in row["metrics"].items()}
        problems += range_problems(f"{row['model']}/{row['eval_set']}", means)
    for kind, entry in curves.get("models", {}).items():
        problems += range_problems(f"curve {kind}", entry)
    return problems


def check_evaluate(out: Path, facts: dict) -> list:
    try:
        table = _load(out / "table.json")
        curve = _load(out / "curve.json")
    except ValueError as exc:
        return [str(exc)]
    rows = table.get("rows", ())
    problems = []
    if [r.get("eval_set") for r in rows] != ["overall"] + [f"slice{i}" for i in range(1, 6)]:
        problems.append("table.json should hold overall and slice1..slice5")
        return problems
    overall = rows[0]
    if (overall["n_rows"], overall["n_positives"]) != (facts["rows"], facts["positives"]):
        problems.append(f"overall counts {overall['n_rows']}/{overall['n_positives']} "
                        f"!= generated {facts['rows']}/{facts['positives']}")
    if sum(r["n_rows"] for r in rows[1:]) != facts["rows"]:
        problems.append("slice sizes do not add up to the row count")
    for row in rows:
        problems += range_problems(row["eval_set"], row)
    problems += range_problems("curve", curve)
    if len(curve.get("points", ())) < 2:
        problems.append("curve.json holds fewer than two points")
    return problems


_EXPERIMENT_ARGV = ("experiment", "--config", "experiment.cfg", "--out", OUT)
_EVALUATE_ARGV = ("evaluate", "--scores", "scores.csv", "--s-target", str(S_TARGET),
                  "--threshold", "0.45", "--slices-by-timestamp", "5", "--out", OUT)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="experiment-forest",
        why="random-forest search on a drifting 4k-row CSV; tree growth "
            "(classifiers.train) dominates; it is the only hot path ROADMAP.md names",
        argv=_EXPERIMENT_ARGV,
        make_inputs=lambda seed, d: write_experiment_inputs(seed, d, "random_forest"),
        work_unit="fits", check=check_experiment),
    Workload(
        name="experiment-knn",
        why="same CSV and search with kNN; scoring (classifiers.score) dominates "
            "and no tree is grown, so tree changes must leave it unchanged",
        argv=_EXPERIMENT_ARGV,
        make_inputs=lambda seed, d: write_experiment_inputs(seed, d, "knn"),
        work_unit="fits", check=check_experiment),
    Workload(
        name="evaluate-tied",
        why="evaluate on 500k scores on a 0.001 grid; CSV parsing and ranking "
            "dominate while the <=1001-point curve keeps output small",
        argv=_EVALUATE_ARGV,
        make_inputs=lambda seed, d: write_score_inputs(seed, d, TIED_ROWS, True),
        work_unit="rows", check=check_evaluate),
    Workload(
        name="evaluate-distinct",
        why="evaluate on 100k all-distinct scores; the curve grows with the "
            "distinct scores, so writing curve.json (reporting) dominates",
        argv=_EVALUATE_ARGV,
        make_inputs=lambda seed, d: write_score_inputs(seed, d, DISTINCT_ROWS, False),
        work_unit="rows", check=check_evaluate),
)}
