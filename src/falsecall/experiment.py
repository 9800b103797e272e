"""End-to-end evaluation workflow over one or many random seeds.

One run for a (model kind, seed) pair does, in order: chronological split,
hyperparameter search with stratified k-fold cross-validation on the
hyperparameter set, extraction of the per-fold optimal threshold, averaging
of those thresholds, a final fit on the whole hyperparameter set, and frozen
evaluation on the test set and the five time slices.  The decision threshold
is never refitted on evaluation data: everything after the final fit only
applies the stored threshold.

Two metric regimes drive the search.  The ``standard`` regime optimises the
precision-recall area and picks per-fold thresholds at the best Youden
index; the ``requirement_aware`` regime optimises the constrained curve area
and picks thresholds where the slip target is met with the best volume
reduction.  All metrics are computed for every run regardless of the regime,
so the two can be compared side by side from their reports.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import classifiers
from .classifiers import ClassifierSpec, HyperParamSpace, TrainedModel
from .curves import (OperatingCurve, auc_pr, best_youden, constrained_auc,
                     select_threshold, sweep_thresholds, volume_at_target_slip)
from .dataset import (Dataset, EncodedMatrix, FeatureEncoder, SplitPlan,
                      chrono_split, read_scores_csv, stratified_kfold)
from .errors import FalseCallError, InputError, UndefinedRateError
from .metrics import (SENTINEL_THRESHOLD, MetricReport, TargetSpec,
                      accuracy_precision, confusion_counts, constrained_volume,
                      slip_rate, standard_metrics, validated_inputs,
                      volume_reduction, youden_index)
from .seeding import derive_seed, rng_for

REGIME_STANDARD = "standard"
REGIME_REQUIREMENT = "requirement_aware"
REGIMES = (REGIME_STANDARD, REGIME_REQUIREMENT)

OPTIMIZER_RANDOM = "random"
OPTIMIZER_SURROGATE = "surrogate"
OPTIMIZERS = (OPTIMIZER_RANDOM, OPTIMIZER_SURROGATE)

EVAL_SETS = ("test", "slice1", "slice2", "slice3", "slice4", "slice5")


@dataclass
class ExperimentConfig:
    """Everything a multi-seed experiment needs besides the dataset."""

    model_kinds: tuple = (classifiers.DUMMY,)
    regime: str = REGIME_REQUIREMENT
    targets: TargetSpec = field(default_factory=TargetSpec)
    optimizer: str = OPTIMIZER_RANDOM
    budget: int = 20
    k_folds: int = 5
    base_seed: int = 0
    n_seeds: int = 10
    spaces: dict = field(default_factory=dict)
    run_id: str = "run"

    def __post_init__(self):
        if not self.model_kinds:
            raise InputError("at least one model kind is required")
        for kind, space in self.spaces.items():
            if kind not in classifiers.KINDS:
                raise InputError(f"spaces: unknown classifier kind {kind!r}")
            if not isinstance(space, HyperParamSpace):
                raise InputError(f"spaces[{kind!r}] must be a HyperParamSpace, "
                                 f"got {type(space).__name__}")
        for i, kind in enumerate(self.model_kinds):
            if kind not in classifiers.KINDS:
                raise InputError(f"unknown classifier kind {kind!r}")
            if kind in self.model_kinds[:i]:
                raise InputError(f"model kind {kind!r} is repeated")
            _check_search(kind, self.space_for(kind), self.regime, self.optimizer,
                          self.budget, self.k_folds)
        if self.n_seeds < 1:
            raise InputError("n_seeds must be >= 1")

    @property
    def seeds(self) -> list[int]:
        return [self.base_seed + i for i in range(self.n_seeds)]

    def space_for(self, kind: str) -> HyperParamSpace:
        return self.spaces.get(kind) or HyperParamSpace.default(kind)


@dataclass
class TrialResult:
    """Cross-validation outcome for one hyperparameter draw."""

    spec: ClassifierSpec
    fold_performances: list[float]
    fold_thresholds: list[float]
    mean_performance: float
    mean_threshold: float

    @property
    def deployable(self) -> bool:
        return math.isfinite(self.mean_threshold)


@dataclass
class RunResult:
    """One (kind, seed) pass: the deployable model and its frozen reports."""

    kind: str
    seed: int
    model: TrainedModel
    trial: TrialResult
    test_report: MetricReport
    slice_reports: list[MetricReport]
    undeployable: bool


@dataclass
class SeedAggregate:
    """Per-seed reports with mean and population (ddof=0) deviation."""

    kind: str
    seeds: tuple
    reports: dict  # eval set name -> list of MetricReport, one per seed
    reference_curve: Optional[OperatingCurve] = None
    reference_seed: Optional[int] = None
    undeployable_seeds: tuple = ()

    def mean_std(self, eval_set: str, metric: str) -> tuple:
        """(mean, std, n) over seeds where the metric was defined."""
        values = [r.metric(metric) for r in self.reports[eval_set]]
        defined = np.array([v for v in values if v is not None], dtype=float)
        if defined.size == 0:
            return None, None, 0
        return float(defined.mean()), float(defined.std(ddof=0)), int(defined.size)


# ---------------------------------------------------------------------------
# Metric reports


def _defined(rate, *args) -> Optional[float]:
    """The rate, or ``None`` when its denominator class is absent."""
    try:
        return rate(*args)
    except UndefinedRateError:
        return None


def score_report(scores: Sequence[float], labels: Sequence[int],
                 targets: TargetSpec,
                 threshold: Optional[float] = None) -> MetricReport:
    """All metrics for one scored set; threshold-dependent ones need a threshold.

    The inputs are validated first, whatever classes they hold.  Metrics
    whose denominator class is absent come back ``None`` instead of failing,
    so thin evaluation slices degrade gracefully.  ``report.curve`` keeps the
    operating curve the curve metrics came from.
    """
    scores, labels = validated_inputs(scores, labels)
    report = MetricReport(threshold=threshold,
                          n_rows=int(labels.size),
                          n_positives=int(np.count_nonzero(labels == 1)))

    if threshold is not None:
        cc = confusion_counts(scores, labels, threshold)
        report.accuracy, report.precision = accuracy_precision(cc)
        report.slip_rate = _defined(slip_rate, cc)
        if report.slip_rate is not None:
            _, _, report.recall_pos, report.f1 = standard_metrics(cc)
            report.slip_equals_target = report.slip_rate == targets.s_target
        report.volume_reduction = _defined(volume_reduction, cc)
        report.youden_at_threshold = _defined(youden_index, cc)
        report.cv = _defined(constrained_volume, cc, targets)

    if 0 < report.n_positives < report.n_rows:
        report.curve = sweep_thresholds(scores, labels)
        report.auc_pr = auc_pr(scores, labels)
        report.youden_score = best_youden(report.curve).score
        report.v_at_s = volume_at_target_slip(report.curve, targets).value
        report.cauc = constrained_auc(report.curve, targets)
    return report


# ---------------------------------------------------------------------------
# Hyperparameter search


def _propose_surrogate(space: HyperParamSpace, rng: np.random.Generator,
                       history: list[TrialResult]) -> dict:
    """Pick the candidate that looks most like past good draws.

    A density-ratio surrogate: the top quarter of trials by mean performance
    forms the "good" set; 24 random candidates are ranked by the ratio of
    smoothed likelihoods under good versus remaining draws.
    """
    if len(history) < 5:
        return space.sample(rng)
    ranked = sorted(range(len(history)),
                    key=lambda i: (-history[i].mean_performance, i))
    n_good = max(2, len(history) // 4)
    good = [history[i].spec.hyperparameters for i in ranked[:n_good]]
    rest = [history[i].spec.hyperparameters for i in ranked[n_good:]]

    def likelihood(params: dict, group: list[dict]) -> float:
        value = 1.0
        for name, (lo, hi) in space.int_ranges.items():
            width = max((hi - lo) / 4.0, 1.0)
            deltas = np.array([params[name] - g[name] for g in group], dtype=float)
            value *= float(np.mean(np.exp(-0.5 * (deltas / width) ** 2))) + 1e-9
        for name, options in space.choices.items():
            hits = sum(1 for g in group if g[name] == params[name])
            value *= (hits + 1.0) / (len(group) + len(options))
        return value

    candidates = [space.sample(rng) for _ in range(24)]
    ratios = [likelihood(c, good) / likelihood(c, rest) for c in candidates]
    return candidates[int(np.argmax(ratios))]


def _check_search(kind: str, space: HyperParamSpace, regime: str, optimizer: str,
                  budget: int, k_folds: int) -> None:
    """Raise ``InputError`` for a search argument no search can run with."""
    if space.kind != kind:
        raise InputError(f"a {space.kind} search space cannot search {kind}")
    if regime not in REGIMES:
        raise InputError(f"regime must be one of {REGIMES}, got {regime!r}")
    if optimizer not in OPTIMIZERS:
        raise InputError(f"optimizer must be one of {OPTIMIZERS}")
    if budget < 1:
        raise InputError("budget must be >= 1")
    if k_folds < 2:
        raise InputError("k_folds must be >= 2")


def optimize_hyperparams(kind: str, space: HyperParamSpace,
                         hyper_matrix: EncodedMatrix, regime: str,
                         targets: TargetSpec, budget: int, seed: int,
                         k_folds: int = 5,
                         optimizer: str = OPTIMIZER_RANDOM,
                         propose: Optional[Callable] = None) -> TrialResult:
    """Search the space with cross-validated scoring; return the best trial.

    Each trial trains on k-1 folds and, per validation fold, records the
    regime's target metric and optimal threshold.  Fold thresholds that are
    infeasible (no deployable slip-compliant point) are excluded from the
    threshold mean; a trial whose folds are all infeasible keeps the sentinel
    threshold and is marked undeployable.  Ties on mean performance go to the
    earlier trial.  Fold rows are taken once for the call; kNN trials still
    train per fold, but score from one neighbour-vote table per fold.
    """
    _check_search(kind, space, regime, optimizer, budget, k_folds)
    folds = [(hyper_matrix.take(train), hyper_matrix.take(val)) for train, val
             in stratified_kfold(hyper_matrix, k_folds, derive_seed(seed, "folds"))]
    rng = rng_for(seed, "optimizer")
    if propose is None:
        propose = (_propose_surrogate if optimizer == OPTIMIZER_SURROGATE
                   else lambda sp, generator, history: sp.sample(generator))

    # A kNN fold's standardised rows do not depend on k, so the first trial
    # to score a fold keeps the neighbour votes of every k the space allows.
    k_range = space.int_ranges.get("k")
    knn_votes: list[np.ndarray] = []

    criterion = "youden" if regime == REGIME_STANDARD else "v_at_s"
    history: list[TrialResult] = []
    for trial_index in range(budget):
        params = propose(space, rng, history)
        space.validate(params)
        performances: list[float] = []
        thresholds: list[float] = []
        for fold_index, (train, val) in enumerate(folds):
            spec = ClassifierSpec(
                kind=kind, hyperparameters=params,
                seed=derive_seed(seed, "trial", trial_index, "fold", fold_index))
            model = classifiers.train(spec, train)
            if kind != classifiers.KNN:
                val_scores = classifiers.score(model, val)
            else:
                k = model.state["k"]
                if fold_index == len(knn_votes):
                    k_max = min(k_range[1], train.n_rows) if k_range else k
                    knn_votes.append(classifiers._knn_vote_table(model.state, val.X, k_max))
                val_scores = knn_votes[fold_index][:, k - 1]
            curve = sweep_thresholds(val_scores, val.labels)
            performances.append(auc_pr(val_scores, val.labels) if regime == REGIME_STANDARD
                                else constrained_auc(curve, targets))
            thresholds.append(select_threshold(curve, criterion, targets).threshold)
        finite = [t for t in thresholds if math.isfinite(t)]
        trial = TrialResult(
            spec=ClassifierSpec(kind=kind, hyperparameters=params,
                                seed=derive_seed(seed, "final")),
            fold_performances=performances,
            fold_thresholds=thresholds,
            mean_performance=float(np.mean(performances)),
            mean_threshold=(float(np.mean(finite)) if finite
                            else SENTINEL_THRESHOLD),
        )
        history.append(trial)
    return max(history, key=lambda trial: trial.mean_performance)


# ---------------------------------------------------------------------------
# Single-seed workflow


def fit_deployable(hyper_ds: Dataset, kind: str, config: ExperimentConfig,
                   seed: int) -> tuple[TrainedModel, FeatureEncoder, TrialResult]:
    """Model building phase: sees only the hyperparameter rows.

    Fits the feature encoder, runs the hyperparameter search, refits the best
    spec on all hyperparameter rows and freezes the decision threshold.  The
    dummy kind keeps its own majority-class threshold: it predicts the most
    frequent class by definition, so the averaged fold threshold does not
    apply to it.
    """
    encoder = FeatureEncoder().fit(hyper_ds)
    hyper_matrix = encoder.transform(hyper_ds)
    trial = optimize_hyperparams(
        kind, config.space_for(kind), hyper_matrix, config.regime,
        config.targets, config.budget, seed, k_folds=config.k_folds,
        optimizer=config.optimizer)
    model = classifiers.train(trial.spec, hyper_matrix)
    if kind != classifiers.DUMMY:
        model.decision_threshold = trial.mean_threshold
    return model, encoder, trial


def run_single_seed(config: ExperimentConfig, dataset: Dataset, kind: str,
                    seed: int, plan: Optional[SplitPlan] = None) -> RunResult:
    """Full workflow for one seed: split, fit, freeze threshold, evaluate."""
    if plan is None:
        plan = chrono_split(dataset, seed)
    hyper_ds = dataset.take(plan.hyper_indices)
    model, encoder, trial = fit_deployable(hyper_ds, kind, config, seed)

    # Threshold is frozen; only now are evaluation rows touched.
    def evaluate(indices: np.ndarray) -> MetricReport:
        matrix = encoder.transform(dataset, indices=indices)
        return score_report(classifiers.score(model, matrix), matrix.labels,
                            config.targets, threshold=model.decision_threshold)

    return RunResult(
        kind=kind, seed=seed, model=model, trial=trial,
        test_report=evaluate(plan.test_indices),
        slice_reports=[evaluate(idx) for idx in plan.slice_indices],
        undeployable=(kind != classifiers.DUMMY and not trial.deployable),
    )


#: Start method of ``run_multi_seed``'s worker processes; ``None`` takes
#: multiprocessing's default for the platform.
_START_METHOD = None

#: (config, dataset, jobs, next_job) of a worker process, set once when it starts.
_worker_setup: tuple = ()


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _run_job(config: ExperimentConfig, dataset: Dataset, kind: str,
             seed: int) -> RunResult:
    """``run_single_seed`` with any error prefixed by its job as a FalseCallError."""
    try:
        return run_single_seed(config, dataset, kind, seed)
    except FalseCallError as exc:
        raise type(exc)(f"[kind={kind} seed={seed}] {exc}") from exc
    except Exception as exc:
        raise FalseCallError(f"[kind={kind} seed={seed}] {exc}") from exc


def _claim(next_job) -> int:
    """Index of the next job nobody has claimed, from the shared counter."""
    with next_job.get_lock():
        next_job.value += 1
        return next_job.value - 1


def _run_claimed(config: ExperimentConfig, dataset: Dataset, jobs: list,
                 next_job, index: int) -> dict:
    """Run ``jobs[index]`` and then each job claimed from ``next_job``, up to
    the first that fails: {job: RunResult}, without the failed job.

    Jobs are claimed in order, so when one fails every earlier job is
    already claimed; the failure ends the claims of every process, as no
    later job's result is needed.
    """
    results = {}
    while index < len(jobs):
        try:
            results[jobs[index]] = run_single_seed(config, dataset, *jobs[index])
        except Exception:
            next_job.value = len(jobs)
            break
        index = _claim(next_job)
    return results


def _init_worker(config: ExperimentConfig, dataset: Dataset, jobs: list,
                 next_job) -> None:
    """Keep the setup; exit once the parent is gone, as a killed caller never
    tells its workers to stop."""
    global _worker_setup
    _worker_setup = (config, dataset, jobs, next_job)
    import threading
    import time

    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _worker_jobs() -> dict:
    """A worker's completed RunResults, from the jobs it claims."""
    config, dataset, jobs, next_job = _worker_setup
    return _run_claimed(config, dataset, jobs, next_job, _claim(next_job))


def _pooled_results(config: ExperimentConfig, dataset: Dataset,
                    jobs: list) -> dict:
    """The jobs' results from P processes, the calling process among them.

    P is the smaller of the job count and this process's CPUs, and 1 in a
    daemonic process, which may not start children; with P = 1 no pool
    starts and the result is empty.  The caller runs the first job; then
    each process claims the next unclaimed job whenever it is free, so the
    work evens out however long each job takes.  A job that no process
    completed, whether it failed or was lost with its worker, is missing
    from the result.  Once a job fails or the caller is interrupted, nobody
    claims another job, so the caller waits for at most one job per worker.
    """
    n_procs = min(len(jobs), _cpu_count())
    if n_procs < 2:
        return {}
    import multiprocessing
    if multiprocessing.current_process().daemon:
        return {}
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_START_METHOD)
    next_job = context.Value("i", 1)  # job 0 is the caller's
    with ProcessPoolExecutor(n_procs - 1, mp_context=context,
                             initializer=_init_worker,
                             initargs=(config, dataset, jobs, next_job)) as pool:
        futures = [pool.submit(_worker_jobs) for _ in range(n_procs - 1)]
        try:
            results = _run_claimed(config, dataset, jobs, next_job, 0)
        finally:  # also on Ctrl-C: the workers stop after their current job
            next_job.value = len(jobs)
        for future in futures:
            try:
                results.update(future.result())
            except Exception:  # a lost worker or an unpicklable result:
                pass           # run_multi_seed runs its jobs again
    return results


def run_multi_seed(config: ExperimentConfig, dataset: Dataset) -> dict:
    """Independent runs per seed and kind, aggregated to mean and deviation.

    The (kind, seed) jobs run in several processes when there are CPUs for
    them (see ``_pooled_results``); any job without a result is run here.
    Aggregation follows (kind, seed) order, so the first failing job raises,
    and the aggregates do not depend on the number of processes.
    """
    results = _pooled_results(config, dataset, [
        (kind, seed) for kind in config.model_kinds for seed in config.seeds])
    aggregates: dict[str, SeedAggregate] = {}
    for kind in config.model_kinds:
        reports = {name: [] for name in EVAL_SETS}
        reference_curve = None
        reference_seed = None
        undeployable = []
        for seed in config.seeds:
            run = results.pop((kind, seed), None) or _run_job(config, dataset, kind, seed)
            if reference_curve is None and run.test_report.curve is not None:
                reference_curve = run.test_report.curve
                reference_seed = seed
            for name, report in zip(EVAL_SETS, [run.test_report, *run.slice_reports],
                                    strict=True):
                report.curve = None  # only the reference curve is kept
                reports[name].append(report)
            if run.undeployable:
                undeployable.append(seed)
        aggregates[kind] = SeedAggregate(
            kind=kind, seeds=tuple(config.seeds), reports=reports,
            reference_curve=reference_curve, reference_seed=reference_seed,
            undeployable_seeds=tuple(undeployable))
    return aggregates


def verdict(aggregate: SeedAggregate, targets: TargetSpec) -> dict:
    """Success call for one model: mean test cv must reach the volume target.

    Also counts how many individual seeds pass, since a high deviation can
    hide seeds that miss the targets.
    """
    mean_cv, std_cv, n = aggregate.mean_std("test", "cv")
    per_seed = [r.cv for r in aggregate.reports["test"]]
    passes = sum(1 for value in per_seed
                 if value is not None and value >= targets.v_target)
    passed = mean_cv is not None and mean_cv >= targets.v_target
    return {"kind": aggregate.kind, "passed": passed, "mean_cv": mean_cv,
            "std_cv": std_cv, "seeds_passing": passes,
            "seeds_total": len(aggregate.seeds), "n_defined": n}


# ---------------------------------------------------------------------------
# External score evaluation


@dataclass
class ExternalEvaluation:
    report: MetricReport
    slice_reports: Optional[list] = None


def evaluate_external(path, targets: TargetSpec,
                      threshold: Optional[float] = None,
                      n_slices: Optional[int] = None) -> ExternalEvaluation:
    """Evaluate any exported score/label file with the full metric set.

    Threshold-dependent metrics appear only when a threshold was supplied
    (it must come from knowledge available before these rows).  With
    ``n_slices`` and a timestamp column, rows are also cut chronologically
    into that many contiguous slices and reported per slice.
    """
    scores, labels, stamps = read_scores_csv(path)
    report = score_report(scores, labels, targets, threshold=threshold)
    slice_reports = None
    if n_slices is not None:
        if n_slices < 2:
            raise InputError("n_slices must be >= 2")
        if stamps is None:
            raise InputError("slice-wise evaluation needs a timestamp column")
        if n_slices > scores.size:
            raise InputError(f"n_slices={n_slices} exceeds the {scores.size} rows")
        order = np.argsort(stamps, kind="stable")
        slice_reports = [
            score_report(scores[chunk], labels[chunk], targets, threshold=threshold)
            for chunk in np.array_split(order, n_slices)]
    return ExternalEvaluation(report=report, slice_reports=slice_reports)
