import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from falsecall import dataset, experiment
from falsecall.classifiers import DUMMY, KNN, RANDOM_FOREST, HyperParamSpace
from falsecall.dataset import (NUMERIC, ColumnSpec, Dataset, EncodedMatrix,
                               one_hot_fit_transform)
from falsecall.errors import FalseCallError, IngestionError, InputError
from falsecall.experiment import (REGIME_REQUIREMENT, REGIME_STANDARD,
                                  ExperimentConfig, evaluate_external,
                                  optimize_hyperparams, read_scores_csv,
                                  run_multi_seed, run_single_seed,
                                  score_report, verdict)
from falsecall.metrics import SENTINEL_THRESHOLD, TargetSpec, confusion_counts, \
    constrained_volume
from falsecall.reporting import render_table, dump_json

TARGETS = TargetSpec()


class TwoArgumentError(Exception):
    """An error that cannot be pickled: unpickling calls it with one argument."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def dc_dataset(n=5000, per_half=20, seed=0):
    """Dataset with exactly ``per_half`` defects in each chronological half."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    half = n // 2
    labels[rng.choice(half, per_half, replace=False)] = 1
    labels[half + rng.choice(n - half, per_half, replace=False)] = 1
    return Dataset(timestamps=np.arange(n, dtype=float), labels=labels,
                   columns={"x0": rng.standard_normal(n)},
                   schema=(ColumnSpec("x0", NUMERIC),))


def informative_dataset(n=1200, prevalence=0.1, margin=6.0, seed=0):
    """Stationary, nearly separable data along one feature."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < prevalence).astype(np.int64)
    labels[:2] = [0, 1]
    X = rng.standard_normal((n, 3))
    X[:, 1] += margin * labels
    columns = {f"x{i}": X[:, i] for i in range(3)}
    schema = tuple(ColumnSpec(f"x{i}", NUMERIC) for i in range(3))
    return Dataset(timestamps=np.arange(n, dtype=float), labels=labels,
                   columns=columns, schema=schema)


class TestScoreReport:
    def test_nan_threshold_rejected(self):
        with pytest.raises(InputError, match="threshold must be a number"):
            score_report([0.2, 0.8], [0, 1], TARGETS, threshold=math.nan)

    def test_without_threshold_only_curve_metrics(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        report = score_report(scores, labels, TARGETS)
        assert report.accuracy is None and report.cv is None
        assert report.auc_pr is not None and report.cauc is not None

    def test_threshold_metrics_match_confusion_path(self):
        rng = np.random.default_rng(1)
        scores = rng.random(80)
        labels = rng.integers(0, 2, 80)
        report = score_report(scores, labels, TARGETS, threshold=0.35)
        cc = confusion_counts(scores, labels, 0.35)
        assert report.accuracy == (cc.tp + cc.tn) / cc.total
        assert report.cv == constrained_volume(cc, TARGETS)
        assert report.slip_rate == cc.fn / cc.positives

    def test_v_at_s_dominates_nonnegative_cv(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = 120
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, 12, replace=False)] = 1
            scores = np.clip(0.3 + 0.4 * labels + 0.2 * rng.standard_normal(n),
                             0, 1)
            threshold = float(rng.random())
            report = score_report(scores, labels, TARGETS, threshold=threshold)
            if report.cv is not None and report.cv >= 0:
                assert report.v_at_s >= report.cv

    @pytest.mark.parametrize("scores, labels", [
        ([math.nan, 0.2, 5.0], [0, 0, 0]),
        ([0.1, 0.2, 0.5], [0, 2, 0]),
        ([], []),
    ])
    def test_invalid_single_class_input_rejected(self, scores, labels):
        with pytest.raises(InputError):
            score_report(scores, labels, TARGETS)

    def test_single_class_set_degrades_gracefully(self):
        report = score_report([0.2, 0.4, 0.9], [0, 0, 0], TARGETS, threshold=0.5)
        assert report.auc_pr is None
        assert report.slip_rate is None
        assert report.volume_reduction == 2 / 3


class TestOptimizeHyperparams:
    def _hyper_matrix(self, seed=0):
        ds = informative_dataset(seed=seed)
        matrix, _ = one_hot_fit_transform(ds)
        return matrix

    def test_budget_one_returns_that_trial(self):
        matrix = self._hyper_matrix()
        trial = optimize_hyperparams(KNN, HyperParamSpace.default(KNN), matrix,
                                     REGIME_STANDARD, TARGETS, budget=1, seed=0)
        assert len(trial.fold_performances) == 5
        assert trial.mean_performance == pytest.approx(
            float(np.mean(trial.fold_performances)))

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(InputError, match=r"optimizer must be one of \("):
            optimize_hyperparams(KNN, HyperParamSpace.default(KNN),
                                 self._hyper_matrix(), REGIME_STANDARD, TARGETS,
                                 budget=1, seed=0, optimizer="bogus")

    def test_dummy_is_constant_under_both_regimes(self):
        matrix = self._hyper_matrix()
        space = HyperParamSpace.default(DUMMY)
        aware = optimize_hyperparams(DUMMY, space, matrix, REGIME_REQUIREMENT,
                                     TARGETS, budget=3, seed=0)
        assert aware.fold_performances == [-1.0] * 5
        assert aware.mean_threshold == SENTINEL_THRESHOLD
        assert not aware.deployable
        standard = optimize_hyperparams(DUMMY, space, matrix, REGIME_STANDARD,
                                        TARGETS, budget=3, seed=0)
        prevalence = matrix.labels.mean()
        for p in standard.fold_performances:
            assert p == pytest.approx(prevalence, abs=0.08)

    def test_dominant_trial_wins(self):
        ds = informative_dataset(n=1200, margin=1.0, seed=0)
        matrix, _ = one_hot_fit_transform(ds)
        space = HyperParamSpace.default(KNN)

        def run_one(k):
            return optimize_hyperparams(
                KNN, space, matrix, REGIME_STANDARD, TARGETS, budget=1, seed=0,
                propose=lambda s, r, h: {"k": k})

        weak, strong = run_one(1), run_one(51)
        assert all(b > a for a, b in zip(weak.fold_performances,
                                         strong.fold_performances))

        proposals = iter([{"k": 1}, {"k": 51}])
        trial = optimize_hyperparams(KNN, space, matrix, REGIME_STANDARD,
                                     TARGETS, budget=2, seed=0,
                                     propose=lambda s, r, h: next(proposals))
        assert trial.spec.hyperparameters == {"k": 51}

    def test_mean_threshold_is_mean_of_finite_folds(self):
        matrix = self._hyper_matrix(seed=2)
        trial = optimize_hyperparams(
            RANDOM_FOREST,
            HyperParamSpace.default(RANDOM_FOREST).narrowed(
                n_trees=(10, 20), max_depth=(3, 6)),
            matrix, REGIME_REQUIREMENT, TARGETS, budget=2, seed=1)
        finite = [t for t in trial.fold_thresholds if math.isfinite(t)]
        assert finite, "expected at least one feasible fold threshold"
        assert trial.mean_threshold == pytest.approx(float(np.mean(finite)),
                                                     abs=1e-12)

    def test_surrogate_optimizer_is_deterministic_and_in_range(self):
        matrix = self._hyper_matrix(seed=3)
        space = HyperParamSpace.default(KNN)
        kwargs = dict(regime=REGIME_STANDARD, targets=TARGETS, budget=8, seed=5,
                      optimizer="surrogate")
        a = optimize_hyperparams(KNN, space, matrix, **kwargs)
        b = optimize_hyperparams(KNN, space, matrix, **kwargs)
        assert a.spec.hyperparameters == b.spec.hyperparameters
        space.validate(a.spec.hyperparameters)

    def test_surrogate_proposals_over_a_forest_space(self):
        space = HyperParamSpace.default(RANDOM_FOREST).narrowed(
            n_trees=(10, 30), feature_subsample=("sqrt", "all"))
        rng = np.random.default_rng(0)
        history = []
        for i in range(8):
            params = space.sample(rng)
            history.append(experiment.TrialResult(
                spec=experiment.ClassifierSpec(RANDOM_FOREST, params),
                fold_performances=[], fold_thresholds=[],
                mean_performance=float(params["feature_subsample"] == "all") + i / 100,
                mean_threshold=0.5))

        def proposals(seed):
            generator = np.random.default_rng(seed)
            return [experiment._propose_surrogate(space, generator, history)
                    for _ in range(5)]

        drawn = proposals(1)
        assert drawn == proposals(1)
        for params in drawn:
            space.validate(params)
        assert {params["feature_subsample"] for params in drawn} <= {"sqrt", "all"}

    def test_k_above_the_fold_training_rows_is_rejected_when_drawn(self):
        matrix, _ = one_hot_fit_transform(informative_dataset(n=24, prevalence=0.5))
        space = HyperParamSpace.default(KNN)  # k up to 51, folds train on 12 rows

        def search(*ks):
            proposals = iter({"k": k} for k in ks)
            return optimize_hyperparams(KNN, space, matrix, REGIME_STANDARD,
                                        TARGETS, budget=len(ks), seed=0, k_folds=2,
                                        propose=lambda s, r, h: next(proposals))

        assert search(11, 3).spec.hyperparameters["k"] in (11, 3)
        with pytest.raises(InputError, match=r"k=15 exceeds the 12 training rows"):
            search(3, 15)

    @pytest.mark.parametrize("kind, space", [
        (KNN, HyperParamSpace.default(KNN)),
        (RANDOM_FOREST, HyperParamSpace.default(RANDOM_FOREST).narrowed(n_trees=(10, 12)))])
    def test_folds_are_taken_once_per_search(self, kind, space):
        matrix = self._hyper_matrix()
        real_take = EncodedMatrix.take
        taken = []

        def spy_take(self, indices):
            taken.append(len(indices))
            return real_take(self, indices)

        with mock.patch.object(EncodedMatrix, "take", spy_take):
            optimize_hyperparams(kind, space, matrix, REGIME_STANDARD, TARGETS,
                                 budget=3, seed=0, k_folds=4)
        assert len(taken) == 2 * 4
        assert sum(taken) == 4 * matrix.n_rows

    @pytest.mark.parametrize("bad", [
        {"regime": "bogus"}, {"optimizer": "bogus"}, {"budget": 0}, {"k_folds": 1},
        {"space": HyperParamSpace.default(RANDOM_FOREST)},
    ], ids=["regime", "optimizer", "budget-0", "k_folds-1", "space-of-another-kind"])
    def test_search_rejects_what_the_config_rejects(self, bad):
        kwargs = {"regime": REGIME_STANDARD, "optimizer": "random", "budget": 1,
                  "k_folds": 2, **bad}
        space = kwargs.pop("space", HyperParamSpace.default(KNN))
        with pytest.raises(InputError) as by_config:
            ExperimentConfig(model_kinds=(KNN,), spaces={KNN: space}, **kwargs)
        with pytest.raises(InputError) as by_search:
            optimize_hyperparams(KNN, space, self._hyper_matrix(), targets=TARGETS,
                                 seed=0, **kwargs)
        assert str(by_search.value) == str(by_config.value)

    @pytest.mark.parametrize("spaces, problem", [
        ({"bogus": HyperParamSpace.default(KNN)}, "spaces: unknown classifier kind 'bogus'"),
        ({"bogus": 1}, "spaces: unknown classifier kind 'bogus'"),
        ({KNN: "x"}, "spaces['knn'] must be a HyperParamSpace, got str"),
        ({RANDOM_FOREST: None}, "spaces['random_forest'] must be a HyperParamSpace, "
                                "got NoneType"),
    ], ids=["unknown-kind", "unknown-kind-not-a-space", "not-a-space",
            "not-a-space-of-a-kind-not-searched"])
    def test_config_rejects_spaces_it_cannot_search(self, spaces, problem):
        with pytest.raises(InputError) as info:
            ExperimentConfig(model_kinds=(KNN,), spaces=spaces)
        assert str(info.value) == problem

    def test_config_keeps_spaces_of_kinds_it_does_not_search(self):
        forest = HyperParamSpace.default(RANDOM_FOREST).narrowed(n_trees=(10, 12))
        config = ExperimentConfig(model_kinds=(KNN,), spaces={RANDOM_FOREST: forest})
        assert config.space_for(RANDOM_FOREST) is forest
        assert config.space_for(KNN) == HyperParamSpace.default(KNN)

    def test_knn_space_without_k_range_searches_default_k(self):
        matrix = self._hyper_matrix()
        kwargs = dict(regime=REGIME_REQUIREMENT, targets=TARGETS, seed=4)
        bare = optimize_hyperparams(KNN, HyperParamSpace(kind=KNN), matrix,
                                    budget=2, **kwargs)
        five = optimize_hyperparams(KNN, HyperParamSpace.default(KNN).narrowed(k=(5, 5)),
                                    matrix, budget=1, **kwargs)
        assert bare.spec.hyperparameters == {}
        assert bare.fold_performances == five.fold_performances
        assert bare.fold_thresholds == five.fold_thresholds


class TestRunSingleSeed:
    def test_dummy_reference_row(self):
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=1)
        run = run_single_seed(config, dc_dataset(), DUMMY, seed=0)
        report = run.test_report
        assert report.accuracy == pytest.approx(0.992, abs=5e-4)
        assert report.f1 == 0.0
        assert report.youden_at_threshold == 0.0
        assert report.youden_score == 0.0
        assert report.v_at_s == 0.0
        assert report.cv == pytest.approx(-0.99)
        assert report.cauc == -1.0
        assert run.model.decision_threshold == SENTINEL_THRESHOLD  # majority class 0

    def test_dummy_row_holds_in_standard_regime_too(self):
        config = ExperimentConfig(model_kinds=(DUMMY,), regime=REGIME_STANDARD,
                                  budget=1, n_seeds=1)
        run = run_single_seed(config, dc_dataset(seed=5), DUMMY, seed=3)
        assert run.test_report.accuracy == pytest.approx(0.992, abs=5e-4)
        assert run.test_report.cv == pytest.approx(-0.99)

    def test_separable_knn_meets_targets_everywhere(self):
        config = ExperimentConfig(
            model_kinds=(KNN,), budget=3, n_seeds=1,
            spaces={KNN: HyperParamSpace.default(KNN).narrowed(k=(1, 3))})
        run = run_single_seed(config, informative_dataset(n=1600, margin=8.0,
                                                          seed=4), KNN, seed=0)
        for report in [run.test_report] + run.slice_reports:
            assert report.slip_rate <= TARGETS.s_target
            assert report.volume_reduction >= TARGETS.v_target

    def test_five_slices_reported(self):
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=1)
        run = run_single_seed(config, dc_dataset(), DUMMY, seed=0)
        assert len(run.slice_reports) == 5
        for report in run.slice_reports:
            assert report.n_rows == 500


class TestRunMultiSeed:
    def test_dummy_has_zero_deviation(self):
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=4)
        aggregates = run_multi_seed(config, dc_dataset())
        aggregate = aggregates[DUMMY]
        for eval_set in aggregate.reports:
            for metric in ("accuracy", "cv", "cauc", "v_at_s"):
                mean, std, n = aggregate.mean_std(eval_set, metric)
                assert n == 4
                assert std == 0.0

    def test_single_seed_mean_equals_run(self):
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=1)
        aggregates = run_multi_seed(config, dc_dataset())
        mean, std, n = aggregates[DUMMY].mean_std("test", "accuracy")
        assert (std, n) == (0.0, 1)
        assert mean == pytest.approx(0.992, abs=5e-4)

    def test_reproducible_bit_for_bit(self):
        config = ExperimentConfig(
            model_kinds=(DUMMY, KNN), budget=2, n_seeds=2,
            spaces={KNN: HyperParamSpace.default(KNN).narrowed(k=(1, 9))})
        ds = informative_dataset(n=900, seed=6)
        first = render_table(run_multi_seed(config, ds))
        second = render_table(run_multi_seed(config, ds))
        assert dump_json(first[1]) == dump_json(second[1])
        assert first[0] == second[0]

    def test_failed_seed_is_identified(self):
        # 8 positives in the first half: split infeasible
        ds = dc_dataset(n=400, per_half=8)
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=1)
        with pytest.raises(InputError, match="seed=0"):
            run_multi_seed(config, ds)

    def test_foreign_error_wrapped_with_cause(self, monkeypatch):
        def failing_run(*args):
            raise TwoArgumentError(7, "disk full")

        monkeypatch.setattr(experiment, "run_single_seed", failing_run)
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=1)
        with pytest.raises(FalseCallError,
                           match=r"\[kind=dummy seed=\d+\] 7: disk full") as info:
            run_multi_seed(config, dc_dataset())
        assert isinstance(info.value.__cause__, TwoArgumentError)

    def test_verdict_fails_dummy(self):
        config = ExperimentConfig(model_kinds=(DUMMY,), budget=1, n_seeds=2)
        aggregates = run_multi_seed(config, dc_dataset())
        entry = verdict(aggregates[DUMMY], TARGETS)
        assert not entry["passed"]
        assert entry["mean_cv"] == pytest.approx(-0.99)
        assert entry["seeds_passing"] == 0

    def test_uninformative_forest_seeds_are_undeployable(self):
        # A constant feature ties every score, so no fold has a deployable
        # slip-compliant threshold and each seed keeps the sentinel.
        rng = np.random.default_rng(0)
        labels = (rng.random(400) < 0.1).astype(np.int64)
        ds = Dataset(timestamps=np.arange(400, dtype=float), labels=labels,
                     columns={"x0": np.zeros(400)}, schema=(ColumnSpec("x0", NUMERIC),))
        config = ExperimentConfig(model_kinds=(RANDOM_FOREST,), budget=2, n_seeds=2)
        aggregate = run_multi_seed(config, ds)[RANDOM_FOREST]
        assert aggregate.undeployable_seeds == (0, 1)
        assert aggregate.mean_std("test", "cv")[0] == pytest.approx(TARGETS.s_target - 1)
        assert verdict(aggregate, TARGETS)["passed"] is False


POOL_CONFIGS = {
    "forest": ExperimentConfig(
        model_kinds=(RANDOM_FOREST,), budget=2, n_seeds=3,
        spaces={RANDOM_FOREST: HyperParamSpace.default(RANDOM_FOREST).narrowed(
            n_trees=(10, 12), max_depth=(3, 5))}),
    "knn": ExperimentConfig(
        model_kinds=(KNN,), budget=2, n_seeds=3,
        spaces={KNN: HyperParamSpace.default(KNN).narrowed(k=(1, 9))}),
    "dummy-knn": ExperimentConfig(
        model_kinds=(DUMMY, KNN), budget=2, n_seeds=2,
        spaces={KNN: HyperParamSpace.default(KNN).narrowed(k=(1, 9))}),
}


def pool_dataset():
    return informative_dataset(n=900, margin=2.0, seed=6)


def aggregate_facts(aggregates):
    """Comparable content of run_multi_seed's result and its table.json bytes."""
    facts = {}
    for kind, aggregate in aggregates.items():
        curve = aggregate.reference_curve
        facts[kind] = (dataclasses.replace(aggregate, reference_curve=None),
                       None if curve is None else
                       [column.tobytes() for column in (curve.thresholds, curve.v, curve.s)])
    return facts, dump_json(render_table(aggregates)[1])


@pytest.fixture
def forked_workers(monkeypatch):
    """Fork the pool's workers, so that the test's patches reach them: a
    forkserver worker (Python 3.14's default on Linux) imports falsecall afresh."""
    monkeypatch.setattr(experiment, "_START_METHOD", "fork")


def run_with_cpus(monkeypatch, cpus, config, ds):
    monkeypatch.setattr(experiment, "_cpu_count", lambda: cpus)
    return run_multi_seed(config, ds)


class TestJobPool:
    """run_multi_seed's jobs in P = min(jobs, CPUs) processes, the caller among them."""

    @pytest.mark.parametrize("name", sorted(POOL_CONFIGS))
    def test_results_do_not_depend_on_the_process_count(self, monkeypatch, name):
        ds = pool_dataset()
        first, *others = [aggregate_facts(run_with_cpus(monkeypatch, cpus,
                                                        POOL_CONFIGS[name], ds))
                          for cpus in (1, 2, 3)]
        for other in others:
            assert other == first
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, n_seeds, expected", [
        (1, 3, 1), (2, 3, 2), (3, 3, 3), (8, 3, 3), (3, 1, 1)])
    def test_jobs_run_in_p_processes_with_the_caller_among_them(
            self, forked_workers, monkeypatch, tmp_path, cpus, n_seeds, expected):
        log = tmp_path / "pids"
        caller, children = os.getpid(), []
        real = experiment.run_single_seed

        def logged_run(config, dataset, kind, seed):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            if os.getpid() == caller:
                children.append(len(multiprocessing.active_children()))
            time.sleep(0.3)  # long enough for every worker to claim a job
            return real(config, dataset, kind, seed)

        monkeypatch.setattr(experiment, "run_single_seed", logged_run)
        config = dataclasses.replace(POOL_CONFIGS["knn"], n_seeds=n_seeds)
        run_with_cpus(monkeypatch, cpus, config, pool_dataset())
        pids = log.read_text(encoding="utf-8").split()
        assert len(pids) == n_seeds
        assert len(set(pids)) == expected
        assert str(caller) in pids
        assert max(children) == expected - 1

    @pytest.mark.parametrize("failing_seed", [0, 1], ids=["in-caller", "in-worker"])
    def test_failing_seed_raises_as_in_one_process(self, forked_workers, monkeypatch,
                                                   failing_seed):
        real = experiment.run_single_seed

        def failing_run(config, dataset, kind, seed):
            if seed == failing_seed:
                raise TwoArgumentError(7, "disk full")
            return real(config, dataset, kind, seed)

        monkeypatch.setattr(experiment, "run_single_seed", failing_run)
        errors = []
        for cpus in (1, 2):
            with pytest.raises(FalseCallError) as info:
                run_with_cpus(monkeypatch, cpus, POOL_CONFIGS["knn"], pool_dataset())
            errors.append(info.value)
            assert multiprocessing.active_children() == []
        one, two = errors
        assert type(two) is type(one) is FalseCallError
        assert str(two) == str(one) == f"[kind=knn seed={failing_seed}] 7: disk full"
        assert type(two.__cause__) is type(one.__cause__) is TwoArgumentError
        assert str(two.__cause__) == str(one.__cause__)

    def test_a_free_process_takes_the_next_job(self, forked_workers, monkeypatch, tmp_path):
        # Seed 1 runs in the worker while the caller gets through the rest.
        log = tmp_path / "jobs"
        real = experiment.run_single_seed

        def timed_run(config, dataset, kind, seed):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{seed} {os.getpid()}\n")
            time.sleep({0: 0.3, 1: 1.5}.get(seed, 0.0))
            return real(config, dataset, kind, seed)

        monkeypatch.setattr(experiment, "run_single_seed", timed_run)
        config = dataclasses.replace(POOL_CONFIGS["knn"], n_seeds=4)
        run_with_cpus(monkeypatch, 2, config, pool_dataset())
        ran = dict(line.split() for line in log.read_text(encoding="utf-8").splitlines())
        assert sorted(ran) == ["0", "1", "2", "3"]
        assert {seed for seed, pid in ran.items() if pid == str(os.getpid())} == {
            "0", "2", "3"}

    def test_a_failure_in_a_worker_ends_every_process_claims(self, forked_workers,
                                                             monkeypatch, tmp_path):
        log = tmp_path / "seeds"
        real = experiment.run_single_seed

        def failing_run(config, dataset, kind, seed):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{seed}\n")
            if seed == 1:
                raise TwoArgumentError(7, "disk full")
            time.sleep(1.0 if seed == 0 else 0.1)
            return real(config, dataset, kind, seed)

        monkeypatch.setattr(experiment, "run_single_seed", failing_run)
        config = dataclasses.replace(POOL_CONFIGS["knn"], n_seeds=6)
        with pytest.raises(FalseCallError, match=r"^\[kind=knn seed=1\] 7: disk full$"):
            run_with_cpus(monkeypatch, 2, config, pool_dataset())
        # The caller's seed 0, seed 1 in the worker and again in the caller.
        assert sorted(log.read_text(encoding="utf-8").split()) == ["0", "1", "1"]
        assert multiprocessing.active_children() == []

    def test_a_failure_in_the_caller_runs_again_there(self, forked_workers, monkeypatch,
                                                      tmp_path):
        # Seed 0 fails in the caller once the worker has claimed seed 1; the
        # caller keeps no error, so it runs seed 0 again to raise it.
        log = tmp_path / "seeds"
        real = experiment.run_single_seed

        def failing_run(config, dataset, kind, seed):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{seed}\n")
            if seed == 0:
                time.sleep(0.5)
                raise TwoArgumentError(7, "disk full")
            return real(config, dataset, kind, seed)

        monkeypatch.setattr(experiment, "run_single_seed", failing_run)
        config = dataclasses.replace(POOL_CONFIGS["knn"], n_seeds=2)
        with pytest.raises(FalseCallError, match=r"^\[kind=knn seed=0\] 7: disk full$"):
            run_with_cpus(monkeypatch, 2, config, pool_dataset())
        assert sorted(log.read_text(encoding="utf-8").split()) == ["0", "0", "1"]
        assert multiprocessing.active_children() == []

    def test_jobs_of_a_lost_worker_run_in_the_caller(self, forked_workers, monkeypatch):
        caller = os.getpid()
        real = experiment.run_single_seed

        def dying_run(config, dataset, kind, seed):
            if os.getpid() != caller:
                os._exit(1)
            return real(config, dataset, kind, seed)

        config, ds = POOL_CONFIGS["knn"], pool_dataset()
        expected = aggregate_facts(run_with_cpus(monkeypatch, 1, config, ds))
        monkeypatch.setattr(experiment, "run_single_seed", dying_run)
        assert aggregate_facts(run_with_cpus(monkeypatch, 3, config, ds)) == expected
        assert multiprocessing.active_children() == []

    def test_spawned_workers_give_the_forked_results(self, monkeypatch):
        config, ds = POOL_CONFIGS["forest"], pool_dataset()
        forked = aggregate_facts(run_with_cpus(monkeypatch, 2, config, ds))
        monkeypatch.setattr(experiment, "_START_METHOD", "spawn")
        assert aggregate_facts(run_with_cpus(monkeypatch, 2, config, ds)) == forked
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_exit_when_the_caller_is_killed(self):
        script = ("import os, sys, time\n"
                  "from falsecall import experiment\n"
                  "def slow_run(config, dataset, kind, seed):\n"
                  "    print(os.getpid(), flush=True)\n"
                  "    time.sleep(60)\n"
                  "experiment.run_single_seed = slow_run\n"
                  "experiment._cpu_count = lambda: 2\n"
                  "experiment._START_METHOD = 'fork'\n"
                  "experiment.run_multi_seed(experiment.ExperimentConfig(n_seeds=2), None)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        caller = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)

        def running(pid):  # neither gone nor a zombie
            try:
                with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                    return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        pids = {int(caller.stdout.readline()) for _ in range(2)}
        (worker,) = pids - {caller.pid}
        caller.kill()
        caller.wait()
        caller.stdout.close()
        try:
            deadline = time.monotonic() + 10
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not running(worker)
        finally:
            if running(worker):
                os.kill(worker, signal.SIGKILL)

    def test_interrupted_caller_waits_for_one_job_per_worker(self):
        # SIGINT to the caller alone; a terminal's Ctrl-C also reaches the workers.
        script = ("import os, time\n"
                  "from falsecall import experiment\n"
                  "def slow_run(config, dataset, kind, seed):\n"
                  "    print(seed, flush=True)\n"
                  "    time.sleep(2)\n"
                  "experiment.run_single_seed = slow_run\n"
                  "experiment._cpu_count = lambda: 2\n"
                  "experiment._START_METHOD = 'fork'\n"
                  "experiment.run_multi_seed(experiment.ExperimentConfig(n_seeds=6), None)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        caller = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            started = [caller.stdout.readline().strip() for _ in range(2)]
            caller.send_signal(signal.SIGINT)
            rest, errors = caller.communicate(timeout=30)
        finally:
            caller.kill()
        assert "KeyboardInterrupt" in errors
        assert sorted(started) == ["0", "1"] and rest == ""

    def test_daemonic_caller_runs_in_process(self, monkeypatch):
        config, ds = POOL_CONFIGS["knn"], pool_dataset()
        monkeypatch.setattr(experiment, "_cpu_count", lambda: 2)
        # A pool worker is daemonic; starting a child from it would raise.
        with multiprocessing.get_context("fork").Pool(1) as pool:
            aggregates = pool.apply(run_multi_seed, (config, ds))
        assert aggregate_facts(aggregates) == aggregate_facts(run_multi_seed(config, ds))


class TestEvaluateExternal:
    def _write(self, tmp_path, rows, header="score,label"):
        path = tmp_path / "scores.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def test_perfect_scores(self, tmp_path):
        rows = ["0.9,1", "0.8,1", "0.1,0", "0.2,0", "0.05,0"]
        result = evaluate_external(self._write(tmp_path, rows), TARGETS)
        assert result.report.v_at_s == 1.0
        assert result.report.cauc == pytest.approx(1.0)
        assert result.report.auc_pr == 1.0
        assert result.report.accuracy is None

    def test_constant_scores_match_reject_nothing_row(self, tmp_path):
        rows = [f"0.0,{1 if i < 1 else 0}" for i in range(100)]
        result = evaluate_external(self._write(tmp_path, rows), TARGETS,
                                   threshold=SENTINEL_THRESHOLD)
        assert result.report.v_at_s == 0.0
        assert result.report.cauc == -1.0
        assert result.report.cv == pytest.approx(-0.99)

    def test_supplied_threshold_consistent_with_confusion(self, tmp_path):
        rng = np.random.default_rng(3)
        scores = rng.random(60).round(3)
        labels = rng.integers(0, 2, 60)
        rows = [f"{s},{l}" for s, l in zip(scores, labels)]
        result = evaluate_external(self._write(tmp_path, rows), TARGETS,
                                   threshold=0.5)
        cc = confusion_counts(scores, labels, 0.5)
        assert result.report.cv == constrained_volume(cc, TARGETS)

    def test_slice_mode_needs_timestamp(self, tmp_path):
        rows = ["0.9,1", "0.1,0"]
        with pytest.raises(InputError):
            evaluate_external(self._write(tmp_path, rows), TARGETS, n_slices=2)

    def test_slices_by_timestamp(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [f"{rng.random():.3f},{int(rng.random() < 0.3)},{i}"
                for i in range(40)]
        path = self._write(tmp_path, rows, header="score,label,timestamp")
        result = evaluate_external(path, TARGETS, n_slices=4)
        assert len(result.slice_reports) == 4
        assert sum(r.n_rows for r in result.slice_reports) == 40

    def test_malformed_file_reports_lines(self, tmp_path):
        path = self._write(tmp_path, ["0.5,1", "oops,0", "1.3,1"])
        with pytest.raises(IngestionError, match="line 3"):
            evaluate_external(path, TARGETS)

    @pytest.mark.parametrize("rows", [
        ["0.9,1", "0.1,0", "0.3,0", ""],
        ["0.9,1", "", "0.1,0", "", "", "0.3,0"],
    ], ids=["trailing", "mid-file"])
    def test_blank_lines_are_skipped(self, tmp_path, rows):
        scores, labels, _ = read_scores_csv(self._write(tmp_path, rows))
        assert scores.tolist() == [0.9, 0.1, 0.3]
        assert labels.tolist() == [1, 0, 0]

    def test_lines_after_a_blank_line_keep_their_numbers(self, tmp_path):
        path = self._write(tmp_path, ["0.9,1", "", "0.1,0", "oops,0", "0.2"])
        with pytest.raises(IngestionError) as info:
            read_scores_csv(path)
        assert str(info.value) == (
            f"{path}: line 5: could not convert string to float: 'oops'; "
            "line 6: expected 2 fields, got 1")

    def test_lines_after_a_multiline_field_keep_their_numbers(self, tmp_path):
        path = self._write(tmp_path, ["0.5,1", '"0.2', '",0', "0.3,0", "bad,1"])
        with pytest.raises(IngestionError) as info:
            read_scores_csv(path)
        assert str(info.value) == (
            f"{path}: line 6: could not convert string to float: 'bad'")

    @pytest.mark.parametrize("rows, message", [
        (["0.5,1"] * 5 + ["0.5,1,7", "0.5,1"], "line 7: expected 2 fields, got 3"),
        (["0.5,1"] * 7 + ["0.\udcff,1"],
         "'utf-8' codec can't decode byte 0xff in position 56: invalid start byte"),
        (["0.5,1"] * 5 + ["0.5,2", "0.5,1"], "line 7: label 2 not in {0, 1}"),
    ], ids=["field-count", "non-utf8", "label-2"])
    def test_later_block_problems_keep_row_reader_messages(self, tmp_path, rows,
                                                           message):
        path = tmp_path / "scores.csv"
        path.write_bytes("\n".join(["score,label", *rows, ""]).encode(
            errors="surrogateescape"))
        with pytest.raises(IngestionError) as info:
            read_scores_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_unquoted_file_never_enters_the_row_loop(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [f"{s:.3f},{int(s > 0.99)},{t}" for t, s in enumerate(rng.random(100_000))]
        path = tmp_path / "scores.csv"
        for end in ("\n", "\r\n"):
            path.write_text(end.join(["score,label,timestamp", *rows, ""]), newline="")
            expected = dataset._read_score_rows(path)
            with mock.patch.object(dataset, "_read_score_rows",
                                   wraps=dataset._read_score_rows) as row_reader:
                columns = read_scores_csv(path)
            row_reader.assert_not_called()
            for column, reference in zip(columns, expected, strict=True):
                assert column.dtype == reference.dtype
                assert column.tobytes() == reference.tobytes()

    def test_non_finite_timestamps_are_reported_with_their_lines(self, tmp_path):
        rows = ["0.9,1,1", "0.1,0,nan", "0.3,0,2", "0.2,1,inf", "0.4,0,-inf", "0.5,0,3"]
        path = self._write(tmp_path, rows, header="score,label,timestamp")
        with pytest.raises(IngestionError) as info:
            read_scores_csv(path)
        assert str(info.value) == (
            f"{path}: line 3: non-finite timestamp 'nan'; "
            "line 5: non-finite timestamp 'inf'; line 6: non-finite timestamp '-inf'")

    def test_missing_columns_rejected(self, tmp_path):
        path = self._write(tmp_path, ["0.5"], header="score")
        with pytest.raises(IngestionError):
            evaluate_external(path, TARGETS)
