import numpy as np
import pytest

from falsecall.errors import InputError, UndefinedRateError
from falsecall.metrics import (ConfusionCounts, TargetSpec, analytic_metrics,
                               confusion_counts, constrained_volume,
                               metric_surface, slip_rate, standard_metrics,
                               validated_inputs, volume_reduction, youden_index)

SIX_SCORES = [0.9, 0.4, 0.8, 0.3, 0.2, 0.1]
SIX_LABELS = [1, 1, 0, 0, 0, 0]
TARGETS = TargetSpec(s_target=0.01, v_target=0.40)


#: Label arrays of every dtype the label check may meet, and whether each
#: element is 0 or 1.
LABEL_DTYPES = {
    "int64": (np.array([0, 1, 2, -1]), [True, True, False, False]),
    "uint8": (np.array([0, 1, 255], dtype=np.uint8), [True, True, False]),
    "int8": (np.array([0, 1, -1], dtype=np.int8), [True, True, False]),
    "bool": (np.array([False, True]), [True, True]),
    "float64-nan": (np.array([0.0, 1.0, 0.5, np.nan]), [True, True, False, False]),
    "complex": (np.array([0, 1 + 0j, 1j]), [True, True, False]),
    "object": (np.array([0, 1, "1", None], dtype=object), [True, True, False, False]),
    "str": (np.array(["0", "1"]), [False, False]),
}


#: Before 1.25, numpy warns when comparing a str array with an int and
#: returns one scalar; the check still rejects such labels, with a warning.
STR_COMPARISON_WARNS = np.lib.NumpyVersion(np.__version__) < "1.25.0"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.skipif(
        name == "str" and STR_COMPARISON_WARNS, reason="numpy < 1.25 warns"))
    for name in sorted(LABEL_DTYPES)])
def test_label_check_accepts_what_isin_accepts(name):
    labels, mask = LABEL_DTYPES[name]
    assert np.isin(labels, (0, 1)).tolist() == mask
    scores = np.full(labels.size, 0.5)
    if all(mask):
        assert validated_inputs(scores, labels)[1] is labels
    else:
        with pytest.raises(InputError, match="labels must be 0 or 1"):
            validated_inputs(scores, labels)
    for index, accepted in enumerate(mask):
        if accepted:
            continue
        keep = [i for i, ok in enumerate(mask) if ok or i == index]
        with pytest.raises(InputError, match="labels must be 0 or 1"):
            validated_inputs(scores[keep], labels[keep])


class TestConfusionCounts:
    def test_six_sample_at_half(self):
        cc = confusion_counts(SIX_SCORES, SIX_LABELS, 0.5)
        assert (cc.tp, cc.fn, cc.fp, cc.tn) == (1, 1, 1, 3)

    def test_threshold_zero_predicts_everything_positive(self):
        cc = confusion_counts(SIX_SCORES, SIX_LABELS, 0.0)
        assert cc.fp == 4 and cc.tn == 0 and cc.fn == 0

    def test_constant_zero_scores_above_zero_threshold_all_negative(self):
        cc = confusion_counts([0.0] * 6, SIX_LABELS, 0.5)
        assert cc.tp == 0 and cc.fp == 0
        assert cc.fn == 2 and cc.tn == 4

    def test_counts_partition_input(self):
        rng = np.random.default_rng(3)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        cc = confusion_counts(scores, labels, 0.3)
        assert cc.total == 40
        assert cc.positives == labels.sum()

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            confusion_counts([0.1, 0.2], [1], 0.5)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            confusion_counts([], [], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            confusion_counts([0.2, bad, 0.7], [1, 0, 0], 0.5)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InputError, match="threshold must be a number, got nan"):
            confusion_counts([0.1, 0.9], [0, 1], np.nan)

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestBusinessRates:
    def test_volume_reduction_example(self):
        assert volume_reduction(ConfusionCounts(1, 1, 3, 1)) == 0.75

    def test_all_negative_prediction_gives_full_volume(self):
        assert volume_reduction(ConfusionCounts(tp=0, fp=0, tn=992, fn=8)) == 1.0

    def test_volume_requires_negatives(self):
        with pytest.raises(UndefinedRateError):
            volume_reduction(ConfusionCounts(tp=3, fp=0, tn=0, fn=2))

    def test_slip_example(self):
        assert slip_rate(ConfusionCounts(tp=1, fp=1, tn=3, fn=1)) == 0.5

    def test_reject_nothing_slips_everything(self):
        cc = ConfusionCounts(tp=0, fp=0, tn=992, fn=8)
        assert slip_rate(cc) == 1.0
        assert constrained_volume(cc, TARGETS) == pytest.approx(-0.99)

    def test_perfect_classifier_slips_nothing(self):
        assert slip_rate(ConfusionCounts(tp=8, fp=0, tn=992, fn=0)) == 0.0

    def test_slip_requires_positives(self):
        with pytest.raises(UndefinedRateError):
            slip_rate(ConfusionCounts(tp=0, fp=1, tn=3, fn=0))

    def test_rates_are_class_recalls(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            tp, fp, tn, fn = rng.integers(1, 30, 4)
            cc = ConfusionCounts(int(tp), int(fp), int(tn), int(fn))
            assert slip_rate(cc) == pytest.approx(1.0 - cc.tp / cc.positives)
            assert volume_reduction(cc) == pytest.approx(cc.tn / cc.negatives)


class TestStandardMetrics:
    def test_six_sample_values(self):
        m = standard_metrics(ConfusionCounts(1, 1, 3, 1))
        assert m.accuracy == pytest.approx(0.6667, abs=1e-4)
        assert m.precision == 0.5
        assert m.recall_pos == 0.5
        assert m.f1 == 0.5

    def test_all_negative_on_extreme_imbalance(self):
        m = standard_metrics(ConfusionCounts(tp=0, fp=0, tn=992, fn=8))
        assert m.accuracy == pytest.approx(0.992)
        assert m.f1 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            standard_metrics(ConfusionCounts(0, 0, 0, 0))

    def test_recall_needs_positives(self):
        with pytest.raises(UndefinedRateError):
            standard_metrics(ConfusionCounts(tp=0, fp=2, tn=5, fn=0))


class TestYouden:
    def test_six_sample(self):
        assert youden_index(ConfusionCounts(1, 1, 3, 1)) == pytest.approx(0.25)

    def test_reject_nothing_is_zero(self):
        assert youden_index(ConfusionCounts(tp=0, fp=0, tn=992, fn=8)) == 0.0

    def test_perfect_is_one(self):
        assert youden_index(ConfusionCounts(tp=8, fp=0, tn=992, fn=0)) == 1.0

    def test_needs_both_classes(self):
        with pytest.raises(UndefinedRateError):
            youden_index(ConfusionCounts(tp=0, fp=3, tn=4, fn=0))

    def test_depends_only_on_counts(self):
        a = youden_index(ConfusionCounts(2, 6, 14, 3))
        b = youden_index(ConfusionCounts(2, 6, 14, 3))
        assert a == b


class TestConstrainedVolume:
    def test_slip_below_target_returns_volume(self):
        cc = ConfusionCounts(tp=2, fp=1, tn=3, fn=0)
        assert constrained_volume(cc, TARGETS) == 0.75

    def test_slip_above_target_returns_penalty(self):
        cc = ConfusionCounts(tp=1, fp=1, tn=3, fn=1)
        assert constrained_volume(cc, TARGETS) == pytest.approx(-0.49)

    def test_bounds_hold_on_random_counts(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tp, fp, tn, fn = (int(x) for x in rng.integers(1, 40, 4))
            value = constrained_volume(ConfusionCounts(tp, fp, tn, fn), TARGETS)
            assert TARGETS.s_target - 1.0 <= value <= 1.0
            if value < 0:
                assert slip_rate(ConfusionCounts(tp, fp, tn, fn)) > TARGETS.s_target

    def test_target_spec_validation(self):
        with pytest.raises(InputError):
            TargetSpec(s_target=0.0)
        with pytest.raises(InputError):
            TargetSpec(v_target=1.0)


class TestMonotonicity:
    def test_raising_threshold_never_adds_false_positives(self):
        rng = np.random.default_rng(5)
        scores = rng.random(60)
        labels = rng.integers(0, 2, 60)
        thresholds = np.sort(np.unique(np.append(scores, [0.0, 1.0, np.inf])))
        previous = None
        for t in thresholds:
            cc = confusion_counts(scores, labels, float(t))
            if previous is not None:
                assert cc.fp <= previous.fp
                assert cc.fn >= previous.fn
            previous = cc


class TestMetricSurface:
    def test_reject_nothing_cell_matches_prevalence_complement(self):
        accuracy, f1, _ = analytic_metrics(0.008, s=1.0, v=1.0, targets=TARGETS)
        assert accuracy == pytest.approx(0.992)
        assert f1 == 0.0

    def test_misleading_f1_cell(self):
        accuracy, f1, cv = analytic_metrics(0.01, s=0.011, v=1.0, targets=TARGETS)
        assert f1 == pytest.approx(0.9945, abs=1e-3)
        assert cv == pytest.approx(-0.001, abs=1e-12)
        assert accuracy > 0.98

    def test_perfect_corner(self):
        accuracy, f1, cv = analytic_metrics(0.07, s=0.0, v=1.0, targets=TARGETS)
        assert (accuracy, f1, cv) == (1.0, 1.0, 1.0)

    def test_grid_shape_and_corners(self):
        surface = metric_surface(0.008, 3, TARGETS)
        assert surface.accuracy.shape == (3, 3)
        assert surface.cv[0, 2] == 1.0  # (s=0, v=1)
        assert surface.accuracy[2, 2] == pytest.approx(0.992)

    def test_accuracy_identity_on_grid(self):
        prevalence = 0.013
        surface = metric_surface(prevalence, 21, TARGETS)
        for i, s in enumerate(surface.s_values):
            for j, v in enumerate(surface.v_values):
                expected = prevalence * (1 - s) + (1 - prevalence) * v
                assert abs(surface.accuracy[i, j] - expected) <= 1e-12

    def test_grid_cells_equal_scalar_evaluation(self):
        surface = metric_surface(0.05, 17, TARGETS)
        for i, s in enumerate(surface.s_values):
            for j, v in enumerate(surface.v_values):
                assert analytic_metrics(0.05, float(s), float(v), TARGETS) == (
                    surface.accuracy[i, j], surface.f1[i, j], surface.cv[i, j])

    def test_out_of_range_rate_rejected_in_arrays(self):
        with pytest.raises(InputError, match="1.5"):
            analytic_metrics(0.1, np.array([0.2, 1.5]), 0.5, TARGETS)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(InputError):
            metric_surface(0.01, 1, TARGETS)

    def test_bad_prevalence_rejected(self):
        with pytest.raises(InputError):
            analytic_metrics(0.0, 0.1, 0.5, TARGETS)
