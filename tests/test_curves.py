import numpy as np
import pytest

from falsecall.curves import (auc_pr, best_youden, constrained_auc,
                              constrained_auc_case, select_threshold,
                              sweep_thresholds, volume_at_target_slip)
from falsecall.errors import InputError
from falsecall.metrics import SENTINEL_THRESHOLD, TargetSpec

SIX_SCORES = np.array([0.9, 0.4, 0.8, 0.3, 0.2, 0.1])
SIX_LABELS = np.array([1, 1, 0, 0, 0, 0])
TARGETS = TargetSpec(s_target=0.01, v_target=0.40)


# ---------------------------------------------------------------------------
# Independent oracles: direct per-threshold counting, no shared code with the
# production sweep.


def oracle_points(scores, labels):
    """(threshold, v, s) for every distinct score plus the sentinel."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    thresholds = np.append(np.sort(np.unique(scores)), np.inf)
    positives = labels == 1
    n_pos = positives.sum()
    n_neg = labels.size - n_pos
    rows = []
    for t in thresholds:
        predicted = scores >= t
        fn = int((~predicted & positives).sum())
        tn = int((~predicted & ~positives).sum())
        rows.append((float(t), tn / n_neg, fn / n_pos))
    return rows


def oracle_best_youden(scores, labels):
    best = None
    for t, v, s in oracle_points(scores, labels):
        j = v - s
        if best is None or j > best[0] or (j == best[0] and t < best[1]):
            best = (j, t)
    return best


def oracle_v_at_s(scores, labels, s_target):
    best = None
    for t, v, s in oracle_points(scores, labels):
        if s <= s_target:
            key = (-v, s, t)
            if best is None or key < best[0]:
                best = (key, v, t)
    return (0.0, None) if best is None else (best[1], best[2])


def oracle_auc_pr(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    area = 0.0
    prev_recall = 0.0
    for t in np.sort(np.unique(scores))[::-1]:
        predicted = scores >= t
        tp = int((predicted & (labels == 1)).sum())
        recall = tp / n_pos
        precision = tp / int(predicted.sum())
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def oracle_cauc(scores, labels, targets, n_cells=10_000):
    """Rectangle summation over a fine volume grid aligned with the jumps."""
    pts = oracle_points(scores, labels)
    vs = np.array([p[1] for p in pts])
    ss = np.array([p[2] for p in pts])
    order = np.argsort(vs, kind="stable")
    v_sorted = vs[order]
    # best achievable (1 - s) among points delivering volume >= x
    suffix_best = np.maximum.accumulate((1.0 - ss)[order][::-1])[::-1]

    st, vt = targets.s_target, targets.v_target
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, n_cells + 1),
                                      v_sorted, [vt]]))
    heights = suffix_best[np.searchsorted(v_sorted, edges[1:], side="left")]
    widths = np.diff(edges)

    if np.any((ss <= st) & (vs >= vt)):
        right_of_target = edges[1:] > vt
        area = np.sum(widths[right_of_target]
                      * np.maximum(0.0, heights[right_of_target] - (1.0 - st)))
        return float(area / ((1.0 - vt) * st))
    right_of_target = edges[1:] > vt
    excess = np.sum(widths[right_of_target]
                    * np.maximum(0.0, heights[right_of_target] - (1.0 - st)))
    if excess > 0:
        return 0.0
    left = edges[1:] <= vt
    clipped = np.sum(widths[left] * np.minimum(heights[left], 1.0 - st))
    return float((clipped - vt * (1.0 - st)) / (vt * (1.0 - st)))


def random_case(seed, n_max=200, prevalences=(0.01, 0.05, 0.20)):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, n_max + 1))
    prevalence = prevalences[int(rng.integers(len(prevalences)))]
    labels = np.zeros(n, dtype=int)
    n_pos = max(1, int(round(prevalence * n)))
    labels[rng.choice(n, size=min(n_pos, n - 1), replace=False)] = 1
    kind = rng.integers(3)
    if kind == 0:
        scores = rng.random(n)
    elif kind == 1:  # informative scores
        scores = np.clip(0.25 + 0.5 * labels + 0.3 * rng.standard_normal(n), 0, 1)
    else:  # coarse grid scores with many ties
        scores = rng.integers(0, 5, n) / 4.0
    return scores, labels


# ---------------------------------------------------------------------------


class TestSweep:
    def test_six_sample_candidates_and_points(self):
        curve = sweep_thresholds(SIX_SCORES, SIX_LABELS)
        assert len(curve) == 7
        pairs = set(zip(curve.v, curve.s))
        assert (0.75, 0.0) in pairs
        at = np.nonzero((curve.v == 0.75) & (curve.s == 0.0))[0][0]
        assert curve.thresholds[at] == 0.4

    def test_always_contains_the_extreme_points(self):
        curve = sweep_thresholds(SIX_SCORES, SIX_LABELS)
        pairs = set(zip(curve.v, curve.s))
        assert (0.0, 0.0) in pairs and (1.0, 1.0) in pairs

    def test_constant_scores_two_points(self):
        curve = sweep_thresholds([0.0] * 8, [1, 0, 0, 0, 0, 0, 0, 1])
        assert len(curve) == 2
        assert list(zip(curve.v, curve.s)) == [(0.0, 0.0), (1.0, 1.0)]

    def test_separated_scores_reach_the_perfect_point(self):
        scores = [0.9, 0.8, 0.2, 0.1, 0.05]
        labels = [1, 1, 0, 0, 0]
        curve = sweep_thresholds(scores, labels)
        assert (1.0, 0.0) in set(zip(curve.v, curve.s))

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            sweep_thresholds([0.2, 0.4], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("ranker", [sweep_thresholds, auc_pr])
    def test_non_finite_scores_rejected(self, ranker, bad):
        with pytest.raises(InputError, match="finite"):
            ranker([0.2, bad, 0.7, 0.1], [1, 0, 0, 1])

    def test_matches_oracle_everywhere(self):
        for seed in range(25):
            scores, labels = random_case(seed, n_max=80)
            curve = sweep_thresholds(scores, labels)
            expected = {(v, s) for _, v, s in oracle_points(scores, labels)}
            assert set(zip(curve.v, curve.s)) == expected

    def test_sorted_by_volume_with_monotone_tradeoff(self):
        for seed in range(25):
            scores, labels = random_case(seed, n_max=120)
            curve = sweep_thresholds(scores, labels)
            assert np.all(np.diff(curve.v) >= 0)
            env_v, env_s = curve.envelope()
            assert np.all(np.diff(env_s) >= 0)  # best slip worsens with volume


class TestBestYouden:
    def test_six_sample(self):
        result = best_youden(sweep_thresholds(SIX_SCORES, SIX_LABELS))
        assert result.score == pytest.approx(0.75)
        assert result.threshold == 0.4

    def test_constant_scorer_scores_zero(self):
        curve = sweep_thresholds([0.3] * 10, [1, 0, 0, 0, 0, 0, 0, 0, 0, 1])
        assert best_youden(curve).score == 0.0

    def test_perfect_scores_one(self):
        curve = sweep_thresholds([0.9, 0.1, 0.1], [1, 0, 0])
        assert best_youden(curve).score == 1.0

    def test_matches_exhaustive_scan(self):
        for seed in range(40):
            scores, labels = random_case(seed)
            got = best_youden(sweep_thresholds(scores, labels))
            expected_j, expected_t = oracle_best_youden(scores, labels)
            assert got.score == expected_j
            assert got.threshold == expected_t


class TestVolumeAtTargetSlip:
    def test_six_sample(self):
        result = volume_at_target_slip(sweep_thresholds(SIX_SCORES, SIX_LABELS),
                                       TARGETS)
        assert result.value == 0.75
        assert result.threshold == 0.4

    def test_constant_scorer_only_qualifies_at_zero_volume(self):
        curve = sweep_thresholds([0.5] * 10, [1] + [0] * 9)
        assert volume_at_target_slip(curve, TARGETS).value == 0.0

    def test_perfect_scores_full_volume(self):
        curve = sweep_thresholds([0.9, 0.1, 0.1], [1, 0, 0])
        assert volume_at_target_slip(curve, TARGETS).value == 1.0

    def test_matches_exhaustive_scan(self):
        for seed in range(40):
            scores, labels = random_case(seed)
            curve = sweep_thresholds(scores, labels)
            got = volume_at_target_slip(curve, TARGETS)
            expected_v, expected_t = oracle_v_at_s(scores, labels, TARGETS.s_target)
            assert got.value == expected_v
            assert got.threshold == expected_t

    def test_dominates_every_qualifying_point(self):
        for seed in range(20):
            scores, labels = random_case(seed)
            curve = sweep_thresholds(scores, labels)
            value = volume_at_target_slip(curve, TARGETS).value
            for v, s in zip(curve.v, curve.s):
                if s <= TARGETS.s_target:
                    assert value >= v


class TestAucPr:
    def test_perfectly_separated(self):
        assert auc_pr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_constant_scorer_equals_prevalence(self):
        labels = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert auc_pr([0.4] * 10, labels) == pytest.approx(0.1)

    def test_matches_brute_force(self):
        for seed in range(30):
            scores, labels = random_case(seed, n_max=50)
            assert auc_pr(scores, labels) == pytest.approx(
                oracle_auc_pr(scores, labels), abs=1e-9)

    def test_range(self):
        for seed in range(30):
            scores, labels = random_case(seed, n_max=60)
            assert 0.0 < auc_pr(scores, labels) <= 1.0


class TestConstrainedAuc:
    def test_perfect_classifier_fills_the_zone(self):
        curve = sweep_thresholds([0.9, 0.8, 0.2, 0.1, 0.05], [1, 1, 0, 0, 0])
        value, case = constrained_auc_case(curve, TARGETS)
        assert value == pytest.approx(1.0)
        assert case == 1

    def test_reject_nothing_baseline_scores_minus_one(self):
        curve = sweep_thresholds([0.0] * 10, [1] + [0] * 9)
        value, case = constrained_auc_case(curve, TARGETS)
        assert value == -1.0
        assert case == 3

    def test_matches_grid_oracle(self):
        for seed in range(40):
            scores, labels = random_case(seed)
            curve = sweep_thresholds(scores, labels)
            got = constrained_auc(curve, TARGETS)
            assert got == pytest.approx(oracle_cauc(scores, labels, TARGETS),
                                        abs=1e-6)

    def test_range_and_case_sign_relation(self):
        for seed in range(40):
            scores, labels = random_case(seed)
            curve = sweep_thresholds(scores, labels)
            value, case = constrained_auc_case(curve, TARGETS)
            assert case in (1, 3)
            assert -1.0 <= value <= 1.0
            if case == 1:
                assert value > 0.0
            if case == 3:
                assert value < 0.0

    def test_case_one_iff_target_volume_reachable(self):
        for seed in range(40):
            scores, labels = random_case(seed)
            curve = sweep_thresholds(scores, labels)
            _, case = constrained_auc_case(curve, TARGETS)
            v_at_s = volume_at_target_slip(curve, TARGETS).value
            assert (case == 1) == (v_at_s >= TARGETS.v_target)


class TestSelectThreshold:
    def test_six_sample_youden(self):
        curve = sweep_thresholds(SIX_SCORES, SIX_LABELS)
        assert select_threshold(curve, "youden").threshold == 0.4

    def test_six_sample_v_at_s(self):
        curve = sweep_thresholds(SIX_SCORES, SIX_LABELS)
        choice = select_threshold(curve, "v_at_s", TARGETS)
        assert choice.threshold == 0.4
        assert choice.feasible

    def test_constant_scorer_has_no_feasible_v_at_s_threshold(self):
        curve = sweep_thresholds([0.6] * 10, [1] + [0] * 9)
        choice = select_threshold(curve, "v_at_s", TARGETS)
        assert not choice.feasible
        assert choice.threshold == SENTINEL_THRESHOLD

    def test_unknown_criterion_rejected(self):
        curve = sweep_thresholds(SIX_SCORES, SIX_LABELS)
        with pytest.raises(InputError):
            select_threshold(curve, "acc")


class TestScoreTransformInvariance:
    def transforms(self):
        return [lambda x: 0.3 * x + 0.2, lambda x: x ** 3,
                lambda x: np.expm1(x) / (np.e - 1.0)]

    def test_curve_metrics_survive_monotone_transforms(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n = 60
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, 6, replace=False)] = 1
            scores = rng.integers(0, 100, n) / 99.0  # grid keeps transforms collision-free
            base_curve = sweep_thresholds(scores, labels)
            base = (best_youden(base_curve).score,
                    volume_at_target_slip(base_curve, TARGETS).value,
                    auc_pr(scores, labels),
                    constrained_auc(base_curve, TARGETS))
            for transform in self.transforms():
                moved = transform(scores)
                curve = sweep_thresholds(moved, labels)
                assert best_youden(curve).score == pytest.approx(base[0], abs=1e-12)
                assert volume_at_target_slip(curve, TARGETS).value == pytest.approx(
                    base[1], abs=1e-12)
                assert auc_pr(moved, labels) == pytest.approx(base[2], abs=1e-12)
                assert constrained_auc(curve, TARGETS) == pytest.approx(
                    base[3], abs=1e-12)
