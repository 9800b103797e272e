"""Randomised checks of score_report's curve metrics against brute force."""

import numpy as np
import pytest

from falsecall.curves import select_threshold, sweep_thresholds
from falsecall.experiment import score_report
from falsecall.metrics import TargetSpec
from tests.test_curves import (oracle_auc_pr, oracle_cauc, oracle_points,
                               oracle_v_at_s)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TARGETS = TargetSpec(s_target=0.05, v_target=0.40)


@st.composite
def scored_sets(draw):
    """Both classes; a few score levels (heavy ties) or many; often one defect."""
    n = draw(st.integers(2, 40))
    n_pos = draw(st.one_of(st.just(1), st.integers(1, n - 1)))
    labels = np.zeros(n, dtype=int)
    labels[draw(st.permutations(range(n)))[:n_pos]] = 1
    levels = draw(st.sampled_from([2, 3, 5, 1000]))
    scores = np.array(draw(st.lists(st.integers(0, levels - 1),
                                    min_size=n, max_size=n))) / (levels - 1)
    return scores, labels


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(scored_sets())
def test_score_report_curve_metrics_match_oracles(case):
    scores, labels = case
    report = score_report(scores, labels, TARGETS)
    curve = report.curve

    expected = sweep_thresholds(scores, labels)
    for field in ("thresholds", "v", "s"):
        assert np.array_equal(getattr(curve, field), getattr(expected, field))
    assert sorted(zip(curve.thresholds, curve.v, curve.s)) == sorted(
        oracle_points(scores, labels))

    assert report.auc_pr == pytest.approx(oracle_auc_pr(scores, labels), abs=1e-9)
    v_at_s, _ = oracle_v_at_s(scores, labels, TARGETS.s_target)
    assert report.v_at_s == v_at_s
    assert report.cauc == pytest.approx(oracle_cauc(scores, labels, TARGETS),
                                        abs=1e-6)
    assert select_threshold(curve, "v_at_s", TARGETS).feasible == (v_at_s > 0.0)
