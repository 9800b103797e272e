"""Randomised checks against reference implementations.

score_report's curve metrics are checked against brute force, and forest
training against the per-node argsort grower in ``reference_forest``.
"""

import numpy as np
import pytest

from falsecall.classifiers import (BALANCED_RANDOM_FOREST, RANDOM_FOREST,
                                   ClassifierSpec, _train_forest)
from falsecall.curves import select_threshold, sweep_thresholds
from falsecall.experiment import score_report
from falsecall.metrics import TargetSpec
from tests.reference_forest import reference_train_forest
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


#: 1+eps and 1+2eps: their midpoint rounds up to 1+2eps, so a split between
#: them sends both values left and leaves the right child empty.
ADJACENT = (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0))


@st.composite
def forest_cases(draw):
    """Both forest kinds, every subsample mode, tied, free and adjacent columns.

    Free values are float32, whose midpoints float64 holds exactly.  A split
    on the adjacent column changes nothing, so it recurs at the child: cases
    with that column get a finite max_depth, since without one both growers
    recurse until Python's recursion limit.
    """
    n = draw(st.integers(2, 50))
    columns = []
    adjacent = False
    for _ in range(draw(st.integers(1, 5))):
        column = draw(st.sampled_from(["tied", "free", "adjacent"]))
        if column == "tied":
            levels = draw(st.integers(1, 4))
            values = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        elif column == "free":
            values = draw(st.lists(st.floats(-10, 10, width=32), min_size=n, max_size=n))
        else:
            adjacent = True
            values = [ADJACENT[b] for b in
                      draw(st.lists(st.booleans(), min_size=n, max_size=n))]
        columns.append(np.array(values, dtype=float))
    labels = np.zeros(n, dtype=np.int64)
    labels[draw(st.permutations(range(n)))[:draw(st.integers(1, n - 1))]] = 1
    depths = st.integers(1, 8)
    params = {"n_trees": draw(st.integers(1, 4)),
              "max_depth": draw(depths if adjacent else st.none() | depths),
              "min_leaf": draw(st.integers(1, 20)),
              "feature_subsample": draw(st.sampled_from(["sqrt", "log2", "all"]))}
    kind = draw(st.sampled_from([RANDOM_FOREST, BALANCED_RANDOM_FOREST]))
    return kind, params, draw(st.integers(0, 2**32)), np.column_stack(columns), labels


_ADJACENT_ONLY = (RANDOM_FOREST,
                  {"n_trees": 3, "max_depth": 4, "min_leaf": 1,
                   "feature_subsample": "all"}, 0,
                  np.array(ADJACENT * 6).reshape(-1, 1),
                  np.array([0, 1] * 6, dtype=np.int64))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.example(_ADJACENT_ONLY)
@hypothesis.given(forest_cases())
def test_presorted_forest_equals_reference_grower(case):
    kind, params, seed, X, y = case
    state = _train_forest(ClassifierSpec(kind, params, seed), X, y)
    expected = reference_train_forest(kind, params, seed, X, y)
    assert state["bag_positive_counts"] == expected["bag_positive_counts"]
    for tree, reference in zip(state["trees"], expected["trees"], strict=True):
        for key, array in reference.items():
            assert tree[key].dtype == array.dtype
            assert tree[key].tobytes() == array.tobytes(), key
