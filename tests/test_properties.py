"""Randomised checks against reference implementations and bad input.

score_report's curve metrics are checked against brute force, the ranking
behind them against the stable argsort in ``reference_ranking``, forest
training against the per-node argsort grower and forest scoring against the
per-tree loop in ``reference_forest``, the kNN neighbour-vote table and
search against the one-``k`` scorer in ``reference_knn``, and the summation
behind kNN distances against ``ndarray.sum``.  The config and score-file
readers are fed near-miss keys, malformed values and arbitrary bytes: they
must either succeed or raise ``InputError``, and the block reader of score
files must match the row reader's arrays or message.
``reporting.dump_json`` must give the bytes of the indented ``json.dumps``,
also of curve points held as columns.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest

from falsecall import classifiers, dataset, experiment
from falsecall.classifiers import (_TREE_ARRAYS, BALANCED_RANDOM_FOREST, KNN,
                                   RANDOM_FOREST, ClassifierSpec,
                                   HyperParamSpace, TrainedModel,
                                   _knn_vote_table, _pairwise_sum,
                                   _train_forest, _train_knn, score)
from falsecall.cli import load_experiment_setup
from falsecall.curves import (_Ranking, _ranked, auc_pr, select_threshold,
                              sweep_thresholds)
from falsecall.dataset import (EncodedMatrix, SyntheticConfig,
                               generate_synthetic, write_csv)
from falsecall.errors import IngestionError, InputError
from falsecall.experiment import (REGIME_REQUIREMENT, REGIME_STANDARD,
                                  ExperimentConfig, optimize_hyperparams,
                                  read_scores_csv, score_report)
from falsecall.metrics import TargetSpec, _json_safe
from falsecall.reporting import dump_json, export_curve
from tests.reference_forest import reference_apply_forest, reference_train_forest
from tests.reference_knn import reference_score_knn
from tests.reference_ranking import reference_ranked
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


@st.composite
def ranking_cases(draw):
    """Random floats, 2-4 tied levels, only +-0.0, +-0.0 with 5e-324, or all
    rows but one tied; often one positive or one negative."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["floats", "levels", "zeros", "subnormal", "all_but_one"]))
    if kind == "floats":
        values = st.floats(allow_nan=False, allow_infinity=False)
    elif kind == "levels":
        values = st.sampled_from(draw(st.lists(st.floats(0, 1), min_size=2, max_size=4,
                                               unique=True)))
    else:
        values = st.sampled_from({"zeros": [0.0, -0.0], "subnormal": [0.0, -0.0, 5e-324],
                                  "all_but_one": [0.5]}[kind])
    scores = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    if kind == "all_but_one":
        scores[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -0.0, 0.25, 1.0]))
    n_pos = draw(st.sampled_from([1, n - 1]) | st.integers(1, n - 1))
    labels = np.zeros(n, dtype=np.int64)
    labels[draw(st.permutations(range(n)))[:n_pos]] = 1
    return scores, labels


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.example((np.array([-0.0, 0.0, 0.5]), np.array([0, 1, 1])))
@hypothesis.example((np.array([0.0, 5e-324, -0.0, 0.0, -0.0]), np.array([1, 0, 0, 1, 0])))
@hypothesis.given(ranking_cases())
def test_value_sort_ranking_equals_stable_argsort(case):
    scores, labels = case
    ranking, expected = _ranked(scores, labels), reference_ranked(scores, labels)
    for name in _Ranking._fields:
        actual, wanted = getattr(ranking, name), getattr(expected, name)
        if isinstance(wanted, np.ndarray):
            assert actual.dtype == wanted.dtype, name
            assert actual.tobytes() == wanted.tobytes(), name
        else:
            assert type(actual) is type(wanted) and actual == wanted, name
    assert ranking.curve().thresholds.tobytes() == expected.curve().thresholds.tobytes()
    assert np.float64(auc_pr(scores, labels)).tobytes() == np.float64(
        expected.auc_pr()).tobytes()


#: 1+eps and 1+2eps: their midpoint rounds up to 1+2eps, so a split at it
#: would send both values left and leave the right child empty.
ADJACENT = (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0))


@st.composite
def forest_cases(draw):
    """Both forest kinds, every subsample mode, tied, free and adjacent columns.

    Free values are float32, whose midpoints float64 holds exactly.  The
    midpoint of the adjacent column's two values rounds up to the larger, so
    both growers cut at the smaller one there.
    """
    n = draw(st.integers(2, 50))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        column = draw(st.sampled_from(["tied", "free", "adjacent"]))
        if column == "tied":
            levels = draw(st.integers(1, 4))
            values = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        elif column == "free":
            values = draw(st.lists(st.floats(-10, 10, width=32), min_size=n, max_size=n))
        else:
            values = [ADJACENT[b] for b in
                      draw(st.lists(st.booleans(), min_size=n, max_size=n))]
        columns.append(np.array(values, dtype=float))
    labels = np.zeros(n, dtype=np.int64)
    labels[draw(st.permutations(range(n)))[:draw(st.integers(1, n - 1))]] = 1
    params = {"n_trees": draw(st.integers(1, 4)),
              "max_depth": draw(st.none() | st.integers(1, 8)),
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


@st.composite
def tree_layouts(draw, n_features, values):
    """A tree in ``_grow_tree``'s pre-order layout, often a single leaf."""
    nodes = []

    def grow(depth):
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, draw(st.integers(0, 1))])
        if depth < 6 and draw(st.booleans()):
            split = [draw(st.integers(0, n_features - 1)), draw(values)]
            nodes[node] = split + [grow(depth + 1), grow(depth + 1), -1]
        return node

    grow(0)
    return {name: np.array(column, dtype=dtype)
            for (name, dtype), column in zip(_TREE_ARRAYS.items(), zip(*nodes))}


@st.composite
def scored_forests(draw):
    """1-8 trees, 0-40 query rows on the trees' own cut values or between
    them, and chunks of a few (tree, row) pairs up to the library's size."""
    n_features = draw(st.integers(1, 4))
    values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3, 3, width=32)
    trees = draw(st.lists(tree_layouts(n_features, values), min_size=1, max_size=8))
    n_rows = draw(st.just(0) | st.integers(1, 40))
    cells = draw(st.lists(values, min_size=n_rows * n_features,
                          max_size=n_rows * n_features))
    X = np.array(cells, dtype=float).reshape(n_rows, n_features)
    return trees, X, draw(st.integers(1, 20) | st.none())


def forest_model(trees, n_features):
    return TrainedModel(ClassifierSpec(RANDOM_FOREST), {"trees": trees},
                        metadata={"n_features": n_features})


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(scored_forests())
def test_forest_scores_equal_the_per_tree_loop(case):
    trees, X, chunk_pairs = case
    with mock.patch.object(classifiers, "_FOREST_CHUNK_PAIRS",
                           chunk_pairs or classifiers._FOREST_CHUNK_PAIRS):
        scores = score(forest_model(trees, X.shape[1]), X)
    assert_bitwise_equal(scores, reference_apply_forest(trees, X), "scores")


def test_forest_scores_span_chunks_of_a_trained_forest():
    # 30 trees on 500 rows in chunks of 7 rows: 72 chunks, the last short.
    matrix = _tied_matrix(500, seed=5)
    trees = _train_forest(ClassifierSpec(RANDOM_FOREST, {"n_trees": 30}, seed=2),
                          matrix.X, matrix.labels)["trees"]
    expected = reference_apply_forest(trees, matrix.X)
    with mock.patch.object(classifiers, "_FOREST_CHUNK_PAIRS", 7 * 30):
        assert_bitwise_equal(score(forest_model(trees, 3), matrix), expected, "chunked")
    assert_bitwise_equal(score(forest_model(trees, 3), matrix), expected, "one chunk")


@st.composite
def knn_cases(draw):
    """Features of 1-4 integer levels (heavy ties) or free floats, duplicate
    training rows, ``k_max`` often every training row, one query row or
    many, and chunks of one row up to the library's own size."""
    n_features = draw(st.integers(1, 4))
    levels = draw(st.integers(1, 4) | st.none())
    values = st.floats(-10, 10, width=32) if levels is None else st.integers(0, levels - 1)

    def rows(n):
        cells = draw(st.lists(values, min_size=n * n_features, max_size=n * n_features))
        return np.array(cells, dtype=float).reshape(n, n_features)

    X = rows(draw(st.integers(1, 40)))
    X = np.vstack([X, X[draw(st.lists(st.integers(0, len(X) - 1), max_size=10))]])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    queries = rows(draw(st.just(1) | st.integers(1, 60)))
    k_max = draw(st.just(len(X)) | st.integers(1, len(X)))
    chunk_rows = draw(st.integers(1, 8) | st.none())
    return X, y, queries, k_max, chunk_rows


def assert_bitwise_equal(actual, expected, label):
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), label


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(knn_cases())
def test_vote_table_equals_reference_scorer_for_every_k(case):
    X, y, queries, k_max, chunk_rows = case
    state = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y)
    chunk_bytes = (classifiers._KNN_CHUNK_BYTES if chunk_rows is None
                   else chunk_rows * state["X"].nbytes)
    with mock.patch.object(classifiers, "_KNN_CHUNK_BYTES", chunk_bytes):
        table = _knn_vote_table(state, queries, k_max)
    assert table.shape == (len(queries), k_max)
    for k in range(1, k_max + 1):
        expected = reference_score_knn({**state, "k": k}, queries)
        assert_bitwise_equal(table[:, k - 1], expected, f"k={k}")


def test_vote_table_spans_chunks_at_its_own_size():
    # 1300 training rows of 10 features: about 40 query rows per chunk.
    rng = np.random.default_rng(11)
    X = np.column_stack([rng.integers(0, 3, (1300, 5)), rng.standard_normal((1300, 5))])
    y = (rng.random(1300) < 0.1).astype(np.int64)
    queries = np.vstack([X[:60], rng.integers(0, 3, (70, 10))])
    state = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y)
    assert len(queries) > 3 * classifiers._KNN_CHUNK_BYTES // state["X"].nbytes
    table = _knn_vote_table(state, queries, 51)
    for k in range(1, 52):
        expected = reference_score_knn({**state, "k": k}, queries)
        assert_bitwise_equal(table[:, k - 1], expected, f"k={k}")


@st.composite
def summands(draw):
    """1-300 terms of two values each, of either sign and magnitudes 1e-8 to 1e8."""
    n = draw(st.integers(1, 300))
    exponents = draw(st.lists(st.floats(-8, 8), min_size=2 * n, max_size=2 * n))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2 * n, max_size=2 * n))
    return (np.array(signs) * 10.0 ** np.array(exponents)).reshape(n, 2)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(summands())
def test_pairwise_sum_adds_in_the_order_of_ndarray_sum(terms):
    expected = np.stack(list(terms), axis=-1).sum(axis=-1)
    assert_bitwise_equal(_pairwise_sum(terms.copy()), expected, f"{len(terms)} terms")


@pytest.mark.parametrize("n_features", [8, 9, 16, 128, 129, 200])
def test_vote_table_equals_reference_scorer_on_wide_rows(n_features):
    # The training rows are every cyclic shift of two random vectors, so all
    # columns share one mean and spread, and a constant query row is equally
    # far from each shift of a vector: which shifts come out nearest, and
    # which tie, then rests on the order the squared differences are added
    # in.  Chunks of seven query rows, the last one short.
    rng = np.random.default_rng(n_features)
    X = np.vstack([np.roll(vector, shift) for vector in rng.standard_normal((2, n_features))
                   for shift in range(n_features)])
    y = rng.integers(0, 2, len(X))
    y[:2] = [0, 1]
    queries = np.vstack([np.outer(np.linspace(-2, 2, 21), np.ones(n_features)),
                         rng.standard_normal((9, n_features))])
    state = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y)
    with mock.patch.object(classifiers, "_KNN_CHUNK_BYTES", 7 * state["X"].nbytes):
        table = _knn_vote_table(state, queries, 15)
    for k in range(1, 16):
        expected = reference_score_knn({**state, "k": k}, queries)
        assert_bitwise_equal(table[:, k - 1], expected, f"k={k}")


def assert_table_equals_reference(state, queries, k_max, chunk_rows=None):
    """Every column of the vote table, bit for bit, in chunks of ``chunk_rows``."""
    chunk_bytes = (classifiers._KNN_CHUNK_BYTES if chunk_rows is None
                   else chunk_rows * state["X"].nbytes)
    with mock.patch.object(classifiers, "_KNN_CHUNK_BYTES", chunk_bytes), \
            np.errstate(over="ignore"):
        table = _knn_vote_table(state, queries, k_max)
        assert table.shape == (len(queries), k_max)
        for k in range(1, k_max + 1):
            expected = reference_score_knn({**state, "k": k}, queries)
            assert_bitwise_equal(table[:, k - 1], expected, f"k={k}")


@st.composite
def float_knn_cases(draw):
    """Free float rows of 5-12 features, so the distances reach
    ``_pairwise_sum``'s eight running sums, as 10 columns do, with duplicate
    training rows and chunks of one row up to the library's own size."""
    n_features = draw(st.integers(5, 12))
    values = st.floats(-1e3, 1e3, width=32) | st.floats(-10, 10)

    def rows(n):
        cells = draw(st.lists(values, min_size=n * n_features, max_size=n * n_features))
        return np.array(cells, dtype=float).reshape(n, n_features)

    X = rows(draw(st.integers(1, 40)))
    X = np.vstack([X, X[draw(st.lists(st.integers(0, len(X) - 1), max_size=10))]])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
    queries = rows(draw(st.integers(1, 30)))
    k_max = draw(st.just(len(X)) | st.integers(1, len(X)))
    return X, y, queries, k_max, draw(st.integers(1, 8) | st.none())


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(float_knn_cases())
def test_vote_table_equals_reference_scorer_on_float_rows(case):
    X, y, queries, k_max, chunk_rows = case
    state = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y)
    assert_table_equals_reference(state, queries, k_max, chunk_rows)


@pytest.mark.parametrize("distance", [1e4, 1e50, 1e150, 1e154, 1e155, 1e200])
def test_vote_table_equals_reference_scorer_far_from_the_training_rows(distance):
    # Query rows ``distance`` standardised units from the training rows, in
    # random directions and along one axis, among rows near them.  From
    # about 1e154 units the squared distances overflow to inf, and all tie.
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 10))
    y = (rng.random(300) < 0.3).astype(np.int64)
    state = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y)
    directions = np.vstack([rng.standard_normal((12, 10)), np.eye(10)[:4]])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    far = state["mean"] + distance * directions * state["std"]
    queries = np.vstack([far, X[:5] + 0.1, far[:3] + X[:3]])
    assert_table_equals_reference(state, queries, 31, chunk_rows=6)


def test_vote_table_equals_reference_scorer_on_tied_levels_and_infinite_cells():
    # Four binary features give 16 distinct rows among 300, so most
    # distances tie; every seventh and eleventh query row holds an infinite
    # cell, whose distances are all inf.
    rng = np.random.default_rng(8)
    X = rng.integers(0, 2, (300, 4)).astype(float)
    y = (rng.random(300) < 0.2).astype(np.int64)
    queries = rng.integers(0, 2, (60, 4)).astype(float)
    queries[::7, 1] = np.inf
    queries[3::11, 2] = -np.inf
    state = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y)
    assert_table_equals_reference(state, queries, 51, chunk_rows=7)


@pytest.mark.parametrize("push", ["random", "alternating"])
@pytest.mark.parametrize("data", ["levels", "floats"])
def test_vote_table_holds_when_expanded_distances_move_within_their_slack(data, push):
    # The filter needs only that each expanded distance lies within its
    # slack of the exact one, so the table must not change when every one
    # moves, whatever the product's rounding was.  On integer levels with
    # mean 0 and spread 1 the expanded distances are exact, and they move by
    # up to their whole slack (less 1 % for the rounding of the move itself);
    # on floats rounding may take a quarter of it, and they move by up to
    # 74 %.  ``alternating`` moves neighbouring training rows, tied ones
    # too, in opposite directions by the most allowed.
    rng = np.random.default_rng(12)
    y = (rng.random(400) < 0.3).astype(np.int64)
    if data == "levels":
        X = rng.integers(0, 3, (400, 6)).astype(float)
        queries = rng.integers(0, 3, (50, 6)).astype(float)
        state, share = {"mean": np.zeros(6), "std": np.ones(6), "X": X, "y": y}, 0.99
    else:
        X = rng.standard_normal((400, 6))
        queries = np.vstack([rng.standard_normal((40, 6)), X[:10]])
        state, share = _train_knn(ClassifierSpec(KNN, {"k": 1}), X, y), 0.74
    expanded = classifiers._expanded_distances

    def moved(block, features, train_norms, out):
        approx, slack = expanded(block, features, train_norms, out)
        if push == "random":
            sign = rng.uniform(-1, 1, approx.shape)
        else:
            sign = np.where(np.arange(approx.shape[1]) % 2, 1.0, -1.0)
        approx += share * sign * slack[:, None]
        return approx, slack

    with mock.patch.object(classifiers, "_expanded_distances", moved):
        assert_table_equals_reference(state, queries, 41, chunk_rows=9)


def _tied_matrix(n=360, seed=7):
    """Three-level features shifted by the label: many tied distances."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.15).astype(np.int64)
    labels[:2] = [0, 1]
    X = rng.integers(0, 3, (n, 3)).astype(float)
    X[:, 0] += labels
    return EncodedMatrix(X, labels, np.arange(n), ("x0", "x1", "x2"))


def _search_history(optimizer, regime):
    """Every trial of one kNN search, as (params, performances, thresholds)."""
    default = (experiment._propose_surrogate if optimizer == "surrogate"
               else lambda space, rng, history: space.sample(rng))
    seen = []

    def propose(space, rng, history):
        seen.append(history)
        return default(space, rng, history)

    optimize_hyperparams(KNN, HyperParamSpace.default(KNN).narrowed(k=(1, 15)),
                         _tied_matrix(), regime, TARGETS, budget=9, seed=3,
                         k_folds=4, propose=propose)
    return [(t.spec.hyperparameters, t.fold_performances, t.fold_thresholds)
            for t in seen[0]]


@pytest.mark.parametrize("optimizer, regime", [
    ("random", REGIME_REQUIREMENT), ("random", REGIME_STANDARD),
    ("surrogate", REGIME_REQUIREMENT), ("surrogate", REGIME_STANDARD)])
def test_knn_search_equals_search_scored_by_reference(monkeypatch, optimizer, regime):
    actual = _search_history(optimizer, regime)

    # Score each trial's folds with the reference scorer, from the state of
    # the model that trial just trained.
    trained = []
    real_train = classifiers.train

    def spy_train(spec, matrix):
        trained.append(real_train(spec, matrix))
        return trained[-1]

    class ReferenceVotes:
        def __init__(self, state, X, k_max):
            self.X, self.k_max = X, k_max

        def __getitem__(self, key):
            rows, column = key
            state = trained[-1].state
            assert column == state["k"] - 1 < self.k_max
            return reference_score_knn(state, self.X)[rows]

    monkeypatch.setattr(classifiers, "train", spy_train)
    monkeypatch.setattr(classifiers, "_knn_vote_table", ReferenceVotes)
    expected = _search_history(optimizer, regime)
    assert len(trained) == 9 * 4
    assert actual == expected


# ---------------------------------------------------------------------------
# Input fuzzing

#: Values that parse, per known key; numbers stay small so that every config
#: that parses is cheap to materialise.
GOOD_VALUES = {
    "run_id": ["r"], "models": ["dummy", "knn, random_forest"],
    "regime": ["standard", "requirement_aware"], "s_target": ["0.05"],
    "v_target": ["0.4"], "optimizer": ["random", "surrogate"],
    "budget": ["1", "3"], "k_folds": ["2", "5"], "base_seed": ["0", "7"],
    "n_seeds": ["1", "2"], "data": ["synthetic", "csv"],
    "csv.path": ["DATA", "BAD_BYTES", "MISSING"],
    "csv.timestamp_column": ["timestamp", "x0"], "csv.label_column": ["label"],
    "csv.positive_label": ["1"], "csv.categorical_columns": ["source", "x1, source"],
    "synthetic.n_rows": ["2", "300", "5000"],
    "synthetic.prevalence": ["0.01", "0.2"], "synthetic.n_clusters": ["1", "2", "4"],
    "synthetic.windows": ["0:1", "0:0.5, 0.5:1", "0:1, 0:1"],
    "synthetic.drift_strength": ["0", "4.5"], "synthetic.noise": ["1"],
    "synthetic.n_features": ["2", "8"], "synthetic.seed": ["0", "3"],
    "space.forest.n_trees": ["10:12"], "space.forest.max_depth": ["2:4"],
    "space.forest.min_leaf": ["1:5"], "space.knn.k": ["1:5"],
}
NEAR_MISS_KEYS = ["space.forest", "space.", "space.knn", "csv", "csv.",
                  "space.knn.q", "space.dummy.k", "synthetic.windows.x", "Models"]
MALFORMED_VALUES = ["", "x", "-3", "0", "1.5", "1e3", "nan", "inf", ":", "1:",
                    "5:1", "1:2:3", "0:x", ",", "a, ,b", "0:1,"]
VALID_BASE = {"models": "dummy", "data": "synthetic",
              "synthetic.n_rows": "300", "synthetic.prevalence": "0.1"}


def _mostly(draw, usual, rare):
    """``usual`` three times in four, else ``rare``."""
    return draw(usual if draw(st.integers(0, 3)) else rare)


@st.composite
def config_files(draw):
    """Config bytes: mostly a valid base, entries from known and near-miss
    keys with mostly good values, and rarely a line of raw bytes."""
    entries = _mostly(draw, st.just(VALID_BASE), st.just({})).copy()
    for _ in range(draw(st.integers(0, 8))):
        key = draw(st.sampled_from(sorted(GOOD_VALUES) + NEAR_MISS_KEYS))
        entries[key] = _mostly(draw, st.sampled_from(GOOD_VALUES.get(key, ["1:2"])),
                               st.sampled_from(MALFORMED_VALUES))
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    return text.encode() + _mostly(draw, st.just(b""), st.binary(max_size=12))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_csv(generate_synthetic(SyntheticConfig(n_rows=200, prevalence=0.2)),
              directory / "data.csv")
    (directory / "bad.csv").write_bytes(b"timestamp,x0,label\n0,\xff,0\n")
    return directory


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.example(b"models = dummy\ndata = synthetic\nsynthetic.n_rows = 300\n"
                    b"synthetic.prevalence = 0.1\nspace.forest = 1:2\n")
@hypothesis.example(b"models = dummy\ndata = synthetic\n\xff = 1\n")
@hypothesis.given(config_files())
def test_config_reader_returns_or_rejects(fuzz_dir, content):
    paths = {"DATA": fuzz_dir / "data.csv", "BAD_BYTES": fuzz_dir / "bad.csv",
             "MISSING": fuzz_dir / "absent.csv"}
    for name, path in paths.items():
        content = content.replace(name.encode(), str(path).encode())
    config_path = fuzz_dir / "config.txt"
    config_path.write_bytes(content)
    try:
        config, dataset, _ = load_experiment_setup(config_path)
    except InputError:
        return
    assert isinstance(config, ExperimentConfig)
    assert dataset.n_rows >= 2


SCORE_LINES = [b"0.5,1", b"0.25,0,3", b"1,0", b"0.5", b"nan,1", b"2,0", b"0.5,2",
               b'"0.5",1', b"0.5,1,x", b",", b""]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.example([b"score,label", b"0.5,1", b"\xff,0"])
@hypothesis.given(st.lists(st.sampled_from([b"score,label", b"label,score,timestamp"])
                           | st.sampled_from(SCORE_LINES) | st.binary(max_size=12),
                           max_size=8))
def test_score_reader_returns_or_rejects(fuzz_dir, lines):
    path = fuzz_dir / "scores.csv"
    path.write_bytes(b"\n".join(lines))
    try:
        scores, labels, _ = read_scores_csv(path)
    except InputError:
        return
    assert scores.shape == labels.shape and scores.size > 0
    assert np.all((scores >= 0) & (scores <= 1)) and set(labels) <= {0, 1}


USUAL_FIELDS = {"score": ["0.5", "0.25", "1", "0", "0.125", "0.999"],
                "label": ["0", "1"], "timestamp": ["0", "1.5", "17", "-3"]}
ODD_FIELDS = {"score": [" 0.5", "1_0", "+1", "nan", "inf", "-0.0", "0.5 ", "", "x",
                        "1e-3", "\u0661", "0.5\x1c"],
              "label": ["+1", " 1", "1_0", "2", "1.0", "", "-0", "01", "\x1f1"],
              "timestamp": ["nan", "inf", "x", " 3", "1_5", ""]}
#: Quirks a file keeps on numpy's reader; any other sends it row by row.
FAST_QUIRKS = ("blank line", "no final newline", "crlf")
ROW_QUIRKS = ("odd value", "quoted field", "spanning field", "cr",
              "extra field", "missing field", "nul", "bad byte", "header cr")


@st.composite
def score_files(draw):
    """Score file bytes and whether numpy's reader must take it whole.

    The header names score and label, with or without timestamp, in any
    order; the rows hold usual values; up to three quirks go anywhere.
    """
    names = draw(st.permutations(["score", "label"]
                                 + draw(st.sampled_from([[], ["timestamp"]]))))
    rows = [[draw(st.sampled_from(USUAL_FIELDS[name])) for name in names]
            for _ in range(draw(st.integers(0, 30)))]
    ends = ["\n"] * len(rows)
    quirks = draw(st.lists(st.sampled_from(FAST_QUIRKS + ROW_QUIRKS), max_size=3))
    for quirk in quirks:
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        j = draw(st.integers(0, len(names) - 1))
        if quirk == "blank line":
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, [])
            ends.insert(at, "\n")
        elif not rows or j >= len(rows[i]):
            continue
        elif quirk == "odd value":
            rows[i][j] = draw(st.sampled_from(ODD_FIELDS[names[j]]))
        elif quirk in ("quoted field", "spanning field"):
            rows[i][j] = f'"{rows[i][j]}' + ('\n"' if quirk == "spanning field" else '"')
        elif quirk == "crlf":
            ends[i] = "\r\n"
        elif quirk == "extra field":
            rows[i].append("0")
        elif quirk == "missing field":
            rows[i].pop()
        elif quirk in ("cr", "nul"):
            rows[i][j] += {"cr": "\r", "nul": "\0"}[quirk]
    header = ",".join(names)
    if "header cr" in quirks:
        at = draw(st.integers(0, len(header)))
        header = header[:at] + "\r" + header[at:]
    text = header + "\n" + "".join(
        ",".join(row) + end for row, end in zip(rows, ends))
    if "no final newline" in quirks:
        text = text.removesuffix("\n")
    data = text.encode()
    if "bad byte" in quirks:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    clean = any(rows) and set(quirks) <= set(FAST_QUIRKS)
    return data, clean


def _read_outcome(read, path):
    """Each array's dtype and bytes, or the ``IngestionError`` text."""
    try:
        columns = read(path)
    except IngestionError as exc:
        return str(exc)
    return [None if column is None else (column.dtype.str, column.tobytes())
            for column in columns]


_FIVE_ROWS = b"score,label\n" + b"0.5,1\n" * 5


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.example((_FIVE_ROWS + b"0.5,1,7\n0.5,1\n", False))
@hypothesis.example((_FIVE_ROWS + b"0.5,1\n0.5,1\n0.\xff,1\n", False))
@hypothesis.example((b'label,score\n1,"0.5\n"\n\n0,-0.0\r\n1, 0.5\n0,+1', False))
@hypothesis.example((b"score,label\n0.5,1\n\n", True))
@hypothesis.example((b"score,label\n0.5" + b" " * 131_072 + b",1\n", False))
@hypothesis.example((b"score,label," + b"x" * 131_073 + b"\n0.5,1,0\n", False))
@hypothesis.example((b"score,label\n0.5,1,0\n1\n", False))
@hypothesis.example((b"score,label\n0.5\r,1\n", False))
@hypothesis.example((b'score,"a,b",label\n0.5,0,0,1\n', False))
@hypothesis.example((b"score,label\n1_0,1\n", False))
@hypothesis.example(("score,label\n\u0661,1\n".encode(), False))
@hypothesis.example((b"score,label\n0.5,1.0\n", False))
@hypothesis.example((b'score,label\n"0.5",1\n', False))
@hypothesis.example((b'score,label,note\n0.5,1,"a\n0.25,0,b"\n', False))
@hypothesis.example((b"score,label\r0.5,1\r0.25,0\r", True))
@hypothesis.example((b"score,label,note\n0.5,1,a\0b\n", False))
@hypothesis.example((b"score,label\n0.5,1\n \n", False))
@hypothesis.example((b"score,label\n", False))
@hypothesis.example((b"score,label,note\n0.5,1,a\n0.25,0,\n", True))
@hypothesis.example((b"score,label\n0.5,\x1c1\n", False))
@hypothesis.given(score_files())
def test_score_columns_read_like_score_rows(fuzz_dir, case):
    data, clean = case
    path = fuzz_dir / "scores.csv"
    path.write_bytes(data)
    assert (_read_outcome(read_scores_csv, path)
            == _read_outcome(dataset._read_score_rows, path))
    if clean:
        assert dataset._score_columns(path) is not None


JSON_KEYS = (st.sampled_from(["", "%", "%s", "%(x)s", "{", "{0}", "}", '"', "\\",
                              "\n", "é", "ключ", "a", "b", "v", "threshold"])
             | st.text(max_size=4))
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80)
                | st.floats()
                | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                   5e-324, -2.2250738585072e-308, 1e16, 0.1])
                | st.text(max_size=6)
                | st.sampled_from(["\x00\x1f\x7f", "a\tb\r\n", " é\ud800"]))


@st.composite
def same_key_rows(draw, values):
    """A list of dicts that all share one key set."""
    keys = draw(st.lists(JSON_KEYS, unique=True, max_size=4))
    return draw(st.lists(st.fixed_dictionaries({key: values for key in keys}),
                         min_size=1, max_size=5))


@st.composite
def equal_key_rows(draw):
    """Dicts whose keys are equal but spelled 1, True or 1.0 and 0, False or 0.0."""
    spellings = [keys for keys in ([1, True, 1.0], [0, False, 0.0]) if draw(st.booleans())]
    return [{draw(st.sampled_from(keys)): draw(JSON_SCALARS) for keys in spellings}
            for _ in range(draw(st.integers(1, 5)))]


def json_payloads():
    def containers(children):
        return (st.lists(children, max_size=5)
                | st.lists(children, max_size=5).map(tuple)
                | st.dictionaries(JSON_KEYS, children, max_size=5)
                | same_key_rows(JSON_SCALARS)
                | same_key_rows(JSON_SCALARS | children)
                | equal_key_rows()
                | st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=3),
                           max_size=4))
    return st.recursive(JSON_SCALARS, containers, max_leaves=40)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.example({"points": [{"threshold": 0.5, "v": 0.0, "one_minus_s": 1.0},
                                {"threshold": "inf", "v": 1.0, "one_minus_s": 0.0}]})
@hypothesis.example([{"%": 1, "{x}": "%s", "%%s": None}, {"%": 2, "{x}": "}", "%%s": 0.5}])
@hypothesis.example([{10: 0.5, 2: None}, {2: True, 10: -0.0}])
@hypothesis.example({0.5: 1, -math.inf: [2], False: {}})
@hypothesis.example([{1: 0.5}, {True: 0.25}])
@hypothesis.example([{1: 0.5}, {1.0: 0.25}])
@hypothesis.given(json_payloads())
def test_dump_json_equals_indented_json_dumps(payload):
    assert dump_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


#: Scores whose spellings or ranking are easy to get wrong.
EDGE_SCORES = [0.0, -0.0, 1.0, 5e-324]


@st.composite
def large_scored_sets(draw):
    """2-2000 scores of both classes: distinct, on a grid (ties) or one value,
    with edge scores dropped in anywhere."""
    n = draw(st.integers(2, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    levels = draw(st.sampled_from([None, 1, 2, 11, 1001]))
    scores = (rng.random(n) if levels is None
              else rng.integers(0, levels, n) / max(levels - 1, 1))
    for _ in range(draw(st.integers(0, 6))):
        scores[draw(st.integers(0, n - 1))] = draw(st.sampled_from(EDGE_SCORES))
    labels = (rng.random(n) < draw(st.sampled_from([0.01, 0.3]))).astype(int)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    return scores, labels


def per_point_dicts(curve):
    """Reference for ``export_curve``'s points: one dict per point, built in Python."""
    return [{"threshold": _json_safe(float(t)), "v": float(v),
             "one_minus_s": float(1.0 - s)}
            for t, v, s in zip(curve.thresholds, curve.v, curve.s)]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(large_scored_sets())
def test_dump_json_of_export_curve_equals_json_dumps_of_its_points(case):
    curve = sweep_thresholds(*case)
    payload = export_curve(curve, TARGETS)
    points = payload["points"]
    assert len(points) == len(curve)
    assert repr(list(points)) == repr(per_point_dicts(curve))
    assert points[-1]["threshold"] == "inf"
    assert dump_json(payload) == json.dumps(
        {**payload, "points": list(points)}, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    np.int64(3), [np.int64(3)], {"a": np.int64(3)}, [{"a": 1}, {"a": np.int64(3)}],
    [{"a": [np.int64(3)]}], {np.int64(3): 1}],
    ids=["scalar", "list", "dict", "rows", "nested", "key"])
def test_dump_json_rejects_numpy_ints_like_json_dumps(payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as actual:
        dump_json(payload)
    assert str(actual.value) == str(expected.value)
