import json
import math

import numpy as np
import pytest

from falsecall.classifiers import (BALANCED_RANDOM_FOREST, DUMMY, KNN,
                                   RANDOM_FOREST, ClassifierSpec,
                                   HyperParamSpace, classify, load_model,
                                   save_model, score, train)
from falsecall.curves import sweep_thresholds, volume_at_target_slip
from falsecall.dataset import (NUMERIC, ColumnSpec, Dataset, EncodedMatrix,
                               one_hot_fit_transform)
from falsecall.errors import InputError, StateError
from falsecall.metrics import SENTINEL_THRESHOLD, TargetSpec


def matrix_from_arrays(X, y):
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    columns = {f"x{i}": X[:, i] for i in range(X.shape[1])}
    schema = tuple(ColumnSpec(f"x{i}", NUMERIC) for i in range(X.shape[1]))
    ds = Dataset(timestamps=np.arange(n, dtype=float),
                 labels=np.asarray(y, dtype=np.int64), columns=columns,
                 schema=schema)
    matrix, _ = one_hot_fit_transform(ds)
    return matrix


def separable_matrices(n_train=300, n_test=150, seed=0, margin=8.0):
    rng = np.random.default_rng(seed)

    def sample(n):
        y = (rng.random(n) < 0.2).astype(np.int64)
        X = rng.standard_normal((n, 3))
        X[:, 0] += margin * y
        return matrix_from_arrays(X, y)

    return sample(n_train), sample(n_test)


class TestDummy:
    def test_majority_negative_scores_zero(self):
        matrix = matrix_from_arrays(np.zeros((100, 2)), [1] + [0] * 99)
        model = train(ClassifierSpec(DUMMY), matrix)
        assert np.all(score(model, matrix) == 0.0)
        assert model.decision_threshold == SENTINEL_THRESHOLD
        assert np.all(classify(model, matrix) == 0)

    def test_majority_positive_scores_one(self):
        matrix = matrix_from_arrays(np.zeros((10, 2)), [1] * 7 + [0] * 3)
        model = train(ClassifierSpec(DUMMY), matrix)
        assert np.all(score(model, matrix) == 1.0)
        assert np.all(classify(model, matrix) == 1)

    def test_single_row_is_enough(self):
        matrix = matrix_from_arrays([[1.0, 2.0]], [0])
        model = train(ClassifierSpec(DUMMY), matrix)
        assert score(model, matrix)[0] == 0.0


class TestKnn:
    def test_k1_recovers_own_labels(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 2, 30)
        y[0] = 1  # both classes present
        y[1] = 0
        matrix = matrix_from_arrays(X, y)
        model = train(ClassifierSpec(KNN, {"k": 1}), matrix)
        assert np.array_equal(score(model, matrix), y.astype(float))

    def test_tied_distances_expand_the_neighbourhood(self):
        # query at the origin, two training points at exactly distance 1
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0], [0.0, -5.0]])
        y = np.array([1, 0, 1, 0])
        matrix = matrix_from_arrays(X, y)
        model = train(ClassifierSpec(KNN, {"k": 1}), matrix)
        # standardisation is symmetric here, so both near points stay tied
        query = matrix_from_arrays(np.array([[0.0, 0.0]]), [0])
        assert score(model, query)[0] == 0.5

    def test_feature_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 5))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        permutation = [3, 0, 4, 1, 2]
        base = train(ClassifierSpec(KNN, {"k": 5}), matrix_from_arrays(X, y))
        moved = train(ClassifierSpec(KNN, {"k": 5}),
                      matrix_from_arrays(X[:, permutation], y))
        queries = rng.standard_normal((20, 5))
        assert np.allclose(score(base, queries),
                           score(moved, queries[:, permutation]), atol=1e-9)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_rejected_naming_its_column(self, value):
        X = np.arange(12, dtype=float).reshape(4, 3)
        X[2, 1] = value
        with pytest.raises(InputError) as info:
            train(ClassifierSpec(KNN, {"k": 1}),
                  EncodedMatrix(X, np.array([0, 1, 0, 1]), np.arange(4), ("x0", "x1", "x2")))
        assert str(info.value) == "knn training needs finite features; column 'x1' is not"

    def test_k_larger_than_train_rejected(self):
        matrix = matrix_from_arrays(np.zeros((5, 2)), [0, 1, 0, 1, 0])
        with pytest.raises(InputError):
            train(ClassifierSpec(KNN, {"k": 7}), matrix)

    def test_single_class_rejected(self):
        matrix = matrix_from_arrays(np.zeros((5, 2)), [0] * 5)
        with pytest.raises(InputError):
            train(ClassifierSpec(KNN, {"k": 1}), matrix)


class TestForest:
    SPEC = {"n_trees": 100, "max_depth": None, "min_leaf": 1,
            "feature_subsample": "all"}

    def test_separable_data_reaches_full_volume_at_zero_slip(self):
        train_m, test_m = separable_matrices()
        model = train(ClassifierSpec(RANDOM_FOREST, dict(self.SPEC), seed=1), train_m)
        held_out = score(model, test_m)
        curve = sweep_thresholds(held_out, test_m.labels)
        assert volume_at_target_slip(curve, TargetSpec()).value == 1.0

    def test_scores_are_vote_fractions(self):
        train_m, test_m = separable_matrices(seed=3)
        spec = ClassifierSpec(RANDOM_FOREST, {"n_trees": 7, "max_depth": 4,
                                              "min_leaf": 2,
                                              "feature_subsample": "sqrt"}, seed=2)
        model = train(spec, train_m)
        votes = score(model, test_m) * 7
        assert np.allclose(votes, np.round(votes))

    def test_bit_for_bit_determinism(self):
        train_m, test_m = separable_matrices(seed=5)
        spec = ClassifierSpec(RANDOM_FOREST, {"n_trees": 12, "max_depth": 6,
                                              "min_leaf": 1,
                                              "feature_subsample": "sqrt"}, seed=11)
        a = score(train(spec, train_m), test_m)
        b = score(train(spec, train_m), test_m)
        assert np.array_equal(a, b)

    def test_forest_at_least_as_good_as_single_tree_on_separable_fixture(self):
        train_m, _ = separable_matrices(n_train=120, seed=6)
        forest_spec = ClassifierSpec(RANDOM_FOREST, dict(self.SPEC), seed=3)
        forest = train(forest_spec, train_m)
        forest_accuracy = np.mean(
            (score(forest, train_m) >= 0.5).astype(int) == train_m.labels)
        single_spec = ClassifierSpec(RANDOM_FOREST, {**self.SPEC, "n_trees": 1},
                                     seed=3)
        single = train(single_spec, train_m)
        single_accuracy = np.mean(
            (score(single, train_m) >= 0.5).astype(int) == train_m.labels)
        assert forest_accuracy >= single_accuracy

    def test_single_class_rejected(self):
        matrix = matrix_from_arrays(np.zeros((10, 2)), [0] * 10)
        with pytest.raises(InputError):
            train(ClassifierSpec(RANDOM_FOREST, dict(self.SPEC)), matrix)

    @pytest.mark.parametrize("kind", [RANDOM_FOREST, BALANCED_RANDOM_FOREST, KNN])
    @pytest.mark.parametrize("subsample", ["all", "sqrt"])
    def test_zero_feature_columns_rejected(self, kind, subsample):
        matrix = EncodedMatrix(np.zeros((20, 0)), np.array([0, 1] * 10),
                               np.arange(20), ())
        spec = ClassifierSpec(kind, dict(self.SPEC, feature_subsample=subsample))
        with pytest.raises(InputError) as info:
            train(spec, matrix)
        assert str(info.value) == (
            f"{kind} training needs at least one feature column, got 0")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("low, high", [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
        (1e308, 1.5e308), (-1.5e308, -1e308)], ids=["adjacent", "huge", "huge-negative"])
    def test_split_between_two_values_separates_them(self, low, high):
        # The midpoint of 1+eps and 1+2eps rounds up to 1+2eps, and a huge
        # pair's overflows.  Cut there, every row went to one side and, with
        # no depth limit, training recursed until RecursionError.
        matrix = matrix_from_arrays(np.array([low, high] * 6).reshape(-1, 1), [0, 1] * 6)
        model = train(ClassifierSpec(RANDOM_FOREST, dict(self.SPEC, n_trees=1)), matrix)
        tree = model.state["trees"][0]
        assert tree["threshold"][0] == low
        assert tree["feature"].tolist() == [0, -1, -1]

    def test_dimension_mismatch_rejected(self):
        train_m, _ = separable_matrices(n_train=60, seed=7)
        model = train(ClassifierSpec(RANDOM_FOREST, dict(self.SPEC), seed=1), train_m)
        with pytest.raises(InputError):
            score(model, np.zeros((4, 9)))


class TestBalancedForest:
    def test_bags_hold_equal_class_counts(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 3))
        y = np.zeros(200, dtype=np.int64)
        y[rng.choice(200, 12, replace=False)] = 1
        matrix = matrix_from_arrays(X, y)
        spec = ClassifierSpec(BALANCED_RANDOM_FOREST,
                              {"n_trees": 15, "max_depth": 6, "min_leaf": 1,
                               "feature_subsample": "sqrt"}, seed=4)
        model = train(spec, matrix)
        per_class = model.state["per_class_bag"]
        assert per_class == 12
        assert all(count == per_class for count in model.state["bag_positive_counts"])

    def test_balanced_forest_learns_separable_data(self):
        train_m, test_m = separable_matrices(seed=8)
        spec = ClassifierSpec(BALANCED_RANDOM_FOREST,
                              {"n_trees": 60, "max_depth": None, "min_leaf": 1,
                               "feature_subsample": "all"}, seed=5)
        model = train(spec, train_m)
        curve = sweep_thresholds(score(model, test_m), test_m.labels)
        assert volume_at_target_slip(curve, TargetSpec()).value == 1.0


@pytest.mark.parametrize("kind, params", [(DUMMY, {}), (KNN, {"k": 3}),
                                           (RANDOM_FOREST, {"n_trees": 3})])
class TestScoredRows:
    def test_nan_cell_rejected_naming_the_first_row(self, kind, params):
        train_matrix, test_matrix = separable_matrices(n_train=40, n_test=5)
        model = train(ClassifierSpec(kind, params), train_matrix)
        rows = test_matrix.X.copy()
        rows[[3, 1], [2, 0]] = np.nan
        with pytest.raises(InputError) as info:
            score(model, rows)
        assert str(info.value) == "row 1 holds NaN; only numbers and +-inf can be scored"

    def test_infinite_cells_scored(self, kind, params):
        train_matrix, test_matrix = separable_matrices(n_train=40, n_test=5)
        model = train(ClassifierSpec(kind, params), train_matrix)
        rows = test_matrix.X.copy()
        rows[1, 0], rows[3, 2] = np.inf, -np.inf
        scores = score(model, rows)
        assert ((0 <= scores) & (scores <= 1)).all()
        assert np.array_equal(scores[[0, 2, 4]], score(model, rows[[0, 2, 4]]))


class TestClassify:
    def test_rule_matches_score_threshold(self):
        train_m, test_m = separable_matrices(seed=10)
        model = train(ClassifierSpec(KNN, {"k": 3}), train_m)
        model.decision_threshold = 0.4
        predictions = classify(model, test_m)
        assert np.array_equal(predictions,
                              (score(model, test_m) >= 0.4).astype(int))

    def test_threshold_zero_predicts_all_positive(self):
        train_m, test_m = separable_matrices(seed=11)
        model = train(ClassifierSpec(KNN, {"k": 3}), train_m)
        model.decision_threshold = 0.0
        assert np.all(classify(model, test_m) == 1)

    def test_sentinel_predicts_all_negative(self):
        train_m, test_m = separable_matrices(seed=12)
        model = train(ClassifierSpec(KNN, {"k": 3}), train_m)
        model.decision_threshold = SENTINEL_THRESHOLD
        assert np.all(classify(model, test_m) == 0)

    def test_unset_threshold_is_a_state_error(self):
        train_m, test_m = separable_matrices(seed=13)
        model = train(ClassifierSpec(KNN, {"k": 3}), train_m)
        with pytest.raises(StateError):
            classify(model, test_m)


class TestHyperParamSpace:
    def test_samples_stay_in_range(self):
        rng = np.random.default_rng(0)
        for kind in (KNN, RANDOM_FOREST, BALANCED_RANDOM_FOREST):
            space = HyperParamSpace.default(kind)
            for _ in range(100):
                space.validate(space.sample(rng))

    def test_knn_k_is_odd(self):
        space = HyperParamSpace.default(KNN)
        rng = np.random.default_rng(1)
        assert all(space.sample(rng)["k"] % 2 == 1 for _ in range(50))

    def test_narrowed_bounds(self):
        space = HyperParamSpace.default(RANDOM_FOREST).narrowed(n_trees=(10, 30))
        rng = np.random.default_rng(2)
        assert all(10 <= space.sample(rng)["n_trees"] <= 30 for _ in range(50))
        with pytest.raises(InputError):
            space.narrowed(n_trees=(5, 30))

    @pytest.mark.parametrize("make, bounds", [
        (lambda: HyperParamSpace(RANDOM_FOREST, {"n_trees": (5, 2)}), (5, 2)),
        (lambda: HyperParamSpace.default(RANDOM_FOREST).narrowed(n_trees=(20, 10)),
         (20, 10)),
    ], ids=["built", "narrowed"])
    def test_reversed_range_rejected(self, make, bounds):
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == f"n_trees={bounds} needs low <= high"

    def test_validate_rejects_out_of_range(self):
        space = HyperParamSpace.default(KNN)
        with pytest.raises(InputError):
            space.validate({"k": 2})
        with pytest.raises(InputError):
            space.validate({"k": 53})
        with pytest.raises(InputError):
            space.validate({"k": 3, "extra": 1})

    @pytest.mark.parametrize("bounds", [(2, 2), (4, 3)])
    def test_odd_range_without_odd_value_rejected(self, bounds):
        with pytest.raises(InputError) as info:
            HyperParamSpace(KNN, {"k": bounds}, odd_only=frozenset({"k"}))
        assert str(info.value) == f"knn: k={bounds} holds no odd value"

    @pytest.mark.parametrize("make, problem", [
        (lambda: HyperParamSpace(KNN, {"bogus": (1, 3)}),
         "knn has no integer parameter 'bogus'"),
        (lambda: HyperParamSpace(RANDOM_FOREST, choices={"k": ("a",)}),
         "random_forest has no choice parameter 'k'"),
        (lambda: HyperParamSpace(KNN, {"k": (1, 5)}, odd_only=frozenset({"q"})),
         "knn has no integer parameter 'q'"),
        (lambda: HyperParamSpace(KNN, {"k": (1.5, 3.7)}),
         "knn: k=(1.5, 3.7) needs integer bounds (low, high)"),
        (lambda: HyperParamSpace.default(KNN).narrowed(k=(1.5, 3)),
         "knn: k=(1.5, 3) needs integer bounds (low, high)"),
        (lambda: HyperParamSpace(KNN, {"k": 5}), "knn: k=5 needs integer bounds (low, high)"),
        (lambda: HyperParamSpace(KNN, {"k": (1, 3, 5)}),
         "knn: k=(1, 3, 5) needs integer bounds (low, high)"),
        (lambda: HyperParamSpace(RANDOM_FOREST, {"n_trees": (-5, 0)}),
         "random_forest: n_trees=(-5, 0) needs low >= 1"),
        (lambda: HyperParamSpace(BALANCED_RANDOM_FOREST, {"min_leaf": (0, 3)}),
         "balanced_random_forest: min_leaf=(0, 3) needs low >= 1"),
        (lambda: HyperParamSpace(KNN, {"k": (0, 3)}), "knn: k=(0, 3) needs low >= 1"),
        (lambda: HyperParamSpace("bogus"), "unknown classifier kind 'bogus'"),
    ], ids=["unknown", "unknown-choice", "unknown-odd", "float", "float-narrowed",
            "not-a-pair", "three-bounds", "n_trees", "min_leaf", "k", "kind"])
    def test_space_a_search_cannot_use_rejected(self, make, problem):
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == problem

    def test_integer_bounds_of_any_integer_type_accepted(self):
        space = HyperParamSpace(RANDOM_FOREST, {"max_depth": (np.int64(0), 3)})
        assert 0 <= space.sample(np.random.default_rng(0))["max_depth"] <= 3


PERSISTED_PARAMS = {DUMMY: {}, KNN: {"k": 3}, RANDOM_FOREST: {"n_trees": 2}}


def _first_split(tree):
    return next(i for i, feature in enumerate(tree["feature"]) if feature >= 0)


def _set(document, value, *keys):
    *parents, last = keys
    for key in parents:
        document = document[key]
    document[last] = value


#: Each case: a kind, an edit to its saved JSON, and the problem load_model
#: names.  The models have 3 feature columns and 40 training rows.
DAMAGED_MODELS = {
    "no-n_features": (KNN, lambda d: _set(d, {}, "metadata"),
                      "metadata.n_features must be a positive integer, got None"),
    "zero-n_features": (DUMMY, lambda d: _set(d, 0, "metadata", "n_features"),
                        "metadata.n_features must be a positive integer, got 0"),
    "state-not-an-object": (DUMMY, lambda d: _set(d, [], "state"),
                            "state must be an object, and its trees a list of objects"),
    "majority-2": (DUMMY, lambda d: _set(d, 2, "state", "majority"),
                   "state.majority must be 0 or 1"),
    "knn-X-narrow": (KNN, lambda d: _set(d, [row[:1] for row in d["state"]["X"]],
                                         "state", "X"),
                     "state.X must have one row per state.y and 3 columns, "
                     "got shape (40, 1)"),
    "knn-X-ragged": (KNN, lambda d: d["state"]["X"][0].pop(),
                     "state.X must be a list of numbers"),
    "knn-y-2": (KNN, lambda d: _set(d, [2] * 40, "state", "y"),
                "state.y must be a list of 0s and 1s"),
    "knn-y-text": (KNN, lambda d: _set(d, ["1"] * 40, "state", "y"),
                   "state.y must be a list of integers"),
    "knn-k-0": (KNN, lambda d: _set(d, 0, "state", "k"),
                "state.k must be an integer in [1, 40], got 0"),
    "knn-k-above-rows": (KNN, lambda d: _set(d, 41, "state", "k"),
                         "state.k must be an integer in [1, 40], got 41"),
    "knn-std-short": (KNN, lambda d: d["state"]["std"].pop(),
                      "state.std must hold 3 values"),
    "knn-X-nan": (KNN, lambda d: _set(d, math.nan, "state", "X", 0, 1),
                  "state.X must hold finite numbers"),
    "knn-mean-inf": (KNN, lambda d: _set(d, math.inf, "state", "mean", 2),
                     "state.mean must hold finite numbers"),
    "knn-std-0": (KNN, lambda d: _set(d, [0.0] * 3, "state", "std"),
                  "state.std must hold positive finite numbers"),
    "knn-std-inf": (KNN, lambda d: _set(d, math.inf, "state", "std", 0),
                    "state.std must hold positive finite numbers"),
    "no-trees": (RANDOM_FOREST, lambda d: _set(d, [], "state", "trees"),
                 "state.trees must hold at least one tree"),
    "tree-not-an-object": (RANDOM_FOREST, lambda d: _set(d, [1], "state", "trees"),
                           "state must be an object, and its trees a list of objects"),
    "decision_threshold-text": (DUMMY, lambda d: _set(d, "abc", "decision_threshold"),
                                "decision_threshold must be a number, got 'abc'"),
    "tree-threshold-text": (RANDOM_FOREST,
                       lambda d: _set(d, "x", "state", "trees", 1, "threshold"),
                       "state.trees[1].threshold must be a list of numbers"),
    "vote-list-short": (RANDOM_FOREST, lambda d: d["state"]["trees"][1]["vote"].pop(),
                        "state.trees[1]: the node lists must be flat, of one length"),
    "child-99": (RANDOM_FOREST, lambda d: _set(
        d, 99, "state", "trees", 0, "left", _first_split(d["state"]["trees"][0])),
        "state.trees[0].left must follow its node inside the tree"),
    "child-is-its-node": (RANDOM_FOREST, lambda d: _set(
        d, 0, "state", "trees", 0, "right", 0),
        "state.trees[0].right must follow its node inside the tree"),
    "feature-7": (RANDOM_FOREST, lambda d: _set(
        d, 7, "state", "trees", 0, "feature", _first_split(d["state"]["trees"][0])),
        "state.trees[0].feature must be below 3"),
    "leaf-vote-2": (RANDOM_FOREST, lambda d: _set(d, 2, "state", "trees", 0, "vote", -1),
                    "state.trees[0].vote must be 0 or 1 at each leaf"),
    "split-threshold-nan": (RANDOM_FOREST, lambda d: _set(
        d, math.nan, "state", "trees", 0, "threshold", _first_split(d["state"]["trees"][0])),
        "state.trees[0].threshold must not hold NaN"),
}


class TestPersistence:
    @pytest.mark.parametrize("kind,params", [
        (DUMMY, {}),
        (KNN, {"k": 3}),
        (RANDOM_FOREST, {"n_trees": 8, "max_depth": 5, "min_leaf": 2,
                         "feature_subsample": "sqrt"}),
        (BALANCED_RANDOM_FOREST, {"n_trees": 8, "max_depth": 5, "min_leaf": 1,
                                  "feature_subsample": "log2"}),
    ])
    def test_roundtrip_preserves_scores(self, tmp_path, kind, params):
        train_m, test_m = separable_matrices(n_train=80, n_test=40, seed=14)
        model = train(ClassifierSpec(kind, params, seed=6), train_m)
        if model.decision_threshold is None:
            model.decision_threshold = 0.25
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(score(model, test_m), score(back, test_m))
        assert back.decision_threshold == model.decision_threshold
        assert back.spec == model.spec

    @pytest.mark.parametrize("threshold, spelled", [(math.inf, '"inf"'),
                                                    (-math.inf, '"-inf"')])
    def test_infinite_threshold_roundtrip(self, tmp_path, threshold, spelled):
        train_m, _ = separable_matrices(n_train=40, n_test=4, seed=2)
        model = train(ClassifierSpec(DUMMY, {}, seed=0), train_m)
        model.decision_threshold = threshold
        path = tmp_path / "model.json"
        save_model(model, path)
        assert f'"decision_threshold": {spelled}' in path.read_text()
        assert load_model(path).decision_threshold == threshold

    @pytest.mark.parametrize("spelled", ['"nan"', "NaN"])
    def test_nan_threshold_rejected(self, tmp_path, spelled):
        train_m, _ = separable_matrices(n_train=40, n_test=4, seed=2)
        model = train(ClassifierSpec(DUMMY, {}, seed=0), train_m)
        model.decision_threshold = 0.5
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text().replace('"decision_threshold": 0.5',
                                                 f'"decision_threshold": {spelled}'))
        with pytest.raises(InputError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: decision_threshold is NaN"

    @pytest.mark.parametrize("text, problem", [
        (None, "cannot read {path}: [Errno 2] No such file or directory"),
        ("not json", "cannot read {path}: Expecting value: line 1 column 1 (char 0)"),
        ("[1]", "{path}: not a falsecall-model file"),
        ('{"format": "falsecall-model", "version": 1}', "{path}: missing field 'kind'"),
    ], ids=["missing-file", "not-json", "not-an-object", "no-kind"])
    def test_unreadable_file_named(self, tmp_path, text, problem):
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(InputError) as info:
            load_model(path)
        assert str(info.value).startswith(problem.format(path=path))

    @pytest.mark.parametrize("kind, damage, problem", DAMAGED_MODELS.values(),
                             ids=DAMAGED_MODELS.keys())
    def test_damaged_field_named(self, tmp_path, kind, damage, problem):
        train_m, _ = separable_matrices(n_train=40, n_test=4, seed=2)
        path = tmp_path / "model.json"
        save_model(train(ClassifierSpec(kind, PERSISTED_PARAMS[kind], seed=3), train_m),
                   path)
        document = json.loads(path.read_text())
        damage(document)
        path.write_text(json.dumps(document))
        with pytest.raises(InputError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {problem}"

    def test_infinite_split_threshold_loads(self, tmp_path):
        # The midpoint of -inf and a finite value is -inf, which a split keeps.
        X = np.array([[-math.inf], [0.0], [1.0], [2.0]] * 5)
        model = train(ClassifierSpec(RANDOM_FOREST, {"n_trees": 3}, seed=0),
                      EncodedMatrix(X, np.array([0, 1, 1, 1] * 5), np.arange(20), ("x0",)))
        assert any(-math.inf in tree["threshold"] for tree in model.state["trees"])
        path = tmp_path / "model.json"
        save_model(model, path)
        assert np.array_equal(score(load_model(path), X), score(model, X))

    def test_every_golden_model_loads_and_scores_the_same(self, tmp_path):
        from tests.test_golden import FOREST_CASES, MATRICES
        path = tmp_path / "model.json"
        specs = [(ClassifierSpec(KNN, {"k": 7}, seed=11), "synthetic")]
        for case in FOREST_CASES:
            kind, mode, max_depth, min_leaf, data = case.split("-")
            specs.append((ClassifierSpec(kind, {
                "n_trees": 4, "feature_subsample": mode, "min_leaf": int(min_leaf),
                "max_depth": None if max_depth == "None" else int(max_depth)},
                seed=11), data))
        for spec, data in specs:
            matrix = MATRICES[data]()
            model = train(spec, matrix)
            save_model(model, path)
            assert np.array_equal(score(load_model(path), matrix), score(model, matrix))

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(InputError):
            load_model(path)
