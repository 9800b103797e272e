import math

import numpy as np
import pytest

from falsecall.classifiers import (BALANCED_RANDOM_FOREST, DUMMY, KNN,
                                   RANDOM_FOREST, ClassifierSpec,
                                   HyperParamSpace, classify, load_model,
                                   save_model, score, train)
from falsecall.curves import sweep_thresholds, volume_at_target_slip
from falsecall.dataset import (NUMERIC, ColumnSpec, Dataset,
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

    def test_validate_rejects_out_of_range(self):
        space = HyperParamSpace.default(KNN)
        with pytest.raises(InputError):
            space.validate({"k": 2})
        with pytest.raises(InputError):
            space.validate({"k": 53})
        with pytest.raises(InputError):
            space.validate({"k": 3, "extra": 1})


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

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(InputError):
            load_model(path)
