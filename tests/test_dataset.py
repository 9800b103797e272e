import csv
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import falsecall
from falsecall import dataset, experiment
from falsecall.dataset import (CATEGORICAL, NUMERIC, ColumnSpec, Dataset,
                               SyntheticConfig, chrono_split,
                               generate_synthetic, load_csv,
                               one_hot_fit_transform, pca2d, stratified_kfold,
                               write_csv)
from falsecall.errors import (DegenerateDataError, IngestionError, InputError)


def make_dataset(n, positives_at, extra_numeric=None):
    labels = np.zeros(n, dtype=np.int64)
    labels[list(positives_at)] = 1
    x = extra_numeric if extra_numeric is not None else np.arange(n, dtype=float)
    return Dataset(timestamps=np.arange(n, dtype=float), labels=labels,
                   columns={"x0": np.asarray(x, dtype=float)},
                   schema=(ColumnSpec("x0", NUMERIC),))


class TestLoadCsv:
    def test_mixed_schema_inference(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(
            "ts,f1,cat,label\n"
            "0,1.5,A,0\n1,2.5,B,1\n2,0.5,A,0\n3,1.0,C,0\n4,9.5,B,1\n5,3.5,C,0\n")
        ds = load_csv(path, timestamp_column="ts", label_column="label")
        kinds = {spec.name: spec.kind for spec in ds.schema}
        assert kinds == {"f1": NUMERIC, "cat": CATEGORICAL}
        assert ds.n_rows == 6
        assert list(ds.labels) == [0, 1, 0, 0, 1, 0]

    @pytest.mark.parametrize("odd", ["0.1_2", "\u0661"])
    def test_numbers_only_python_reads_make_a_column_categorical(self, tmp_path, odd):
        # float() reads these as 0.12 and 1.0; numpy's reader does not.
        path = tmp_path / "data.csv"
        path.write_text(f"ts,f1,f2,label\n0,1.5,{odd},0\n1,2.5,2,1\n2,1e-3,3,0\n",
                        encoding="utf-8")
        ds = load_csv(path, timestamp_column="ts", label_column="label")
        assert {spec.name: spec.kind for spec in ds.schema} == {
            "f1": NUMERIC, "f2": CATEGORICAL}
        assert ds.columns["f1"].tolist() == [1.5, 2.5, 1e-3]
        assert ds.columns["f2"].tolist() == [odd, "2", "3"]

    def test_label_literal_mapping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n0,1,false call\n1,2,defect\n2,3,false call\n")
        ds = load_csv(path, timestamp_column="ts", label_column="label",
                      positive_label="defect")
        assert list(ds.labels) == [0, 1, 0]

    def test_shuffled_timestamps_resorted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n5,1,0\n1,2,1\n3,3,0\n")
        ds = load_csv(path, timestamp_column="ts", label_column="label")
        assert list(ds.timestamps) == [1.0, 3.0, 5.0]
        assert list(ds.labels) == [1, 0, 0]

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n2024-01-02T00:00:00,1,0\n2024-01-01T00:00:00,2,1\n")
        ds = load_csv(path, timestamp_column="ts", label_column="label")
        assert list(ds.labels) == [1, 0]

    def test_unparseable_timestamp_reported_with_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n0,1,0\nyesterday,2,1\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path, timestamp_column="ts", label_column="label")
        assert str(info.value) == f"{path}: line 3: unparseable timestamp 'yesterday'"

    def test_non_finite_timestamps_reported_with_their_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n1,1,0\nnan,2,1\n3,3,0\ninf,4,1\n")
        with pytest.raises(IngestionError) as info:
            load_csv(path, timestamp_column="ts", label_column="label")
        assert str(info.value) == (f"{path}: line 3: non-finite timestamp 'nan'; "
                                   "line 5: non-finite timestamp 'inf'")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x\n0,1\n")
        with pytest.raises(IngestionError):
            load_csv(path, timestamp_column="ts", label_column="label")

    def test_nonbinary_labels_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n0,1,a\n1,2,b\n2,3,c\n")
        with pytest.raises(IngestionError):
            load_csv(path, timestamp_column="ts", label_column="label",
                     positive_label="a")

    def test_missing_numeric_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n0,1,0\n1,,1\n2,3,0\n")
        with pytest.raises(IngestionError, match="line"):
            load_csv(path, timestamp_column="ts", label_column="label")
        # Only an empty cell is missing; a literal nan or inf never is.
        path.write_text("ts,x,label\n0,1,0\n1,,1\n2,nan,0\n3,inf,1\n4,5,0\n")
        for missing, lines in (("reject", "3, 4, 5"), ("impute", "4, 5")):
            with pytest.raises(IngestionError) as info:
                load_csv(path, timestamp_column="ts", label_column="label",
                         missing=missing)
            assert str(info.value) == (
                f"{path}: column 'x' has missing or non-finite values at lines {lines}")

    @pytest.mark.parametrize("text", [
        "ts,x,label\n0,1,0\n1,2,1\n2,3,0\n\n",
        "ts,x,label\n0,1,0\n\n1,2,1\n\n\n2,3,0\n",
    ], ids=["trailing", "mid-file"])
    def test_blank_lines_are_skipped(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        ds = load_csv(path, timestamp_column="ts", label_column="label")
        assert list(ds.timestamps) == [0.0, 1.0, 2.0]
        assert list(ds.labels) == [0, 1, 0]
        assert list(ds.columns["x"]) == [1.0, 2.0, 3.0]

    def test_lines_after_a_blank_line_keep_their_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n0,1,0\n\n1,,1\n2,3\n")
        with pytest.raises(IngestionError, match="line 5: expected 3 fields, got 2"):
            load_csv(path, timestamp_column="ts", label_column="label")
        path.write_text("ts,x,label\n0,1,0\n\n1,,1\n2,3,0\n")
        with pytest.raises(IngestionError, match="values at lines 4$"):
            load_csv(path, timestamp_column="ts", label_column="label")

    def test_lines_after_a_multiline_field_keep_their_numbers(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('ts,x,label\n0,1,0\n1,"2\n",1\n2,3\n')
        with pytest.raises(IngestionError, match="line 5: expected 3 fields, got 2"):
            load_csv(path, timestamp_column="ts", label_column="label")
        path.write_text('ts,c,x,label\n0,"a\nb",1,0\n1,b,,1\n')
        with pytest.raises(IngestionError, match="values at lines 4$"):
            load_csv(path, timestamp_column="ts", label_column="label")

    def test_impute_mode_keeps_nan_for_encoder(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,x,label\n0,1,0\n1,,1\n2,3,0\n")
        ds = load_csv(path, timestamp_column="ts", label_column="label",
                      missing="impute")
        assert np.isnan(ds.columns["x"][1])
        matrix, _ = one_hot_fit_transform(ds)
        assert matrix.X[1, 0] == 2.0  # median of 1 and 3

    def test_roundtrip_identity(self, tmp_path):
        config = SyntheticConfig(n_rows=120, prevalence=0.2, seed=5)
        ds = generate_synthetic(config)
        path = tmp_path / "out.csv"
        write_csv(ds, path)
        back = load_csv(path, timestamp_column="timestamp", label_column="label")
        assert back.n_rows == ds.n_rows
        assert np.array_equal(back.timestamps, ds.timestamps)
        assert np.array_equal(back.labels, ds.labels)
        assert tuple(s.name for s in back.schema) == tuple(s.name for s in ds.schema)
        for spec in ds.schema:
            if spec.kind == NUMERIC:
                assert np.array_equal(back.columns[spec.name], ds.columns[spec.name])
            else:
                assert list(back.columns[spec.name]) == list(ds.columns[spec.name])

    def test_interrupted_write_leaves_old_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("interrupted")

        ds = generate_synthetic(SyntheticConfig(n_rows=120, prevalence=0.2, seed=5))
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        ds.columns["source"][60] = Unprintable()
        with pytest.raises(RuntimeError, match="interrupted"):
            write_csv(ds, path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        ds.columns["source"][60] = "c0"
        write_csv(ds, path)
        assert load_csv(path).n_rows == 120
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


#: Each body is a dataset CSV (``score`` is a numeric feature) and a score
#: export at once, with the problem both readers report, or None for accepted.
SHARED_CSV_RULES = {
    "field-count-after-blank-line": (
        "timestamp,score,label\n0,0.5,1\n\n1,0.2\n", "line 4: expected 3 fields, got 2"),
    "field-count-after-multiline-field": (
        'timestamp,score,label\n0,"0.5\n",1\n1,0.2\n', "line 4: expected 3 fields, got 2"),
    "non-finite-timestamp": (
        "timestamp,score,label\n0,0.5,1\nnan,0.2,0\ninf,0.3,1\n",
        "line 3: non-finite timestamp 'nan'; line 4: non-finite timestamp 'inf'"),
    "unparseable-timestamp": (
        "timestamp,score,label\n0,0.5,1\nyesterday,0.2,0\n",
        "line 3: unparseable timestamp 'yesterday'"),
    "timestamp-and-field-count-in-line-order": (
        "timestamp,score,label\n0,0.5,1\nyesterday,0.2,0\n1,0.2\n",
        "line 3: unparseable timestamp 'yesterday'; line 4: expected 3 fields, got 2"),
    # float() reads these as 10 and 3; numpy's reader does not.
    "underscore-timestamp": (
        "timestamp,score,label\n0,0.5,1\n1_0,0.2,0\n",
        "line 3: unparseable timestamp '1_0'"),
    "arabic-indic-timestamp": (
        "timestamp,score,label\n0,0.5,1\n\u0663,0.2,0\n",
        "line 3: unparseable timestamp '\u0663'"),
    "iso-timestamp": (
        "timestamp,score,label\n2024-01-01T00:00:00,0.5,1\n2024-01-02T12:00:00,0.2,0\n",
        None),
    "empty-file": ("", "file is empty"),
    "missing-column": ("timestamp,score\n0,0.5\n", "missing column 'label'"),
    "duplicate-column": ("timestamp,score,label,score\n0,0.5,1,0.2\n",
                         "line 1: column 'score' appears twice"),
}


def _score_stamps(path):
    return experiment.read_scores_csv(path)[2]


@pytest.mark.parametrize("read", [
    lambda path: load_csv(path).timestamps,
    _score_stamps,
    _score_stamps,
], ids=["load_csv", "read_scores_csv-16", "read_scores_csv"])
@pytest.mark.parametrize("body, problem", SHARED_CSV_RULES.values(),
                         ids=SHARED_CSV_RULES.keys())
def test_both_csv_readers_apply_the_same_rules(tmp_path, read, body, problem):
    path = tmp_path / "both.csv"
    path.write_text(body)
    if problem is None:
        assert list(read(path)) == [utc(2024, 1, 1), utc(2024, 1, 2, 12)]
        return
    with pytest.raises(IngestionError) as info:
        read(path)
    assert str(info.value) == f"{path}: {problem}"


def test_score_reader_lives_in_dataset_alone():
    # The readers are patched on ``dataset``; a copy left in ``experiment``
    # would let such a patch change nothing.
    assert experiment.read_scores_csv is dataset.read_scores_csv
    assert not {"csv", "_score_columns", "_splits_plainly", "_UNSPLIT_BYTES",
                "_read_score_rows"} & set(vars(experiment))


@pytest.mark.parametrize("end", [b"\n", b"\r"])
@pytest.mark.parametrize("offset", [-100, -60, -1, 0])
@pytest.mark.parametrize("length", [99, 100, 101])
def test_line_length_check_spans_read_blocks(tmp_path, end, offset, length):
    # A line of ``length`` bytes starting ``offset`` bytes from the end of
    # the first megabyte read, against a csv field limit of 100.
    path = tmp_path / "scores.csv"
    path.write_bytes(end * ((1 << 20) + offset) + b"x" * length + end + b"0.5,1" + end)
    default = csv.field_size_limit(100)
    try:
        assert dataset._splits_plainly(path) == (length <= 100)
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("row, problem", [
    ("0.1_2,1", "score '0.1_2'"),
    ("\u0661,1", "score '\u0661'"),
    ("0.5,0_1", "label '0_1'"),
    ("0.5,\u0661", "label '\u0661'"),
], ids=["score-underscore", "score-arabic-indic", "label-underscore",
        "label-arabic-indic"])
def test_number_spellings_only_python_reads_are_rejected(tmp_path, row, problem):
    # float() and int() read these (0.12, 1.0, 1, 1); numpy's reader does not.
    path = tmp_path / "scores.csv"
    path.write_text(f"score,label\n0.5,1\n{row}\n", encoding="utf-8")
    with pytest.raises(IngestionError) as info:
        dataset.read_scores_csv(path)
    assert str(info.value) == (f"{path}: line 3: {problem} holds '_' "
                               f"or a non-ASCII character")


def utc(*fields):
    return datetime(*fields, tzinfo=timezone.utc).timestamp()


#: New York's daylight-saving rule as a POSIX ``TZ`` string, which needs no
#: zone database: clocks went from 02:00 to 03:00 on 2024-03-10.
NEW_YORK = "EST5EDT,M3.2.0,M11.1.0"


def test_naive_iso_stamps_are_utc_whatever_the_host_zone(tmp_path):
    # 02:30 does not exist in New York that day; read as local time it
    # would land after 03:15.  The stamp with an offset keeps its meaning.
    path = tmp_path / "stamps.csv"
    path.write_text("timestamp,score,label\n2024-03-10T03:15:00,0.5,1\n"
                    "2024-03-10T02:30:00,0.2,0\n2024-03-10T02:30:00-05:00,0.3,1\n")
    code = ("import json, sys\n"
            "from datetime import datetime\n"
            "from falsecall.dataset import load_csv\n"
            "from falsecall.experiment import read_scores_csv\n"
            "print(json.dumps([datetime(2024, 7, 1).timestamp(),\n"
            "                  list(load_csv(sys.argv[1]).timestamps),\n"
            "                  list(read_scores_csv(sys.argv[1])[2])]))\n")
    src = str(Path(falsecall.__file__).parents[1])
    env = {**os.environ, "TZ": NEW_YORK,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                            capture_output=True, text=True, check=True)
    local_midsummer, loaded, scored = json.loads(result.stdout)
    assert local_midsummer == utc(2024, 7, 1, 4)
    in_file = [utc(2024, 3, 10, 3, 15), utc(2024, 3, 10, 2, 30), utc(2024, 3, 10, 7, 30)]
    assert loaded == sorted(in_file)
    assert scored == in_file


class TestOneHot:
    def _categorical_ds(self, values, labels=None):
        n = len(values)
        return Dataset(
            timestamps=np.arange(n, dtype=float),
            labels=np.array(labels or [0] * n, dtype=np.int64),
            columns={"cat": np.array(values, dtype=object)},
            schema=(ColumnSpec("cat", CATEGORICAL),))

    def test_levels_become_indicator_columns(self):
        matrix, encoder = one_hot_fit_transform(
            self._categorical_ds(["A", "B", "C", "A"]))
        assert matrix.column_names == ("cat=A", "cat=B", "cat=C")
        assert matrix.X.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_unseen_level_encodes_to_zeros(self):
        _, encoder = one_hot_fit_transform(self._categorical_ds(["A", "B", "C"]))
        moved = encoder.transform(self._categorical_ds(["D", "B", "D"]))
        assert moved.X.tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_numeric_only_passthrough(self):
        ds = make_dataset(5, positives_at=[1], extra_numeric=[3.0, 1.0, 4.0, 1.5, 9.0])
        matrix, _ = one_hot_fit_transform(ds)
        assert matrix.X[:, 0].tolist() == [3.0, 1.0, 4.0, 1.5, 9.0]
        assert matrix.column_names == ("x0",)

    def test_empty_dataset_rejected(self):
        empty = Dataset(timestamps=np.array([]), labels=np.array([], dtype=np.int64),
                        columns={"x0": np.array([])},
                        schema=(ColumnSpec("x0", NUMERIC),))
        with pytest.raises(InputError):
            one_hot_fit_transform(empty)

    def test_dataset_without_feature_columns_rejected(self):
        ds = Dataset(timestamps=np.arange(4, dtype=float),
                     labels=np.array([0, 1, 0, 1]), columns={}, schema=())
        with pytest.raises(InputError, match="no feature columns"):
            one_hot_fit_transform(ds)

    def test_transform_is_column_stable(self):
        ds = self._categorical_ds(["B", "A", "B", "C"])
        matrix, encoder = one_hot_fit_transform(ds)
        again = encoder.transform(ds)
        assert np.array_equal(matrix.X, again.X)
        assert matrix.column_names == again.column_names


class TestChronoSplit:
    def _balanced(self, n):
        return make_dataset(n, positives_at=range(0, n, 2))

    def test_hundred_rows_proportions(self):
        plan = chrono_split(self._balanced(100), seed=0)
        assert len(plan.hyper_indices) == 40
        assert len(plan.test_indices) == 10
        assert [len(s) for s in plan.slice_indices] == [10] * 5

    def test_same_seed_same_plan(self):
        ds = self._balanced(144)
        first = chrono_split(ds, seed=9)
        second = chrono_split(ds, seed=9)
        assert np.array_equal(first.hyper_indices, second.hyper_indices)
        assert np.array_equal(first.test_indices, second.test_indices)

    def test_different_seed_different_hyper_set(self):
        ds = self._balanced(144)
        assert not np.array_equal(chrono_split(ds, seed=1).hyper_indices,
                                  chrono_split(ds, seed=2).hyper_indices)

    def test_stratification_puts_one_positive_in_test(self):
        # 1000 rows, 1% positives, 5 of them in the first half
        positives = [50, 150, 250, 350, 450, 600, 700, 800, 900, 950]
        ds = make_dataset(1000, positives_at=positives)
        pytest.raises(InputError, chrono_split, ds, 0)  # only 5 per class minimum
        # pad the defect count in the first half to make stratification feasible
        positives = list(range(10, 210, 20)) + [600, 700, 800, 900, 950]
        ds = make_dataset(1000, positives_at=positives)
        plan = chrono_split(ds, seed=3)
        test_labels = ds.labels[plan.test_indices]
        assert test_labels.sum() == 2  # floor(0.8 * 10) leaves 2 of 10 for test

    def test_partition_and_chronology(self):
        ds = self._balanced(103)
        plan = chrono_split(ds, seed=4)
        pieces = [plan.hyper_indices, plan.test_indices] + plan.slice_indices
        joined = np.concatenate(pieces)
        assert len(joined) == 103
        assert len(np.unique(joined)) == 103
        first_half = np.concatenate([plan.hyper_indices, plan.test_indices])
        assert ds.timestamps[first_half].max() <= ds.timestamps[
            plan.slice_indices[0]].min()
        for a, b in zip(plan.slice_indices, plan.slice_indices[1:]):
            assert ds.timestamps[a].max() <= ds.timestamps[b].min()

    def test_infeasible_stratification_rejected(self):
        ds = make_dataset(100, positives_at=[0, 2, 4])
        with pytest.raises(InputError):
            chrono_split(ds, seed=0)


class TestStratifiedKfold:
    def _matrix(self, n, positives_at):
        ds = make_dataset(n, positives_at=positives_at)
        matrix, _ = one_hot_fit_transform(ds)
        return matrix

    def test_each_fold_gets_one_positive(self):
        matrix = self._matrix(50, positives_at=[3, 13, 23, 33, 43])
        folds = stratified_kfold(matrix, 5, seed=0)
        for _, val in folds:
            assert matrix.labels[val].sum() == 1

    def test_partition(self):
        matrix = self._matrix(50, positives_at=[3, 13, 23, 33, 43])
        folds = stratified_kfold(matrix, 5, seed=0)
        stacked = np.concatenate([val for _, val in folds])
        assert len(np.unique(stacked)) == 50
        for train, val in folds:
            assert np.intersect1d(train, val).size == 0
            assert len(train) + len(val) == 50

    def test_k_one_rejected(self):
        matrix = self._matrix(50, positives_at=[3, 13, 23, 33, 43])
        with pytest.raises(InputError):
            stratified_kfold(matrix, 1, seed=0)

    def test_small_class_rejected(self):
        matrix = self._matrix(50, positives_at=[3, 13])
        with pytest.raises(InputError):
            stratified_kfold(matrix, 5, seed=0)

    def test_deterministic(self):
        matrix = self._matrix(60, positives_at=list(range(0, 60, 6)))
        first = stratified_kfold(matrix, 5, seed=12)
        second = stratified_kfold(matrix, 5, seed=12)
        for (t1, v1), (t2, v2) in zip(first, second):
            assert np.array_equal(t1, t2) and np.array_equal(v1, v2)


class TestGenerateSynthetic:
    def test_positive_count_bounded(self):
        ds = generate_synthetic(SyntheticConfig(n_rows=10000, prevalence=0.01, seed=1))
        positives = int(ds.labels.sum())
        assert 50 <= positives <= 150

    def test_deterministic_per_seed(self):
        config = SyntheticConfig(n_rows=500, prevalence=0.05, seed=42)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.columns["x0"], b.columns["x0"])

    def test_disjoint_windows_respect_time(self):
        config = SyntheticConfig(n_rows=1000, prevalence=0.1, n_clusters=2,
                                 cluster_windows=((0.0, 0.5), (0.5, 1.0)), seed=7)
        ds = generate_synthetic(config)
        source = ds.columns["source"]
        fractions = ds.timestamps / (ds.n_rows - 1)
        assert np.all(fractions[source == "c1"] >= 0.5)
        assert np.all(fractions[source == "c0"] <= 0.5)

    def test_stationary_halves_have_similar_prevalence(self):
        ds = generate_synthetic(SyntheticConfig(n_rows=8000, prevalence=0.1,
                                                drift_strength=0.0, seed=3))
        half = ds.n_rows // 2
        early = float(np.mean(ds.labels[:half]))
        late = float(np.mean(ds.labels[half:]))
        assert abs(early - late) < 0.03

    def test_window_validation(self):
        with pytest.raises(InputError):
            SyntheticConfig(n_rows=100, prevalence=0.1, n_clusters=2,
                            cluster_windows=((0.0, 0.4), (0.6, 1.0)))
        with pytest.raises(InputError):
            SyntheticConfig(n_rows=100, prevalence=0.1, n_clusters=1,
                            cluster_windows=((0.2, 1.0),))
        with pytest.raises(InputError):
            SyntheticConfig(n_rows=100, prevalence=0.7)


class TestPca2d:
    def _matrix_from(self, X, labels=None):
        n = X.shape[0]
        labels = np.array(labels if labels is not None else [0] * n, dtype=np.int64)
        columns = {f"x{i}": X[:, i] for i in range(X.shape[1])}
        schema = tuple(ColumnSpec(f"x{i}", NUMERIC) for i in range(X.shape[1]))
        ds = Dataset(timestamps=np.arange(n, dtype=float), labels=labels,
                     columns=columns, schema=schema)
        matrix, _ = one_hot_fit_transform(ds)
        return matrix

    def test_two_dim_input_is_a_rotation(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        result = pca2d(self._matrix_from(X))
        centered = X - X.mean(axis=0)
        total_in = float((centered ** 2).sum())
        total_out = float((result.coords ** 2).sum())
        assert abs(total_in - total_out) < 1e-8 * max(total_in, 1.0)

    def test_single_axis_variance_kills_pc2(self):
        X = np.zeros((30, 3))
        X[:, 1] = np.linspace(-3, 3, 30)
        result = pca2d(self._matrix_from(X))
        assert np.max(np.abs(result.coords[:, 1])) < 1e-9

    def test_projection_is_centered_and_orthogonal(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        result = pca2d(self._matrix_from(X))
        assert np.all(np.abs(result.coords.mean(axis=0)) <= 1e-9)
        assert abs(float(result.components[0] @ result.components[1])) <= 1e-8
        assert result.explained_variance[0] >= result.explained_variance[1]

    def test_two_window_clusters_separate(self):
        config = SyntheticConfig(n_rows=1200, prevalence=0.1, n_clusters=2,
                                 cluster_windows=((0.0, 0.5), (0.5, 1.0)),
                                 noise=1.0, seed=2)
        ds = generate_synthetic(config)
        matrix, _ = one_hot_fit_transform(
            Dataset(timestamps=ds.timestamps, labels=ds.labels,
                    columns={k: v for k, v in ds.columns.items() if k != "source"},
                    schema=tuple(s for s in ds.schema if s.name != "source")))
        result = pca2d(matrix)
        half = ds.n_rows // 2
        early = result.coords[:half].mean(axis=0)
        late = result.coords[half:].mean(axis=0)
        assert np.linalg.norm(early - late) > config.noise

    def test_identical_rows_rejected(self):
        X = np.ones((10, 3))
        with pytest.raises(DegenerateDataError):
            pca2d(self._matrix_from(X))

    def test_too_small_inputs_rejected(self):
        with pytest.raises(InputError):
            pca2d(self._matrix_from(np.zeros((2, 3))))
        rng = np.random.default_rng(1)
        one_col = self._matrix_from(rng.standard_normal((10, 2))[:, :1])
        with pytest.raises(InputError):
            pca2d(one_col)
