import csv
import inspect
import io
import json

import numpy as np
import pytest

from falsecall import cli, metrics
from falsecall.cli import NO_THRESHOLD_MARK, main, parse_kv_text
from falsecall.dataset import load_csv
from falsecall.errors import FalseCallError, IngestionError

TARGET_FLAGS = ["--s-target", "0.01", "--v-target", "0.40"]


def run_cli(args):
    return main(args)


def unreachable(*args, **kwargs):
    raise AssertionError("a size over the limit reached the allocation")


def write_scores(path, rows, header="score,label"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def experiment_config(tmp_path, **overrides):
    values = {
        "run_id": "demo",
        "models": "dummy",
        "regime": "requirement_aware",
        "budget": 1,
        "n_seeds": 2,
        "base_seed": 0,
        "data": "synthetic",
        "synthetic.n_rows": 3000,
        "synthetic.prevalence": 0.02,
        "synthetic.seed": 1,
    }
    values.update(overrides)
    path = tmp_path / "config.txt"
    path.write_text("\n".join(f"{k} = {v}" for k, v in values.items()) + "\n")
    return str(path)


class TestEvaluate:
    def test_perfect_scores_table(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv",
                              ["0.9,1", "0.8,1", "0.1,0", "0.2,0", "0.05,0"])
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "table.csv").read_text())))
        header, overall = rows[0], rows[1]
        assert overall[header.index("v_at_s")] == "1.000"
        assert overall[header.index("cauc")] == "1.000"
        curve = json.loads((out / "curve.json").read_text())
        assert curve["case"] == 1

    def test_constant_scores_hit_floor(self, tmp_path):
        scores = write_scores(tmp_path / "s.csv",
                              [f"0.0,{1 if i < 2 else 0}" for i in range(100)])
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "table.csv").read_text())))
        header, overall = rows[0], rows[1]
        assert overall[header.index("cauc")] == "-1.000"

    def test_no_threshold_marks_cv_column(self, tmp_path):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1", "0.1,0", "0.3,0"])
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO((out / "table.csv").read_text())))
        header, overall = rows[0], rows[1]
        assert overall[header.index("cv")] == NO_THRESHOLD_MARK
        table = json.loads((out / "table.json").read_text())
        assert table["threshold_supplied"] is False
        assert table["rows"][0]["cv"] is None

    def test_threshold_reproduces_core_metrics(self, tmp_path):
        rng = np.random.default_rng(0)
        pairs = [f"{rng.random():.3f},{int(rng.random() < 0.3)}" for _ in range(50)]
        scores = write_scores(tmp_path / "s.csv", pairs)
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--threshold", "0.5", "--out", str(out)]) == 0
        table = json.loads((out / "table.json").read_text())
        from falsecall.experiment import evaluate_external
        from falsecall.metrics import TargetSpec
        direct = evaluate_external(scores, TargetSpec(), threshold=0.5)
        assert table["rows"][0]["cv"] == direct.report.cv

    def test_slice_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        pairs = [f"{rng.random():.3f},{int(rng.random() < 0.3)},{i}"
                 for i in range(60)]
        scores = write_scores(tmp_path / "s.csv", pairs,
                              header="score,label,timestamp")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--slices-by-timestamp", "3", "--out", str(out)]) == 0
        table = json.loads((out / "table.json").read_text())
        assert [r["eval_set"] for r in table["rows"]] == [
            "overall", "slice1", "slice2", "slice3"]

    def test_bad_file_exits_one(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv", ["0.5,1", "bogus,0"])
        code = run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_timestamps_exit_one(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv",
                              ["0.9,1,0", "0.1,0,nan", "0.8,0,1", "0.3,1,inf",
                               "0.2,0,2", "0.7,1,3"], header="score,label,timestamp")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--slices-by-timestamp", "2", "--out", str(out)]) == 1
        assert ("s.csv: line 3: non-finite timestamp 'nan'; "
                "line 5: non-finite timestamp 'inf'") in capsys.readouterr().err
        assert not out.exists()

    def test_underscore_score_exits_one_naming_the_line(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1", "0.1_2,0"])
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(tmp_path / "out")]) == 1
        assert ("s.csv: line 3: score '0.1_2' holds '_' or a non-ASCII character"
                in capsys.readouterr().err)

    def test_missing_file_exits_one(self, tmp_path):
        assert run_cli(["evaluate", "--scores", str(tmp_path / "nope.csv"),
                        *TARGET_FLAGS, "--out", str(tmp_path / "out")]) == 1

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_bytes(b"score,label\n0.5,1\n\xff,0\n")
        assert run_cli(["evaluate", "--scores", str(path), *TARGET_FLAGS,
                        "--out", str(tmp_path / "out")]) == 1
        assert "s.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [[], ["--threshold", "0.5"]])
    def test_more_slices_than_rows_exits_one(self, tmp_path, capsys, threshold):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1,0", "0.1,0,1", "0.3,0,2"],
                              header="score,label,timestamp")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS, *threshold,
                        "--slices-by-timestamp", "5", "--out", str(out)]) == 1
        assert "n_slices=5 exceeds the 3 rows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_slices", ["1", "0"])
    def test_fewer_than_two_slices_exits_one(self, tmp_path, capsys, n_slices):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1,0", "0.1,0,1", "0.3,0,2"],
                              header="score,label,timestamp")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--slices-by-timestamp", n_slices, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_slices must be >= 2\n"
        assert not out.exists()

    def test_slice_count_checked_before_the_score_file_is_read(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", str(tmp_path / "missing.csv"),
                        *TARGET_FLAGS, "--slices-by-timestamp", "1",
                        "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: n_slices must be >= 2\n"
        assert not out.exists()

    def test_negative_infinite_threshold_keeps_its_sign(self, tmp_path):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1", "0.1,0", "0.3,0"])
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--threshold=-inf", "--out", str(out)]) == 0
        table = json.loads((out / "table.json").read_text())
        assert table["rows"][0]["threshold"] == "-inf"
        assert table["rows"][0]["volume_reduction"] == 0.0

    def test_nan_threshold_exits_one(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1", "0.1,0", "0.3,0"])
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--threshold=nan", "--out", str(out)]) == 1
        assert "threshold must be a number, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_single_class_run_removes_stale_curve(self, tmp_path):
        out = tmp_path / "out"
        both = write_scores(tmp_path / "both.csv", ["0.9,1", "0.1,0", "0.3,0"])
        assert run_cli(["evaluate", "--scores", both, *TARGET_FLAGS,
                        "--out", str(out)]) == 0
        assert (out / "curve.json").exists()
        single = write_scores(tmp_path / "single.csv", ["0.9,0", "0.1,0"])
        assert run_cli(["evaluate", "--scores", single, *TARGET_FLAGS,
                        "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["table.csv", "table.json"]
        assert json.loads((out / "table.json").read_text())["rows"][0]["n_rows"] == 2

    @pytest.mark.parametrize("row, count", [("0.5", 1), ("0.5,1,7", 3)])
    def test_row_with_wrong_field_count_exits_one(self, tmp_path, capsys, row, count):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1", row, "0.1,0"])
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(tmp_path / "out")]) == 1
        assert f"line 3: expected 2 fields, got {count}" in capsys.readouterr().err

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        scores = write_scores(tmp_path / "s.csv", ["0.9,1", "0.1,0", "0.3,0"])
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert run_cli(["evaluate", "--scores", scores, *TARGET_FLAGS,
                        "--out", str(out)]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "taken"]


class TestExperiment:
    def test_dummy_only_fails_verdict(self, tmp_path, capsys):
        config = experiment_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["experiment", "--config", config, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "dummy: FAIL" in captured.out
        assert "seeds passing 0/2" in captured.out
        names = sorted(p.name for p in (out / "demo").iterdir())
        assert names == ["curve.json", "table.csv", "table.json",
                         "timeline.csv", "timeline.json"]

    def test_config_violations_enumerated(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("models = dummy\nbogus_key = 1\ndata = nothing\n")
        code = run_cli(["experiment", "--config", str(path),
                        "--out", str(tmp_path / "out")])
        assert code == 1
        message = capsys.readouterr().err
        assert "bogus_key" in message and "data" in message

    def test_bare_group_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("models = dummy\ndata = synthetic\ncsv = oops\n"
                        "synthetic.n_rows = 200\nsynthetic.prevalence = 0.1\n")
        assert run_cli(["experiment", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 1
        assert "csv" in capsys.readouterr().err

    def test_bad_numbers_named_and_exit_one(self, tmp_path, capsys):
        config = experiment_config(tmp_path, budget="abc", s_target="1%",
                                   **{"synthetic.n_rows": "3e3",
                                      "space.knn.k": "1:x"})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        message = capsys.readouterr().err
        for key in ("budget", "s_target", "synthetic.n_rows", "space.knn.k"):
            assert f"key {key!r}" in message

    @pytest.mark.parametrize("key", ["space.forest", "space."])
    def test_space_key_without_parameter_rejected(self, tmp_path, capsys, key):
        config = experiment_config(tmp_path, **{key: "1:2"})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_every_mistake_reported_at_once(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_text("models = dummy, xgboost\ndata = synthetic\n"
                        "budget = many\nsynthetic.prevalence = 0.1\n"
                        "synthetic.windows = 0-1\nspace.knn.q = 1:3\n")
        assert run_cli(["experiment", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 1
        message = capsys.readouterr().err
        assert message.count("\n") == 1
        for part in ("key 'budget'", "key 'synthetic.windows'",
                     "missing key 'synthetic.n_rows'",
                     "unknown key 'space.knn.q'", "xgboost"):
            assert part in message

    def test_range_checks_reported_with_key_problems(self, tmp_path, capsys):
        config = experiment_config(tmp_path, budget=0, s_target=2, bogus=1,
                                   **{"space.forest.n_trees": "5:400",
                                      "synthetic.prevalence": 0.7})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        message = capsys.readouterr().err
        assert message.count("\n") == 1
        for part in ("unknown key 'bogus'", "budget must be >= 1",
                     "s_target must lie in (0, 1)",
                     "bounds n_trees=(5, 400) leave the declared range",
                     "prevalence must lie in (0, 0.5)"):
            assert part in message

    @pytest.mark.parametrize("bad_file", ["config", "csv.path"])
    def test_non_utf8_file_exits_one(self, tmp_path, capsys, bad_file):
        data = tmp_path / "data.csv"
        data.write_bytes(b"timestamp,x,label\n0,\xff,0\n")
        config = experiment_config(tmp_path, data="csv",
                                   **{"csv.path": str(data)})
        if bad_file == "config":
            with open(config, "ab") as handle:
                handle.write(b"# \xff\n")
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert ("config.txt" if bad_file == "config" else "data.csv") in err

    def test_dataset_without_feature_columns_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("ts,label\n" + "".join(f"{t},{int(t % 5 == 0)}\n"
                                               for t in range(100)))
        config = experiment_config(tmp_path, models="knn", data="csv",
                                   **{"csv.path": str(data),
                                      "csv.timestamp_column": "ts"})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert (f"{data}: no feature columns, only 'ts' and 'label'"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_csv_keys_are_the_parameters_of_load_csv(self):
        assert (list(cli._EXPERIMENT_KEYS["csv."])
                == list(inspect.signature(load_csv).parameters))

    def test_csv_missing_key_sets_the_policy(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("timestamp,x,label\n0,1,0\n1,,1\n2,3,0\n")
        config = experiment_config(tmp_path, data="csv", **{
            "csv.path": str(data), "csv.missing": "impute"})
        _, dataset, _ = cli.load_experiment_setup(config)
        assert np.isnan(dataset.columns["x"]).tolist() == [False, True, False]

    def test_unknown_missing_policy_exits_one(self, tmp_path, capsys):
        config = experiment_config(tmp_path, data="csv", **{
            "csv.path": str(tmp_path / "data.csv"), "csv.missing": "maybe"})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: key 'csv.missing' must be 'reject' or 'impute', "
            "got 'maybe'\n")

    def test_missing_policy_reported_with_the_key_problems(self, tmp_path, capsys):
        config = experiment_config(tmp_path, data="csv", bogus=1, **{
            "csv.path": str(tmp_path / "data.csv"), "csv.missing": "maybe"})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {config}: key 'csv.missing' must be 'reject' or 'impute', "
            "got 'maybe'; unknown key 'bogus'\n")

    def test_unknown_model_kind_rejected(self, tmp_path, capsys):
        config = experiment_config(tmp_path, models="dummy, xgboost")
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert "xgboost" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, problem", [
        ({"models": "dummy, knn, dummy"}, "model kind 'dummy' is repeated"),
        ({"models": "knn", "space.knn.k": "2:2"}, "knn: k=(2, 2) holds no odd value"),
        ({"models": "random_forest", "space.forest.n_trees": "20:10"},
         "n_trees=(20, 10) needs low <= high"),
        ({"models": ""}, "at least one model kind is required"),
        ({"k_folds": 1}, "k_folds must be >= 2"),
        ({"n_seeds": 0}, "n_seeds must be >= 1"),
        ({"data": "synthetic", "synthetic.n_rows": 1}, "n_rows must be >= 2"),
        ({"data": "synthetic", "synthetic.n_features": 1}, "n_features must be >= 2"),
        ({"data": "synthetic", "synthetic.windows": "0.5:0.4"},
         "window (0.5, 0.4) must satisfy 0 <= start < end <= 1"),
        ({"data": "synthetic", "synthetic.windows": "0:0.9"},
         "cluster windows must cover the timestamp range"),
    ], ids=["repeated-kind", "k-without-odd-value", "reversed-range", "no-model-kind",
            "one-fold", "no-seed", "one-synthetic-row", "one-synthetic-feature",
            "reversed-window", "windows-short-of-the-range"])
    def test_config_rejected_before_data_is_read(self, tmp_path, capsys, monkeypatch,
                                                  overrides, problem):
        # The data file does not exist and no synthetic data may be generated:
        # reading or generating data would fail differently.
        monkeypatch.setattr(cli, "generate_synthetic", unreachable)
        config = experiment_config(tmp_path, **{
            "data": "csv", "csv.path": str(tmp_path / "absent.csv"), **overrides})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {config}: {problem}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, problem", [
        ({"csv.positive_label": "c"}, "positive label 'c' never occurs"),
        ({}, "label values ['a', 'b'] need positive_label mapping"),
        ({"csv.positive_label": "a", "csv.categorical_columns": "x, nope"},
         "categorical override names unknown columns ['nope']"),
        ({"csv.positive_label": "a", "csv.timestamp_column": "label"},
         "timestamp and label column are both 'label'"),
    ], ids=["positive-label-absent", "labels-need-mapping", "unknown-categorical-column",
            "timestamp-column-is-the-label-column"])
    def test_unusable_csv_labels_or_columns_exit_one(self, tmp_path, capsys, overrides,
                                                     problem):
        data = tmp_path / "data.csv"
        data.write_text("timestamp,x,label\n0,1,a\n1,2,b\n2,3,a\n")
        config = experiment_config(tmp_path, data="csv",
                                   **{"csv.path": str(data), **overrides})
        assert run_cli(["experiment", "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {data}: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run_cli(["experiment", "--config", str(tmp_path / "absent.txt"),
                        "--out", str(tmp_path / "out")]) == 1


class TestGenerate:
    def test_roundtrip(self, tmp_path):
        config = tmp_path / "gen.txt"
        config.write_text("n_rows = 300\nprevalence = 0.1\nseed = 3\n")
        out = tmp_path / "data.csv"
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(out)]) == 0
        ds = load_csv(out, timestamp_column="timestamp", label_column="label")
        assert ds.n_rows == 300
        assert 0.05 < ds.prevalence < 0.15

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "gen.txt"
        config.write_text("n_rows = 300\nprevalence = 0.1\nwat = 1\n")
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(tmp_path / "d.csv")]) == 1


    def test_problems_reported_together(self, tmp_path, capsys):
        config = tmp_path / "gen.txt"
        config.write_text("n_rows = 3x\nwindows = 0:1:2\nwat = 1\n")
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(tmp_path / "d.csv")]) == 1
        message = capsys.readouterr().err
        for part in ("key 'n_rows'", "key 'windows'",
                     "missing key 'prevalence'", "unknown key 'wat'"):
            assert part in message
        assert "missing key 'n_rows'" not in message

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        config = tmp_path / "gen.txt"
        config.write_bytes(b"n_rows = 300\nprevalence = 0.1\n# \xff\n")
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(tmp_path / "d.csv")]) == 1
        assert "gen.txt" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("key, value", [("noise", "nan"),
                                            ("drift_strength", "inf")])
    def test_non_finite_setting_exits_one(self, tmp_path, capsys, key, value):
        config = tmp_path / "gen.txt"
        config.write_text(f"n_rows = 300\nprevalence = 0.1\n{key} = {value}\n")
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(tmp_path / "d.csv")]) == 1
        assert f"gen.txt: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_too_many_rows_exit_one_before_allocating(self, tmp_path, capsys,
                                                      monkeypatch, command):
        monkeypatch.setattr(cli, "generate_synthetic", unreachable)
        if command == "generate":
            config = tmp_path / "gen.txt"
            config.write_text("n_rows = 100000000000\nprevalence = 0.1\n")
            config = str(config)
        else:
            config = experiment_config(tmp_path, **{"synthetic.n_rows": 100000000000})
        assert run_cli([command, "--config", config,
                        "--out", str(tmp_path / "out")]) == 1
        assert "n_rows must be <= 10000000, got 100000000000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_many_feature_cells_exit_one_before_allocating(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic", unreachable)
        config = tmp_path / "gen.txt"
        config.write_text("n_rows = 10\nprevalence = 0.2\nn_features = 1000000000000\n")
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(tmp_path / "d.csv")]) == 1
        assert ("n_features must be <= 5000000 for 10 rows (at most 50000000 "
                "feature cells), got 1000000000000" in capsys.readouterr().err)
        assert not (tmp_path / "d.csv").exists()

    def test_range_checks_join_key_problems(self, tmp_path, capsys):
        config = tmp_path / "gen.txt"
        config.write_text("n_rows = 300\nprevalence = 0.7\nbogus = 1\n")
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(tmp_path / "d.csv")]) == 1
        message = capsys.readouterr().err
        assert message.count("gen.txt:") == 1
        assert "unknown key 'bogus'" in message
        assert "prevalence must lie in (0, 0.5)" in message


class TestSurface:
    def test_resolution_three_has_nine_cells(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert run_cli(["surface", "--prevalence", "0.01", *TARGET_FLAGS,
                        "--resolution", "3", "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 10
        corner = next(r for r in rows[1:] if r[0] == "0.000000" and r[1] == "1.000000")
        assert float(corner[4]) == 1.0

    def test_json_output(self, tmp_path):
        out = tmp_path / "surface.json"
        assert run_cli(["surface", "--prevalence", "0.008", *TARGET_FLAGS,
                        "--resolution", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["accuracy"][2][2] == pytest.approx(0.992)

    def test_degenerate_resolution_exits_one(self, tmp_path):
        assert run_cli(["surface", "--prevalence", "0.01", "--resolution", "1",
                        "--out", str(tmp_path / "s.csv")]) == 1

    def test_resolution_over_the_limit_exits_one_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(metrics.np, "linspace", unreachable)
        monkeypatch.setattr(metrics, "analytic_metrics", unreachable)
        out = tmp_path / "s.csv"
        assert run_cli(["surface", "--prevalence", "0.01", "--resolution", "100000",
                        "--out", str(out)]) == 1
        assert ("grid resolution must lie in [2, 2048], got 100000"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_directory_exits_one(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "s.csv"
        assert run_cli(["surface", "--prevalence", "0.01", "--resolution", "3",
                        "--out", str(out)]) == 1
        message = capsys.readouterr().err
        assert f"error: cannot write {out}: " in message
        assert ".tmp" not in message
        assert list(tmp_path.iterdir()) == []


class TestDrift:
    def _generate(self, tmp_path, extra):
        config = tmp_path / "gen.txt"
        config.write_text("\n".join(f"{k} = {v}" for k, v in extra.items()) + "\n")
        data = tmp_path / "data.csv"
        assert run_cli(["generate", "--config", str(config),
                        "--out", str(data)]) == 0
        return data

    def test_stationary_centroids_stay_close(self, tmp_path):
        data = self._generate(tmp_path, {"n_rows": 1500, "prevalence": 0.1,
                                         "drift_strength": 0.0, "noise": 1.0,
                                         "seed": 2})
        out = tmp_path / "proj.csv"
        assert run_cli(["drift", "--data", str(data), "--out", str(out)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        coords = np.array([[float(r[0]), float(r[1])] for r in rows])
        indices = np.array([int(r[2]) for r in rows])
        early = coords[indices < 750].mean(axis=0)
        late = coords[indices >= 750].mean(axis=0)
        assert np.linalg.norm(early - late) < 1.0

    def test_json_output_contains_labels(self, tmp_path):
        data = self._generate(tmp_path, {"n_rows": 300, "prevalence": 0.2,
                                         "seed": 4})
        out = tmp_path / "proj.json"
        assert run_cli(["drift", "--data", str(data), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 300
        assert {r["label"] for r in payload["rows"]} == {0, 1}


    def test_timestamp_column_equal_to_label_column_exits_one(self, tmp_path, capsys):
        data = self._generate(tmp_path, {"n_rows": 300, "prevalence": 0.2, "seed": 4})
        assert run_cli(["drift", "--data", str(data), "--timestamp-column", "label",
                        "--label-column", "label", "--out", str(tmp_path / "proj.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {data}: timestamp and label column are both 'label'\n")
        assert not (tmp_path / "proj.csv").exists()

    def test_non_utf8_data_exits_one(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"timestamp,x,y,label\n0,1,2,0\n1,\xff,3,1\n")
        assert run_cli(["drift", "--data", str(data),
                        "--out", str(tmp_path / "proj.csv")]) == 1
        assert "data.csv" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        assert run_cli(["surface", "--prevalence", "0.01", "--what", "3"]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert run_cli(["frobnicate"]) == 1

    @pytest.mark.parametrize("error, shown", [
        (FalseCallError("broken invariant"), "internal error: broken invariant\n"),
        (RuntimeError("unforeseen"), "RuntimeError: unforeseen\n"),
    ], ids=["falsecall-error", "other-exception"])
    def test_internal_errors_exit_two(self, tmp_path, capsys, monkeypatch, error, shown):
        def failing(args):
            raise error

        monkeypatch.setattr(cli, "cmd_surface", failing)
        assert run_cli(["surface", "--prevalence", "0.01", "--resolution", "3",
                        "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.endswith(shown)
        assert err.startswith("Traceback") == (type(error) is RuntimeError)


class TestConfigText:
    def test_comment_and_blank_lines_are_skipped(self):
        text = "# models\n\nmodels = dummy\n   # indented comment\nlabel = a # b\n"
        assert parse_kv_text(text) == {"models": "dummy", "label": "a # b"}

    def test_duplicate_key_is_reported_with_its_line(self):
        with pytest.raises(IngestionError) as info:
            parse_kv_text("budget = 1\n# again\nbudget = 2\n", origin="c.txt")
        assert str(info.value) == "c.txt: line 3: duplicate key 'budget'"
