import csv
import io
import json

import numpy as np
import pytest

from falsecall import reporting
from falsecall.classifiers import DUMMY
from falsecall.curves import sweep_thresholds
from falsecall.dataset import (SyntheticConfig, generate_synthetic,
                               one_hot_fit_transform, pca2d)
from falsecall.errors import InputError
from falsecall.experiment import (REGIME_STANDARD, ExperimentConfig,
                                  SeedAggregate, run_multi_seed, score_report,
                                  verdict)
from falsecall.metrics import SENTINEL_THRESHOLD, TargetSpec, metric_surface
from falsecall.reporting import (DEFAULT_COLUMNS, build_bundle, dump_json,
                                 export_curve, export_timeline, render_table,
                                 report_to_json, write_bundle, write_export)
from tests.test_experiment import dc_dataset

TARGETS = TargetSpec()


def dummy_aggregates(n_seeds=3, regime="requirement_aware"):
    config = ExperimentConfig(model_kinds=(DUMMY,), regime=regime, budget=1,
                              n_seeds=n_seeds)
    return config, run_multi_seed(config, dc_dataset())


class TestRenderTable:
    def test_reject_nothing_row_formats(self):
        _, aggregates = dummy_aggregates()
        table_csv, table_json = render_table(aggregates)
        rows = list(csv.reader(io.StringIO(table_csv)))
        header = rows[0]
        test_row = next(r for r in rows[1:] if r[1] == "test")
        assert test_row[header.index("accuracy")] == "0.992±0.000"
        assert test_row[header.index("cv")] == "-0.990±0.000"
        assert test_row[header.index("cauc")] == "-1.000±0.000"

    def test_single_seed_std_zero(self):
        _, aggregates = dummy_aggregates(n_seeds=1)
        _, table_json = render_table(aggregates)
        for row in table_json["rows"]:
            for cell in row["metrics"].values():
                if cell["mean"] is not None:
                    assert cell["std"] == 0.0

    def test_requirement_columns_present_in_standard_regime(self):
        _, aggregates = dummy_aggregates(regime=REGIME_STANDARD)
        _, table_json = render_table(aggregates)
        assert table_json["columns"] == list(DEFAULT_COLUMNS)
        test_row = table_json["rows"][0]
        assert test_row["metrics"]["cv"]["mean"] is not None

    def test_csv_and_json_agree_at_display_precision(self):
        _, aggregates = dummy_aggregates()
        table_csv, table_json = render_table(aggregates)
        rows = list(csv.reader(io.StringIO(table_csv)))
        header = rows[0]
        for parsed, full in zip(rows[1:], table_json["rows"]):
            assert parsed[0] == full["model"]
            assert parsed[1] == full["eval_set"]
            for column in table_json["columns"]:
                cell = parsed[header.index(column)]
                entry = full["metrics"][column]
                if cell == "n/a":
                    assert entry["mean"] is None
                    continue
                mean_text, std_text = cell.split("±")
                assert float(mean_text) == pytest.approx(entry["mean"], abs=5e-4)
                assert float(std_text) == pytest.approx(entry["std"], abs=5e-4)

    def test_metric_no_seed_defines_is_n_a(self):
        # One class only: no slip rate and no curve, so no auc_pr.
        report = score_report([0.2, 0.7], [0, 0], TARGETS, threshold=0.5)
        aggregate = SeedAggregate(kind=DUMMY, seeds=(0, 1),
                                  reports={"test": [report, report]})
        table_csv, table_json = render_table({DUMMY: aggregate})
        header, row = csv.reader(io.StringIO(table_csv))
        assert [row[header.index(key)] for key in ("auc_pr", "slip_rate")] == ["n/a"] * 2
        assert dump_json(table_json["rows"][0]["metrics"]["auc_pr"]) == (
            '{\n  "mean": null,\n  "n": 0,\n  "std": null\n}\n')

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            render_table({})


class TestExportCurve:
    def test_perfect_classifier_is_case_one(self):
        curve = sweep_thresholds([0.9, 0.8, 0.1, 0.2, 0.15], [1, 1, 0, 0, 0])
        exported = export_curve(curve, TARGETS)
        assert exported["case"] == 1
        assert exported["cauc"] == pytest.approx(1.0)
        assert exported["target_zone"]["corners"] == [[0.4, 0.99], [1.0, 1.0]]

    def test_reject_nothing_is_case_three(self):
        curve = sweep_thresholds([0.0] * 12, [1] + [0] * 11)
        exported = export_curve(curve, TARGETS)
        assert exported["case"] == 3
        assert exported["cauc"] == -1.0

    def test_case_label_matches_value_sign(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = 100
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, 10, replace=False)] = 1
            scores = np.clip(0.4 * labels + rng.random(n) * 0.7, 0, 1)
            exported = export_curve(sweep_thresholds(scores, labels), TARGETS)
            if exported["case"] == 1:
                assert exported["cauc"] > 0
            elif exported["case"] == 3:
                assert exported["cauc"] < 0
            else:
                assert exported["cauc"] == 0.0

    def test_sentinel_threshold_serialises(self):
        curve = sweep_thresholds([0.9, 0.1], [1, 0])
        exported = export_curve(curve, TARGETS)
        assert exported["points"][-1]["threshold"] == "inf"

        def not_strict(constant):
            raise AssertionError(f"{constant} is not strict JSON")

        json.loads(dump_json(exported), parse_constant=not_strict)

    def test_points_are_a_read_only_sequence_of_point_dicts(self):
        curve = sweep_thresholds([0.9, 0.8, 0.1, 0.2, 0.15], [1, 1, 0, 0, 0])
        points = export_curve(curve, TARGETS)["points"]
        assert len(points) == len(curve)
        assert points[0] == {"threshold": float(curve.thresholds[0]),
                             "v": float(curve.v[0]),
                             "one_minus_s": float(1.0 - curve.s[0])}
        assert list(points)[-1] == points[-1]
        with pytest.raises(TypeError):
            points[0] = {}
        with pytest.raises(IndexError):
            points[len(curve)]


class TestColumnRows:
    def test_zero_and_negative_zero_keep_their_spellings(self):
        rows = reporting._ColumnRows(x=np.array([0.0, -0.0, 0.0, -0.0]),
                                     n=np.array([1, 0, 1, 1], dtype=np.int64))
        text = dump_json({"rows": rows})
        assert text == json.dumps({"rows": list(rows)}, sort_keys=True,
                                  indent=2) + "\n"
        assert [line.strip() for line in text.splitlines()
                if '"x"' in line] == ['"x": 0.0', '"x": -0.0', '"x": 0.0', '"x": -0.0']
        assert '"n": 1' in text and "1.0" not in text

    def test_projection_rows_equal_the_per_row_dicts(self, tmp_path):
        projection = pca2d(one_hot_fit_transform(generate_synthetic(
            SyntheticConfig(n_rows=200, prevalence=0.1)))[0])
        projection.coords[:2] = [[0.0, -0.0], [-0.0, 0.0]]
        old_rows = [{"pc1": x, "pc2": y, "row_index": i, "label": l}
                    for x, y, i, l in projection.rows()]
        path = tmp_path / "projection.json"
        write_export(path, projection)
        payload = json.loads(path.read_text())
        assert path.read_text() == json.dumps(
            {**payload, "rows": old_rows}, sort_keys=True, indent=2) + "\n"


class TestExportTimeline:
    def test_dummy_slips_everything_everywhere(self):
        _, aggregates = dummy_aggregates()
        timeline_csv, timeline_json = export_timeline(aggregates)
        series = timeline_json["models"][DUMMY]["series"]
        assert len(series) == 6
        assert [s["eval_set"] for s in series] == [
            "test", "slice1", "slice2", "slice3", "slice4", "slice5"]
        for entry in series:
            assert entry["slip_rate"]["mean"] == 1.0
            assert entry["volume_reduction"]["mean"] == 1.0
        rows = list(csv.reader(io.StringIO(timeline_csv)))
        assert rows[1][2] == "1.000"


class TestExportSurface:
    def test_cells_and_corner(self):
        surface = metric_surface(0.01, 3, TARGETS)
        surface_csv, surface_json = (render(surface)
                                     for render in reporting._EXPORT_FORMS[type(surface)])
        rows = list(csv.reader(io.StringIO(surface_csv)))
        assert len(rows) == 1 + 9
        corner = next(r for r in rows[1:] if r[0] == "0.000000" and r[1] == "1.000000")
        assert corner[4] == "1.000000"
        assert surface_json["cv"][0][2] == 1.0


class TestWriteExport:
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("make", [
        lambda: metric_surface(0.01, 4, TARGETS),
        lambda: pca2d(one_hot_fit_transform(generate_synthetic(
            SyntheticConfig(n_rows=200, prevalence=0.1)))[0]),
    ], ids=["surface", "projection"])
    def test_renders_only_the_written_form(self, tmp_path, monkeypatch, suffix,
                                           make):
        value = make()
        to_csv, to_payload = reporting._EXPORT_FORMS[type(value)]
        csv_text, payload = to_csv(value), to_payload(value)

        def not_written(_):
            raise AssertionError("rendered a form that is not written")

        monkeypatch.setitem(reporting._EXPORT_FORMS, type(value),
                            (not_written, to_payload) if suffix == ".json"
                            else (to_csv, not_written))
        path = tmp_path / f"out{suffix}"
        write_export(path, value)
        assert path.read_text() == (dump_json(payload) if suffix == ".json"
                                    else csv_text)


class TestBundle:
    def test_written_layout(self, tmp_path):
        config, aggregates = dummy_aggregates()
        verdicts = [verdict(aggregates[DUMMY], TARGETS)]
        bundle = build_bundle(aggregates, TARGETS, verdicts, run_id="demo")
        target = write_bundle(bundle, tmp_path)
        names = sorted(p.name for p in (tmp_path / "demo").iterdir())
        assert names == ["curve.json", "table.csv", "table.json",
                         "timeline.csv", "timeline.json"]
        parsed = json.loads((tmp_path / "demo" / "table.json").read_text())
        assert parsed["verdicts"][0]["passed"] is False
        assert target.endswith("demo")


class TestReportJson:
    def test_inf_and_none_are_json_clean(self):
        report = score_report([0.0, 0.0, 0.0], [1, 0, 0], TARGETS,
                              threshold=SENTINEL_THRESHOLD)
        payload = report_to_json(report)
        assert payload["threshold"] == "inf"
        text = json.dumps(payload)
        assert "Infinity" not in text
