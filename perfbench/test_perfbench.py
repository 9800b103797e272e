"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import falsecall.cli  # noqa: E402
import falsecall.experiment  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, write_score_inputs  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["pass", 0.0, 10.0, None, 1],
        ["a", 1.0, 6.0, 0, 1],
        ["b", 2.0, 3.0, 1, 1],
        ["c", 3.5, 5.5, 1, 1],
        ["d", 4.0, 5.0, 3, 1],
        ["a", 7.0, 9.0, 0, 1],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_layer_metrics_sum_calls_and_times_per_pass():
    recorder = tracing.SpanRecorder()
    recorder.spans = [
        ["pass", 0.0, 4.0, None, 1],
        ["curves.auc_pr", 1.0, 2.0, 0, 1],
        ["pass", 10.0, 13.0, None, 2],
        ["curves.auc_pr", 10.0, 13.0, 2, 2],
    ]
    metrics = tracing.layer_metrics(recorder, names=("curves.auc_pr",))
    assert metrics["curves.auc_pr.calls"]["value"] == 1
    assert metrics["curves.auc_pr.busy_s"]["value"] == 2.0
    assert metrics["curves.auc_pr.self_s"]["value"] == 2.0


def test_call_through_experiment_import_is_recorded():
    original = falsecall.experiment.sweep_thresholds
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        falsecall.experiment.sweep_thresholds([0.2, 0.7, 0.9], [0, 1, 1])
    assert [span[0] for span in recorder.spans] == ["curves.sweep_thresholds"]
    assert recorder.counts[0]["curves.rows_ranked"] == 3
    assert falsecall.experiment.sweep_thresholds is original


def _small(name, rows=2000):
    return dataclasses.replace(
        WORKLOADS[name], make_inputs=lambda seed, d: write_score_inputs(seed, d, rows, True))


def _runner(workload, expected=None):
    return run.Runner(falsecall.cli, workload, workload.make_inputs(0, Path(".")), expected)


def test_digest_mismatch_counts_as_failed_pass(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = _runner(_small("evaluate-tied"), expected={"table.json": "0" * 64})
    runner.run_pass()
    assert runner.attempted == 1
    assert len(runner.failures) == 1
    assert "table.json: sha256 differs" in runner.failures[0]


def test_matching_digests_and_repeat_passes_succeed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = _runner(_small("evaluate-tied"))
    runner.run_pass()
    expected = {name: sha for name, sha in runner.reference.items() if name.endswith(".json")}
    runner.expected = expected
    runner.run_pass()
    assert (runner.attempted, runner.failures) == (2, [])


def test_output_out_of_range_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = _runner(_small("evaluate-tied"))
    runner.run_pass()
    table = Path("out/table.json")
    table.write_text(table.read_text().replace('"cauc": ', '"cauc": 7', 1))
    assert any("cauc" in p for p in WORKLOADS["evaluate-tied"].check(Path("out"),
                                                                       runner.facts))


EVALUATE_LAYERS = {"experiment.evaluate_external", "experiment.read_scores_csv",
                   "experiment.score_report", "curves.sweep_thresholds", "curves.auc_pr",
                   "curves.constrained_auc", "metrics.confusion_counts",
                   "reporting.export_curve", "reporting.dump_json"}
EXPERIMENT_LAYERS = set(tracing.TRACED) - {"experiment.evaluate_external",
                                          "experiment.read_scores_csv"}


@pytest.mark.parametrize("workload, layers", [
    (_small("evaluate-tied"), EVALUATE_LAYERS),
    (WORKLOADS["experiment-forest"], EXPERIMENT_LAYERS),
])
def test_cli_pass_reaches_every_expected_layer(tmp_path, monkeypatch, workload, layers):
    monkeypatch.chdir(tmp_path)
    runner = _runner(workload)
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        runner.run_pass()
    assert runner.failures == []
    assert {span[0] for span in recorder.spans} == layers
