"""The README's examples run as written.

The ``ini`` block is the experiment config schema and the ``python`` block
is the library tour; both are read out of the README, so the document cannot
drift from the parser or the API without a failing test.
"""

import contextlib
import io
import pathlib
import re

from falsecall.cli import load_experiment_setup

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(language):
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(),
                          re.MULTILINE | re.DOTALL)
    return block


def test_config_example_loads(tmp_path):
    path = tmp_path / "experiment.txt"
    path.write_text(fenced_block("ini"))
    config, dataset, _ = load_experiment_setup(path)
    assert config.model_kinds == ("dummy", "random_forest")
    assert config.n_seeds == 10
    assert dataset.n_rows == 10_000


def test_library_tour_runs():
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(fenced_block("python"), str(README), "exec"), {})
    assert "VolumeAtSlip(value=0.75, threshold=0.4)" in printed.getvalue()
