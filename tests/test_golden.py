"""Exact bytes of the CSV and JSON files the command line writes.

The inputs are small enough that every number below can be checked by hand,
and chosen so that no CSV figure depends on the last bits of floating point.
The JSON files keep full precision; the drift input is chosen so that its
principal components come out exact.
"""

import hashlib

import numpy as np
import pytest

from falsecall.classifiers import (BALANCED_RANDOM_FOREST, DUMMY, KNN,
                                   RANDOM_FOREST, ClassifierSpec, save_model,
                                   train)
from falsecall.cli import main
from falsecall.dataset import (SyntheticConfig, generate_synthetic,
                               one_hot_fit_transform)
from tests.test_classifiers import matrix_from_arrays

SCORES = """score,label,timestamp
0.9,1,0
0.8,0,1
0.7,1,2
0.6,0,3
0.4,0,4
0.35,1,5
0.3,0,6
0.2,0,7
0.1,0,8
0.05,0,9
"""

HEADER = ("eval_set,accuracy,precision,recall_pos,f1,volume_reduction,slip_rate,"
          "youden_at_threshold,cv,auc_pr,youden_score,v_at_s,cauc\n")

NO_THRESHOLD = ",".join(["n/a (no a-priori threshold)"] * 8)


def evaluate(tmp_path, *flags):
    scores = tmp_path / "scores.csv"
    scores.write_text(SCORES)
    out = tmp_path / "out"
    assert main(["evaluate", "--scores", str(scores), *flags, "--out", str(out)]) == 0
    return (out / "table.csv").read_text()


def test_evaluate_table_with_threshold_and_slices(tmp_path):
    assert evaluate(tmp_path, "--threshold", "0.5", "--slices-by-timestamp", "2") == (
        HEADER
        + "overall,0.700,0.500,0.667,0.571,0.714,0.333,0.381,-0.323,0.722,0.571,0.571,0.286\n"
        + "slice1,0.600,0.500,1.000,0.667,0.333,0.000,0.333,0.333,0.833,0.667,0.667,0.444\n"
        + "slice2,0.800,0.000,0.000,0.000,1.000,1.000,0.000,-0.990,1.000,1.000,1.000,1.000\n")


def test_evaluate_table_without_threshold(tmp_path):
    assert evaluate(tmp_path) == (
        HEADER + f"overall,{NO_THRESHOLD},0.722,0.571,0.571,0.286\n")


def test_evaluate_table_without_threshold_with_slices(tmp_path):
    assert evaluate(tmp_path, "--slices-by-timestamp", "2") == (
        HEADER
        + f"overall,{NO_THRESHOLD},0.722,0.571,0.571,0.286\n"
        + f"slice1,{NO_THRESHOLD},0.833,0.667,0.667,0.444\n"
        + f"slice2,{NO_THRESHOLD},1.000,1.000,1.000,1.000\n")


def test_evaluate_single_class_table(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("score,label\n0.3,0\n0.7,0\n")
    out = tmp_path / "out"
    assert main(["evaluate", "--scores", str(scores), "--threshold", "0.5",
                 "--out", str(out)]) == 0
    assert (out / "table.csv").read_text() == (
        HEADER + "overall,0.500,0.000,n/a,n/a,0.500,n/a,n/a,n/a,n/a,n/a,n/a,n/a\n")


def test_drift_csv(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("timestamp,label,x0,x1\n0,0,1,0\n1,1,-1,0\n2,0,0,2\n3,1,0,-2\n4,0,0,0\n")
    out = tmp_path / "drift.csv"
    assert main(["drift", "--data", str(data), "--out", str(out)]) == 0
    assert out.read_text() == ("pc1,pc2,row_index,label\n"
                               "0.0,1.0,0,0\n0.0,-1.0,1,1\n2.0,0.0,2,0\n"
                               "-2.0,0.0,3,1\n0.0,0.0,4,0\n")


def test_surface_csv_first_rows(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["surface", "--prevalence", "0.1", "--resolution", "3",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines(keepends=True)[:5] == [
        "s,v,accuracy,f1,cv\n",
        "0.000000,0.000000,0.100000,0.181818,0.000000\n",
        "0.000000,0.500000,0.550000,0.307692,0.500000\n",
        "0.000000,1.000000,1.000000,1.000000,1.000000\n",
        "0.500000,0.000000,0.050000,0.095238,-0.490000\n",
    ]


CURVE_JSON = """\
{
  "case": 1,
  "cauc": 0.28571428571428564,
  "points": [
    {
      "one_minus_s": 1.0,
      "threshold": 0.05,
      "v": 0.0
    },
    {
      "one_minus_s": 1.0,
      "threshold": 0.1,
      "v": 0.14285714285714285
    },
    {
      "one_minus_s": 1.0,
      "threshold": 0.2,
      "v": 0.2857142857142857
    },
    {
      "one_minus_s": 1.0,
      "threshold": 0.3,
      "v": 0.42857142857142855
    },
    {
      "one_minus_s": 1.0,
      "threshold": 0.35,
      "v": 0.5714285714285714
    },
    {
      "one_minus_s": 0.6666666666666667,
      "threshold": 0.4,
      "v": 0.5714285714285714
    },
    {
      "one_minus_s": 0.6666666666666667,
      "threshold": 0.6,
      "v": 0.7142857142857143
    },
    {
      "one_minus_s": 0.6666666666666667,
      "threshold": 0.7,
      "v": 0.8571428571428571
    },
    {
      "one_minus_s": 0.33333333333333337,
      "threshold": 0.8,
      "v": 0.8571428571428571
    },
    {
      "one_minus_s": 0.33333333333333337,
      "threshold": 0.9,
      "v": 1.0
    },
    {
      "one_minus_s": 0.0,
      "threshold": "inf",
      "v": 1.0
    }
  ],
  "target_zone": {
    "area": 0.006,
    "corners": [
      [
        0.4,
        0.99
      ],
      [
        1.0,
        1.0
      ]
    ],
    "one_minus_s_min": 0.99,
    "v_min": 0.4
  },
  "v_at_s": 0.5714285714285714
}
"""


def test_evaluate_curve_json(tmp_path):
    evaluate(tmp_path)
    assert (tmp_path / "out" / "curve.json").read_text() == CURVE_JSON


SURFACE_JSON = """\
{
  "accuracy": [
    [
      0.1,
      0.55,
      1.0
    ],
    [
      0.05,
      0.5,
      0.9500000000000001
    ],
    [
      0.0,
      0.45,
      0.9
    ]
  ],
  "cv": [
    [
      0.0,
      0.5,
      1.0
    ],
    [
      -0.49,
      -0.49,
      -0.49
    ],
    [
      -0.99,
      -0.99,
      -0.99
    ]
  ],
  "f1": [
    [
      0.18181818181818182,
      0.3076923076923077,
      1.0
    ],
    [
      0.09523809523809525,
      0.16666666666666669,
      0.6666666666666666
    ],
    [
      0.0,
      0.0,
      0.0
    ]
  ],
  "prevalence": 0.1,
  "s_values": [
    0.0,
    0.5,
    1.0
  ],
  "targets": {
    "s_target": 0.01,
    "v_target": 0.4
  },
  "v_values": [
    0.0,
    0.5,
    1.0
  ]
}
"""


def test_surface_json(tmp_path):
    out = tmp_path / "s.json"
    assert main(["surface", "--prevalence", "0.1", "--resolution", "3",
                 "--out", str(out)]) == 0
    assert out.read_text() == SURFACE_JSON


DRIFT_JSON = """\
{
  "explained_variance": [
    4.0,
    1.0
  ],
  "rows": [
    {
      "label": 0,
      "pc1": 2.0,
      "pc2": 1.0,
      "row_index": 0
    },
    {
      "label": 1,
      "pc1": -2.0,
      "pc2": 1.0,
      "row_index": 1
    },
    {
      "label": 0,
      "pc1": 2.0,
      "pc2": -1.0,
      "row_index": 2
    },
    {
      "label": 1,
      "pc1": -2.0,
      "pc2": -1.0,
      "row_index": 3
    },
    {
      "label": 0,
      "pc1": 0.0,
      "pc2": 0.0,
      "row_index": 4
    }
  ]
}
"""


def test_drift_json(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("timestamp,label,x0,x1\n0,0,1,2\n1,1,1,-2\n2,0,-1,2\n3,1,-1,-2\n4,0,0,0\n")
    out = tmp_path / "p.json"
    assert main(["drift", "--data", str(data), "--out", str(out)]) == 0
    assert out.read_text() == DRIFT_JSON


# ---------------------------------------------------------------------------
# Saved models: the sha256 of ``save_model`` JSON for fixed-seed fits.


def _tied_matrix():
    """Eight three-level features, the first shifted by the label: many tied
    cuts, and ``sqrt`` and ``log2`` draw different numbers of candidates."""
    rng = np.random.default_rng(5)
    y = (rng.random(160) < 0.25).astype(np.int64)
    X = rng.integers(0, 3, (160, 8)).astype(float)
    X[:, 0] += y
    return matrix_from_arrays(X, y)


def _synthetic_matrix():
    config = SyntheticConfig(n_rows=240, prevalence=0.2, drift_strength=1.5,
                             n_features=7, seed=3)
    return one_hot_fit_transform(generate_synthetic(config))[0]


MATRICES = {"tied": _tied_matrix, "synthetic": _synthetic_matrix}

#: Keyed by kind-feature_subsample-max_depth-min_leaf-data.
FOREST_SHA256 = {
    "random_forest-sqrt-None-1-tied":
        "bf7faf6fc9969511eca7a96af8043aef7fc669afb72ceabac10c1bb16c43acd0",
    "random_forest-sqrt-None-1-synthetic":
        "acd03d330bd1e73bd1707e851627c57caf0a012412a5d85903a4be1be2c9cfc6",
    "random_forest-sqrt-2-20-tied":
        "fcaa0429c8207b192531d3a4649ffb872ae602bcf523cca5fcbc8bcd133ed471",
    "random_forest-sqrt-2-20-synthetic":
        "6a5b62107506ab18d874a7deb20facf50e233a06a08669cc24a943e981bed5a3",
    "random_forest-log2-None-1-tied":
        "a2ada25d94aa8e1964baa12089cc86a027b88849229af17309db6a96d930fe48",
    "random_forest-log2-None-1-synthetic":
        "5b9477482bb65d34521705a7f39b0b79afe0c65becb8057cd58bc293d7756cea",
    "random_forest-log2-2-20-tied":
        "83130f83728ba8e34dc4ce9cbd4f3adc0bdcf39c5db7db43fd8b190e422037b0",
    "random_forest-log2-2-20-synthetic":
        "adcf3d6a8d231d142ec2514a105de9a22ffb1187e8312fd9907973920ca4170b",
    "random_forest-all-None-1-tied":
        "f7cd55b6d1cc5b56b945cffdcf4f16b4ebe8b4e300c2dcaf5c80f1bc4736b895",
    "random_forest-all-None-1-synthetic":
        "6267c4cf5cd1a8f603d5ed484991de325618d629167c3be1d985eb7c53a18402",
    "random_forest-all-2-20-tied":
        "bf24af8175dccef451642d58ef41d350945cdc2c4b442a519f785e49873957e3",
    "random_forest-all-2-20-synthetic":
        "c89d5384f66bbee91bc50a8f0f94e00db0455547137ef4f6975fa1a1e9d13bd3",
    "balanced_random_forest-sqrt-None-1-tied":
        "887b59c703e2d71a2c0e6281f25328d53f420c54b3de978838f5078f9d6bb0a0",
    "balanced_random_forest-sqrt-None-1-synthetic":
        "927e3a2f4e77f07136aa28592798471e736c489fd5e325ebfb876a8d5c04db66",
    "balanced_random_forest-sqrt-2-20-tied":
        "81f412cbd004040d17cceb472833dfcf4f8cd5f9f327fa4d4e423b085609c5aa",
    "balanced_random_forest-sqrt-2-20-synthetic":
        "a5494679f4b70a03541f149c7b4731688ff0639a606a014ea2e5ce8bdf96c9bd",
    "balanced_random_forest-log2-None-1-tied":
        "f5fd09107e730c30202a4ec32469167244ab573341975031f813438409310cc8",
    "balanced_random_forest-log2-None-1-synthetic":
        "8fa9fa92dafa3e8bda124ae9ee82215abace35cf58706a8a95576fdf1ceeca3a",
    "balanced_random_forest-log2-2-20-tied":
        "e9abddb0d3bf9c92d128f5ba4dd5dee5d967de5659297b7a6f103597d316622c",
    "balanced_random_forest-log2-2-20-synthetic":
        "33740e72dda061b8a5424cf3be6f9977bc2e075130444b8c9e26873b8a180e11",
    "balanced_random_forest-all-None-1-tied":
        "333677caacb58a0e91726a06a61eb6c115b2b674435551e446b6afe0bbe1ae2a",
    "balanced_random_forest-all-None-1-synthetic":
        "76da21cae52bf997e282be7eae1ab2ef2b47f1c71108edd8a32f4ba8e13057ae",
    "balanced_random_forest-all-2-20-tied":
        "2b587d6904fc4e557161ae2edbf3163d29978735d474f2cad094515acf6fd966",
    "balanced_random_forest-all-2-20-synthetic":
        "bac986b9a939a34dceec269943a4fca1ba824766d4f067b48090f2cbb8112485",
}

FOREST_CASES = [f"{kind}-{mode}-{max_depth}-{min_leaf}-{data}"
                for kind in (RANDOM_FOREST, BALANCED_RANDOM_FOREST)
                for mode in ("sqrt", "log2", "all")
                for max_depth, min_leaf in ((None, 1), (2, 20))
                for data in MATRICES]


def _saved_sha256(tmp_path, spec, data):
    path = tmp_path / "model.json"
    save_model(train(spec, MATRICES[data]()), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", FOREST_CASES)
def test_saved_forest_bytes(tmp_path, case):
    kind, mode, max_depth, min_leaf, data = case.split("-")
    spec = ClassifierSpec(kind, {"n_trees": 4, "feature_subsample": mode,
                                 "max_depth": None if max_depth == "None" else int(max_depth),
                                 "min_leaf": int(min_leaf)},
                          seed=11)
    assert _saved_sha256(tmp_path, spec, data) == FOREST_SHA256[case]


def test_saved_knn_bytes(tmp_path):
    spec = ClassifierSpec(KNN, {"k": 7}, seed=11)
    assert _saved_sha256(tmp_path, spec, "synthetic") == (
        "5149c8a7e8553cffaae7fab5f5e9ff8653c12c688095a524f46c97e8d951e81b")


def test_saved_dummy_bytes(tmp_path):
    spec = ClassifierSpec(DUMMY, seed=11)
    assert _saved_sha256(tmp_path, spec, "tied") == (
        "c093fc0c669d9e7e083bd107a5baa5cf6c5ddd20be2b318859a1007a119fb320")
