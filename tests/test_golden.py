"""Exact bytes of the CSV and JSON files the command line writes.

The inputs are small enough that every number below can be checked by hand,
and chosen so that no CSV figure depends on the last bits of floating point.
The JSON files keep full precision; the drift input is chosen so that its
principal components come out exact.
"""

from falsecall.cli import main

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
