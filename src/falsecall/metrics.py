"""Threshold-dependent classification metrics, standard and requirement-aware.

Label convention: class 1 is a true defect, class 0 is a false call.  A
deployed gate predicts 1 ("send to manual inspection") whenever the model
score is at or above the decision threshold.  The two business quantities
derived from a confusion matrix are

    volume reduction  v = TN / (TN + FP)   (recall of the false-call class)
    slip rate         s = FN / (TP + FN)   (1 - recall of the defect class)

and the requirement-aware summary is the constrained volume reduction

    cv = s_target - s   if s >= s_target   (target missed, value <= 0)
    cv = v              otherwise

All functions are pure and operate on integer counts (or exact analytic
rates); nothing here samples or estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError, UndefinedRateError

if TYPE_CHECKING:
    from .curves import OperatingCurve

#: Decision threshold above every representable score: predicts class 0 for
#: every input.  Used for models whose tuned threshold is infeasible and for
#: the all-negative end of threshold sweeps.
SENTINEL_THRESHOLD = math.inf


def _json_safe(value):
    """``value`` for strict JSON: an infinity is spelled ``"inf"``/``"-inf"``."""
    if isinstance(value, float) and math.isinf(value):
        return str(value)
    return value


@dataclass(frozen=True)
class ConfusionCounts:
    """Outcome counts of binary predictions at one fixed threshold."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise InputError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def positives(self) -> int:
        """Number of true defects in the evaluated set."""
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        """Number of true false calls in the evaluated set."""
        return self.tn + self.fp


@dataclass(frozen=True)
class TargetSpec:
    """Business targets: tolerated slip rate and required volume reduction."""

    s_target: float = 0.01
    v_target: float = 0.40

    def __post_init__(self):
        if not 0.0 < self.s_target < 1.0:
            raise InputError(f"s_target must lie in (0, 1), got {self.s_target}")
        if not 0.0 < self.v_target < 1.0:
            raise InputError(f"v_target must lie in (0, 1), got {self.v_target}")


class StandardMetrics(NamedTuple):
    accuracy: float
    precision: float
    recall_pos: float
    f1: float


@dataclass
class MetricReport:
    """Every metric computed for one scored evaluation set.

    Threshold-dependent fields are ``None`` when no a-priori threshold was
    available; curve-derived fields are ``None`` when the evaluation set
    contains a single class only.  ``slip_equals_target`` flags the boundary
    case s == s_target, where cv is exactly 0 by the first branch although
    the slip target is not strictly exceeded.  ``curve`` is the operating
    curve behind the curve-derived fields.
    """

    threshold: Optional[float] = None
    accuracy: Optional[float] = None
    precision: Optional[float] = None
    recall_pos: Optional[float] = None
    f1: Optional[float] = None
    volume_reduction: Optional[float] = None
    slip_rate: Optional[float] = None
    youden_at_threshold: Optional[float] = None
    cv: Optional[float] = None
    auc_pr: Optional[float] = None
    youden_score: Optional[float] = None
    v_at_s: Optional[float] = None
    cauc: Optional[float] = None
    slip_equals_target: bool = False
    n_rows: int = 0
    n_positives: int = 0
    curve: Optional[OperatingCurve] = field(default=None, repr=False,
                                              compare=False)

    METRIC_KEYS = (
        "accuracy", "precision", "recall_pos", "f1", "volume_reduction",
        "slip_rate", "youden_at_threshold", "cv", "auc_pr", "youden_score",
        "v_at_s", "cauc",
    )

    def metric(self, key: str) -> Optional[float]:
        if key not in self.METRIC_KEYS:
            raise InputError(f"unknown metric {key!r}")
        return getattr(self, key)


def validated_inputs(scores: Sequence[float],
                     labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels as arrays after the shape, label and finiteness checks.

    A NaN score fails every threshold and an infinite one ties the sentinel.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise InputError("scores and labels must be one-dimensional")
    if scores.shape[0] != labels.shape[0]:
        raise InputError(
            f"length mismatch: {scores.shape[0]} scores vs {labels.shape[0]} labels")
    if scores.shape[0] == 0:
        raise InputError("empty input")
    if not np.isin(labels, (0, 1)).all():
        raise InputError("labels must be 0 or 1")
    finite = np.isfinite(scores)
    if not finite.all():
        index = int(np.argmin(finite))
        raise InputError(f"scores must be finite, got {scores[index]} at index {index}")
    return scores, labels


def confusion_counts(scores: Sequence[float], labels: Sequence[int],
                     threshold: float) -> ConfusionCounts:
    """Count prediction outcomes with the rule: positive iff score >= threshold."""
    if math.isnan(threshold):
        raise InputError("threshold must be a number, got nan")
    scores, labels = validated_inputs(scores, labels)
    predicted = scores >= threshold
    actual = labels == 1
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted & ~actual))
    fn = int(np.count_nonzero(~predicted & actual))
    tn = int(np.count_nonzero(~predicted & ~actual))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def volume_reduction(cc: ConfusionCounts) -> float:
    """Fraction of false calls removed from manual inspection: TN / (TN + FP)."""
    if cc.negatives == 0:
        raise UndefinedRateError("volume reduction undefined: no negatives present")
    return cc.tn / cc.negatives


def slip_rate(cc: ConfusionCounts) -> float:
    """Fraction of true defects forwarded past inspection: FN / (TP + FN)."""
    if cc.positives == 0:
        raise UndefinedRateError("slip rate undefined: no positives present")
    return cc.fn / cc.positives


def accuracy_precision(cc: ConfusionCounts) -> tuple[float, float]:
    """Accuracy, and precision taken as 0 when nothing is predicted positive."""
    if cc.total == 0:
        raise InputError("empty counts")
    predicted_pos = cc.tp + cc.fp
    return ((cc.tp + cc.tn) / cc.total,
            cc.tp / predicted_pos if predicted_pos else 0.0)


def standard_metrics(cc: ConfusionCounts) -> StandardMetrics:
    """Accuracy, precision, recall of class 1, and F1.

    Precision (and hence F1) is defined as 0 when nothing was predicted
    positive.  Recall raises when no positives exist, because slip and
    volume reduction are meaningless on such data.
    """
    accuracy, precision = accuracy_precision(cc)
    if cc.positives == 0:
        raise UndefinedRateError("recall undefined: no positives present")
    recall_pos = cc.tp / cc.positives
    f1 = (2 * precision * recall_pos / (precision + recall_pos)
          if precision + recall_pos > 0 else 0.0)
    return StandardMetrics(accuracy, precision, recall_pos, f1)


def youden_index(cc: ConfusionCounts) -> float:
    """recall_0 + recall_1 - 1 at the evaluated threshold; needs both classes."""
    return volume_reduction(cc) + standard_metrics(cc).recall_pos - 1.0


def constrained_volume(cc: ConfusionCounts, targets: TargetSpec) -> float:
    """Volume reduction gated by the slip target (cv).

    Returns s_target - s when s >= s_target (a non-positive penalty signalling
    the slip target is exceeded at the set threshold), otherwise the achieved
    volume reduction.  Range: [s_target - 1, 1].
    """
    s = slip_rate(cc)
    if s >= targets.s_target:
        return targets.s_target - s
    return volume_reduction(cc)


def analytic_metrics(prevalence: float, s, v,
                     targets: TargetSpec) -> tuple:
    """(accuracy, f1, cv) for exact rates instead of counts.

    With defect prevalence p, the confusion fractions at slip s and volume
    reduction v are tp = p(1-s), fn = ps, tn = (1-p)v, fp = (1-p)(1-v).
    ``s`` and ``v`` are scalars, giving Python floats, or arrays that
    broadcast together, giving arrays of the broadcast shape.
    """
    if not 0.0 < prevalence < 1.0:
        raise InputError(f"prevalence must lie in (0, 1), got {prevalence}")
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, rate in (("s", s), ("v", v)):
        inside = (0.0 <= rate) & (rate <= 1.0)
        if not inside.all():
            raise InputError(f"{name} must lie in [0, 1], got {rate[~inside].flat[0]}")
    tp = prevalence * (1.0 - s)
    accuracy = tp + (1.0 - prevalence) * v
    recall = 1.0 - s
    predicted_pos = tp + (1.0 - prevalence) * (1.0 - v)
    precision = np.divide(tp, predicted_pos, out=np.zeros_like(predicted_pos),
                          where=predicted_pos > 0)
    denominator = precision + recall
    f1 = np.divide(2 * precision * recall, denominator,
                   out=np.zeros_like(denominator), where=denominator > 0)
    cv = np.where(s >= targets.s_target, targets.s_target - s, v)
    if accuracy.ndim == 0:
        return float(accuracy), float(f1), float(cv)
    return accuracy, f1, cv


@dataclass
class MetricSurface:
    """Metric values over an (s, v) grid at fixed prevalence.

    ``accuracy[i, j]`` etc. belong to the cell (s_values[i], v_values[j]).
    """

    prevalence: float
    targets: TargetSpec
    s_values: np.ndarray
    v_values: np.ndarray
    accuracy: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)
    cv: np.ndarray = field(repr=False)


#: Largest grid side ``metric_surface`` builds: a 2048 x 2048 surface takes
#: about 230 MB while it is computed.
MAX_SURFACE_RESOLUTION = 2048


def metric_surface(prevalence: float, resolution: int,
                   targets: TargetSpec) -> MetricSurface:
    """Evaluate accuracy, F1 and cv on a resolution x resolution grid.

    The grid covers s in [0, 1] and v in [0, 1] inclusive, so the corners
    (s=0, v=1) (perfect) and (s=1, v=1) (reject-nothing) are always cells.
    """
    if not 2 <= resolution <= MAX_SURFACE_RESOLUTION:
        raise InputError(f"grid resolution must lie in [2, {MAX_SURFACE_RESOLUTION}], "
                         f"got {resolution}")
    s_values = np.linspace(0.0, 1.0, resolution)
    v_values = np.linspace(0.0, 1.0, resolution)
    accuracy, f1, cv = analytic_metrics(prevalence, s_values[:, None],
                                        v_values[None, :], targets)
    return MetricSurface(prevalence=prevalence, targets=targets,
                         s_values=s_values, v_values=v_values,
                         accuracy=accuracy, f1=f1, cv=cv)
