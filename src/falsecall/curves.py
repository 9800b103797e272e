"""The slip / volume-reduction operating curve and its derived metrics.

Sweeping the decision threshold over every distinct score (plus one sentinel
above the maximum) yields all achievable operating points (v, s).  The curve
always contains the all-positive point (v=0, s=0) and the all-negative point
(v=1, s=1).  Between achievable points the curve is interpolated as a
piecewise-constant lower envelope: on (v_i, v_{i+1}] it takes the best
achievable (1 - s) at volume v_{i+1}.  That conservative reading makes the
reject-nothing baseline score exactly -1 on the constrained area metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InputError
from .metrics import SENTINEL_THRESHOLD, TargetSpec, validated_inputs


@dataclass(frozen=True)
class OperatingPoint:
    """Volume reduction and slip rate achieved at one threshold."""

    threshold: float
    v: float
    s: float


@dataclass(frozen=True)
class OperatingCurve:
    """All achievable operating points, sorted by (v, s) ascending.

    Parallel arrays; ``thresholds[i]`` realises the point
    ``(v[i], s[i])`` under the rule "positive iff score >= threshold".
    """

    thresholds: np.ndarray
    v: np.ndarray
    s: np.ndarray

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def points(self) -> list[OperatingPoint]:
        return [OperatingPoint(float(t), float(v), float(s))
                for t, v, s in zip(self.thresholds, self.v, self.s)]

    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct volumes (ascending) with the best slip at each volume."""
        v, first = np.unique(self.v, return_index=True)
        return v, self.s[first]


class _Ranking(NamedTuple):
    """Distinct scores in descending order with cumulative counts.

    Thresholding at ``scores[i]`` predicts positive for exactly
    ``predicted_pos[i]`` rows, ``tp[i]`` of them defects.
    """

    scores: np.ndarray
    tp: np.ndarray
    predicted_pos: np.ndarray
    n_pos: int
    n_neg: int

    def curve(self) -> OperatingCurve:
        """Operating points of the sentinel and every distinct score.

        Each distinct score admits at least one more row than the one above
        it, so tp or fp changes and no two points coincide.
        """
        tp = np.append(0, self.tp)
        fp = np.append(0, self.predicted_pos - self.tp)
        # Sentinel first: it is the largest threshold in this descending
        # order.  Descending thresholds give descending (v, s); reverse both.
        thresholds = np.append(SENTINEL_THRESHOLD, self.scores)
        v = (self.n_neg - fp) / self.n_neg
        s = (self.n_pos - tp) / self.n_pos
        return OperatingCurve(thresholds=thresholds[::-1], v=v[::-1], s=s[::-1])

    def auc_pr(self) -> float:
        recall = self.tp / self.n_pos
        precision = self.tp / self.predicted_pos
        prev_recall = np.append(0.0, recall[:-1])
        return float(np.sum((recall - prev_recall) * precision))


def _ranked(scores: Sequence[float], labels: Sequence[int]) -> _Ranking:
    """Validate a scored set with both classes and rank it once."""
    scores, labels = validated_inputs(scores, labels)
    n_pos = int(np.count_nonzero(labels == 1))
    if n_pos == 0 or n_pos == labels.size:
        raise InputError("both classes must be present to sweep thresholds")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # Index of the last occurrence of each distinct score in descending order:
    # thresholding at that score predicts positive exactly for ranks <= index.
    last = np.nonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))[0]
    tp = np.cumsum(labels[order] == 1)[last]
    return _Ranking(sorted_scores[last], tp, last + 1, n_pos, labels.size - n_pos)


def sweep_thresholds(scores: Sequence[float], labels: Sequence[int]) -> OperatingCurve:
    """Build the operating curve over all distinct scores plus the sentinel."""
    return _ranked(scores, labels).curve()


class ThresholdChoice(NamedTuple):
    threshold: float
    feasible: bool


class BestYouden(NamedTuple):
    score: float
    threshold: float


class VolumeAtSlip(NamedTuple):
    value: float
    threshold: Optional[float]


def best_youden(curve: OperatingCurve) -> BestYouden:
    """Maximum of v - s over the curve; ties resolved to the smallest threshold."""
    if len(curve) == 0:
        raise InputError("empty curve")
    j = curve.v - curve.s
    best = j.max()
    candidates = np.nonzero(j == best)[0]
    idx = candidates[np.argmin(curve.thresholds[candidates])]
    return BestYouden(float(best), float(curve.thresholds[idx]))


def volume_at_target_slip(curve: OperatingCurve, targets: TargetSpec) -> VolumeAtSlip:
    """Best volume reduction among points meeting the slip target (V@S).

    Ties on v are broken by smaller s, then smaller threshold.  The
    all-positive point (v=0, s=0) meets any slip target, so swept curves
    always yield at least (0.0, threshold).
    """
    if len(curve) == 0:
        raise InputError("empty curve")
    ok = np.nonzero(curve.s <= targets.s_target)[0]
    if ok.size == 0:
        return VolumeAtSlip(0.0, None)
    order = np.lexsort((curve.thresholds[ok], curve.s[ok], -curve.v[ok]))
    idx = ok[order[0]]
    return VolumeAtSlip(float(curve.v[idx]), float(curve.thresholds[idx]))


def auc_pr(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the precision-recall points by right-endpoint steps.

    Thresholds descend over the distinct scores; each recall increment is
    weighted with the precision at the higher-recall endpoint, starting from
    recall 0.  A constant scorer therefore scores exactly the prevalence.
    """
    return _ranked(scores, labels).auc_pr()


def constrained_auc(curve: OperatingCurve, targets: TargetSpec) -> float:
    """Area-based requirement-aware score of the whole curve (cAUC)."""
    return constrained_auc_case(curve, targets)[0]


def constrained_auc_case(curve: OperatingCurve,
                         targets: TargetSpec) -> tuple[float, int]:
    """cAUC value and its case number.

    Case 1: some achievable point meets both targets.  Value is the fraction
    of the target zone (v >= v_target, 1-s >= 1-s_target) lying under the
    envelope, in (0, 1].
    Case 3: no point meets both targets.  Value is the negative normalised
    gap between the clipped envelope and the zone's lower edge over
    [0, v_target], in [-1, 0).
    Case 2, an envelope reaching into the zone without a qualifying point,
    cannot occur: the lower envelope takes its height on (v_i, v_i+1] from
    the achievable point at v_i+1, so any overlap with the zone puts that
    point in it.  Cases 1 and 3 keep their numbers.
    """
    if len(curve) == 0:
        raise InputError("empty curve")
    st, vt = targets.s_target, targets.v_target
    env_v, env_s = curve.envelope()
    left, right, seg_s = env_v[:-1], env_v[1:], env_s[1:]

    if np.any((curve.s <= st) & (curve.v >= vt)):
        lo = np.clip(left, vt, 1.0)
        hi = np.clip(right, vt, 1.0)
        area = float(np.sum((hi - lo) * np.maximum(0.0, st - seg_s)))
        return area / ((1.0 - vt) * st), 1

    lo = np.clip(left, 0.0, vt)
    hi = np.clip(right, 0.0, vt)
    clipped = float(np.sum((hi - lo) * np.minimum(1.0 - seg_s, 1.0 - st)))
    denom = vt * (1.0 - st)
    return (clipped - denom) / denom, 3


def select_threshold(curve: OperatingCurve, criterion: str,
                     targets: Optional[TargetSpec] = None) -> ThresholdChoice:
    """Pick the deployable threshold for a tuning criterion.

    ``criterion="youden"`` returns the best-Youden threshold.
    ``criterion="v_at_s"`` returns the threshold of the best point with
    s <= s_target and v > 0; when none exists the model has no useful
    deployable threshold, so the sentinel is returned with feasible=False.
    """
    if criterion == "youden":
        return ThresholdChoice(best_youden(curve).threshold, True)
    if criterion == "v_at_s":
        if targets is None:
            raise InputError("v_at_s criterion requires targets")
        best = volume_at_target_slip(curve, targets)
        if best.value > 0.0:
            return ThresholdChoice(best.threshold, True)
        return ThresholdChoice(SENTINEL_THRESHOLD, False)
    raise InputError(f"unknown threshold criterion {criterion!r}")
