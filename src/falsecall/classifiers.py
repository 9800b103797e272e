"""Score-producing binary classifiers behind one train/score interface.

Four kinds are provided: ``dummy`` (constant majority-class score), ``knn``
(standardised Euclidean vote fraction with tie expansion at the k-th
neighbour), ``random_forest`` and ``balanced_random_forest`` (Gini trees on
bootstrap bags; the balanced variant draws equal per-class counts per tree).
Scores are always in [0, 1] and every kind is bit-for-bit deterministic for
a fixed (spec, data) pair: all randomness flows from ``spec.seed`` through
the package-wide seed derivation.

Trees split numeric features at midpoints of sorted distinct values, choose
the split with minimal weighted Gini impurity and break ties by lowest
feature index, then lowest split value.  Each fit sorts its training matrix
once; every tree grows on the distinct rows of its bag, weighted by how often
the bag drew them, and every node keeps its rows in that presorted order, so
the split search sorts nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .dataset import EncodedMatrix, _atomic_output
from .errors import InputError, StateError
from .metrics import SENTINEL_THRESHOLD, _json_safe
from .seeding import rng_for

DUMMY = "dummy"
KNN = "knn"
RANDOM_FOREST = "random_forest"
BALANCED_RANDOM_FOREST = "balanced_random_forest"
KINDS = (DUMMY, KNN, RANDOM_FOREST, BALANCED_RANDOM_FOREST)

MODEL_FORMAT = "falsecall-model"
MODEL_VERSION = 1

#: Each fitted array with its dtype: a tree's in the field order of
#: ``_grow_tree``'s node lists, then a kNN model's.  Growth builds them,
#: ``save_model`` writes them as lists and ``load_model`` reads them back.
_TREE_ARRAYS = {"feature": np.int64, "threshold": float, "left": np.int64,
               "right": np.int64, "vote": np.int64}
_KNN_ARRAYS = {"mean": float, "std": float, "X": float, "y": np.int64}


@dataclass(frozen=True)
class ClassifierSpec:
    """Model kind plus hyperparameters and the seed all randomness hangs on."""

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown classifier kind {self.kind!r}")


@dataclass(frozen=True)
class HyperParamSpace:
    """Sampling ranges for one classifier kind.

    ``int_ranges`` are inclusive bounds; parameters listed in ``odd_only``
    are drawn from the odd values inside their range.
    """

    kind: str
    int_ranges: dict = field(default_factory=dict)
    choices: dict = field(default_factory=dict)
    odd_only: frozenset = frozenset()

    @classmethod
    def default(cls, kind: str) -> "HyperParamSpace":
        if kind == DUMMY:
            return cls(kind=kind)
        if kind == KNN:
            return cls(kind=kind, int_ranges={"k": (1, 51)}, odd_only=frozenset({"k"}))
        if kind in (RANDOM_FOREST, BALANCED_RANDOM_FOREST):
            return cls(kind=kind,
                       int_ranges={"n_trees": (10, 300), "max_depth": (2, 30),
                                   "min_leaf": (1, 20)},
                       choices={"feature_subsample": ("sqrt", "log2", "all")})
        raise InputError(f"unknown classifier kind {kind!r}")

    def narrowed(self, **bounds) -> "HyperParamSpace":
        """Copy with tightened bounds, e.g. ``n_trees=(10, 60)``.

        Integer parameters take an inclusive (low, high) pair; choice
        parameters take a subset of their declared options.
        """
        ranges = dict(self.int_ranges)
        choices = dict(self.choices)
        for name, bound in bounds.items():
            if name in ranges:
                lo, hi = bound
                base_lo, base_hi = ranges[name]
                if lo < base_lo or hi > base_hi or lo > hi:
                    raise InputError(
                        f"bounds {name}=({lo}, {hi}) leave the declared range")
                ranges[name] = (int(lo), int(hi))
            elif name in choices:
                subset = tuple(bound)
                unknown = set(subset) - set(choices[name])
                if not subset or unknown:
                    raise InputError(
                        f"choices {name}={subset} leave the declared options")
                choices[name] = subset
            else:
                raise InputError(f"{self.kind} has no parameter {name!r}")
        return HyperParamSpace(kind=self.kind, int_ranges=ranges,
                               choices=choices, odd_only=self.odd_only)

    def sample(self, rng: np.random.Generator) -> dict:
        params = {}
        for name in sorted(self.int_ranges):
            lo, hi = self.int_ranges[name]
            if name in self.odd_only:
                odds = np.arange(lo + (lo % 2 == 0), hi + 1, 2)
                params[name] = int(odds[rng.integers(odds.size)])
            else:
                params[name] = int(rng.integers(lo, hi + 1))
        for name in sorted(self.choices):
            options = self.choices[name]
            params[name] = options[int(rng.integers(len(options)))]
        return params

    def validate(self, params: dict) -> None:
        known = set(self.int_ranges) | set(self.choices)
        unknown = set(params) - known
        if unknown:
            raise InputError(f"{self.kind}: unknown hyperparameters {sorted(unknown)}")
        for name, (lo, hi) in self.int_ranges.items():
            if name not in params:
                raise InputError(f"{self.kind}: missing hyperparameter {name!r}")
            value = params[name]
            if not lo <= value <= hi:
                raise InputError(f"{self.kind}: {name}={value} outside [{lo}, {hi}]")
            if name in self.odd_only and value % 2 == 0:
                raise InputError(f"{self.kind}: {name}={value} must be odd")
        for name, options in self.choices.items():
            if params.get(name) not in options:
                raise InputError(f"{self.kind}: {name} must be one of {options}")


@dataclass
class TrainedModel:
    """Fitted state plus the deployable decision threshold.

    The threshold is ``None`` until set (the dummy sets its own at training
    time so it always predicts the majority class); ``SENTINEL_THRESHOLD``
    means every row is classified 0.
    """

    spec: ClassifierSpec
    state: dict
    decision_threshold: Optional[float] = None
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Decision trees


def _grow_tree(X: np.ndarray, y: np.ndarray, weight: np.ndarray,
               order: np.ndarray, rng: np.random.Generator,
               max_depth: Optional[int], min_leaf: int, n_candidates: int) -> dict:
    """Grow one tree on the bag whose row multiplicities are ``weight``.

    ``order`` holds each feature's row ids in ascending value order, shape
    ``(n_features, n_rows)``.  Each node keeps that layout for its own rows,
    so no node sorts: the counts left of every cut are prefix sums of the
    multiplicities, the same integers as on the materialised bag.
    """
    n_features = X.shape[1]
    weighted_y = weight * y
    # One [feature, threshold, left, right, vote] list per node, in pre-order;
    # a node starts as a leaf and becomes a split once its children are grown.
    nodes: list[list] = []

    def best_split(rows: np.ndarray, feats: np.ndarray, n: int, total_pos: int):
        # ``rows`` has one line per candidate feature, in ascending value
        # order; the cut after column j sends columns 0..j left.
        values = X[rows, feats[:, None]]
        nl = weight[rows].cumsum(axis=1)[:, :-1]
        pl = weighted_y[rows].cumsum(axis=1)[:, :-1]
        valid = values[:, 1:] != values[:, :-1]
        if min_leaf > 1:
            valid &= (nl >= min_leaf) & (nl <= n - min_leaf)
        if not valid.any():
            return None
        nr = n - nl
        pr = total_pos - pl
        gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        weighted = (nl * gini_l + nr * gini_r) / n
        weighted[~valid] = np.inf
        # The row-major first minimum is the lowest feature, then the lowest
        # value, as the tie rule asks.
        f, cut = divmod(int(weighted.argmin()), weighted.shape[1])
        low, high = values[f, cut], values[f, cut + 1]
        middle = (low + high) / 2.0
        # The midpoint of adjacent floats (1+eps, 1+2eps) can round up to
        # ``high``, and a huge pair's can overflow; cutting at ``low`` then
        # still sends ``high`` right.
        return int(feats[f]), float(middle if low <= middle < high else low)

    def build(rows: np.ndarray, depth: int) -> int:
        ids = rows[0]
        n = int(weight[ids].sum())
        pos = int(weighted_y[ids].sum())
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 1 if pos > n - pos else 0])
        if (pos == 0 or pos == n or n < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth)):
            return node
        if n_candidates < n_features:
            feats = rng.choice(n_features, n_candidates, replace=False)
            feats.sort()
            split = best_split(rows[feats], feats, n, pos)
        else:
            split = best_split(rows, np.arange(n_features), n, pos)
        if split is None:
            return node
        f, cut = split
        # Boolean selection is stable, so each child stays sorted.
        go_left = X[:, f][rows] <= cut
        left = build(rows[go_left].reshape(n_features, -1), depth + 1)
        right = build(rows[~go_left].reshape(n_features, -1), depth + 1)
        nodes[node] = [f, cut, left, right, -1]
        return node

    present = weight[order] > 0
    build(order[present].reshape(n_features, -1), 0)
    return {name: np.array(column, dtype=dtype)
            for (name, dtype), column in zip(_TREE_ARRAYS.items(), zip(*nodes))}


def _apply_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    while True:
        feats = tree["feature"][node]
        internal = feats >= 0
        if not internal.any():
            return tree["vote"][node]
        rows = np.nonzero(internal)[0]
        x = X[rows, feats[rows]]
        go_left = x <= tree["threshold"][node[rows]]
        node[rows] = np.where(go_left, tree["left"][node[rows]],
                              tree["right"][node[rows]])


def _candidate_count(mode: str, n_features: int) -> int:
    if mode == "all":
        return n_features
    if mode == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    if mode == "log2":
        return max(1, int(math.log2(n_features))) if n_features > 1 else 1
    raise InputError(f"unknown feature_subsample mode {mode!r}")


# ---------------------------------------------------------------------------
# Training


def _train_forest(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray) -> dict:
    params = spec.hyperparameters
    n_trees = int(params.get("n_trees", 100))
    max_depth = params.get("max_depth")
    max_depth = int(max_depth) if max_depth is not None else None
    min_leaf = int(params.get("min_leaf", 1))
    mode = params.get("feature_subsample", "all")
    if n_trees < 1:
        raise InputError("n_trees must be >= 1")
    if min_leaf < 1:
        raise InputError("min_leaf must be >= 1")
    n_candidates = _candidate_count(mode, X.shape[1])

    balanced = spec.kind == BALANCED_RANDOM_FOREST
    n = X.shape[0]
    class0 = np.nonzero(y == 0)[0]
    class1 = np.nonzero(y == 1)[0]
    per_class = min(class0.size, class1.size)

    # Sorted once per fit; every tree and node reuses this order.
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    trees = []
    bag_positive = []
    for t in range(n_trees):
        rng = rng_for(spec.seed, "tree", t)
        if balanced:
            bag = np.concatenate([rng.choice(class0, per_class, replace=True),
                                  rng.choice(class1, per_class, replace=True)])
            assert int(y[bag].sum()) == per_class == bag.size - int(y[bag].sum())
        else:
            bag = rng.integers(0, n, n)
        weight = np.bincount(bag, minlength=n)
        bag_positive.append(int(weight @ y))
        trees.append(_grow_tree(X, y, weight, order, rng, max_depth, min_leaf,
                                n_candidates))
    return {"trees": trees, "bag_positive_counts": bag_positive,
            "per_class_bag": per_class if balanced else None}


def _train_knn(spec: ClassifierSpec, X: np.ndarray, y: np.ndarray) -> dict:
    k = int(spec.hyperparameters.get("k", 5))
    if k < 1:
        raise InputError("k must be >= 1")
    if k > X.shape[0]:
        raise InputError(f"k={k} exceeds the {X.shape[0]} training rows")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return {"k": k, "mean": mean, "std": std,
            "X": (X - mean) / std, "y": y.astype(_KNN_ARRAYS["y"])}


def train(spec: ClassifierSpec, matrix: EncodedMatrix) -> TrainedModel:
    """Fit a model; deterministic for identical (spec, data)."""
    X, y = matrix.X, matrix.labels
    if X.shape[0] == 0:
        raise InputError("cannot train on an empty matrix")
    counts = (int(np.count_nonzero(y == 0)), int(np.count_nonzero(y == 1)))
    metadata = {"n_train": X.shape[0], "n_features": X.shape[1],
                "class_counts": counts}

    if spec.kind == DUMMY:
        majority = 0 if counts[0] >= counts[1] else 1
        threshold = SENTINEL_THRESHOLD if majority == 0 else 0.0
        return TrainedModel(spec=spec, state={"majority": majority},
                            decision_threshold=threshold, metadata=metadata)

    if min(counts) == 0:
        raise InputError(f"{spec.kind} training needs both classes, got counts {counts}")
    state = (_train_knn if spec.kind == KNN else _train_forest)(spec, X, y)
    return TrainedModel(spec=spec, state=state, metadata=metadata)


# ---------------------------------------------------------------------------
# Scoring


def _as_features(model: TrainedModel, rows: Union[EncodedMatrix, np.ndarray]) -> np.ndarray:
    X = rows.X if isinstance(rows, EncodedMatrix) else np.asarray(rows, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.metadata["n_features"]:
        raise InputError(
            f"expected {model.metadata['n_features']} feature columns, "
            f"got shape {X.shape}")
    return X


def score(model: TrainedModel, rows: Union[EncodedMatrix, np.ndarray]) -> np.ndarray:
    """Scores in [0, 1]; a pure function of fitted state and input."""
    X = _as_features(model, rows)
    kind = model.spec.kind
    if kind == DUMMY:
        return np.full(X.shape[0], float(model.state["majority"]))
    if kind == KNN:
        return _score_knn(model.state, X)
    votes = np.zeros(X.shape[0])
    trees = model.state["trees"]
    for tree in trees:
        votes += _apply_tree(tree, X)
    return votes / len(trees)


#: Size of the float64 ``(rows, n_train, n_features)`` difference temporary
#: that one chunk of kNN scoring builds.
_KNN_CHUNK_BYTES = 4 << 20


def _knn_vote_table(state: dict, X: np.ndarray, k_max: int) -> np.ndarray:
    """Neighbour votes of each row of ``X`` for every ``k <= k_max``, shape (rows, k_max).

    Column ``k - 1`` is the ``k``-neighbour score: the positive share of the
    training rows no farther than the k-th nearest, so rows tied with the
    k-th all vote.  Ties within the ``k_max`` nearest are counted among
    them; ties with the ``k_max``-th are counted over the whole row.  Rows
    are scored in chunks of bounded memory; each squared distance sums the
    same feature axis in the same order whatever the chunk, so every column
    is bit-identical to scoring with that ``k`` alone.
    """
    Xq = (X - state["mean"]) / state["std"]
    Xt, y = state["X"], state["y"]
    chunk = max(1, _KNN_CHUNK_BYTES // max(1, Xt.nbytes))
    ranks = np.arange(1, k_max + 1)
    table = np.empty((Xq.shape[0], k_max))
    for start in range(0, Xq.shape[0], chunk):
        block = Xq[start:start + chunk]
        d2 = ((block[:, None, :] - Xt[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argpartition(d2, k_max - 1, axis=1)[:, :k_max]
        dist = np.take_along_axis(d2, nearest, axis=1)
        order = np.argsort(dist, axis=1, kind="stable")
        dist = np.take_along_axis(dist, order, axis=1)
        positives = y[np.take_along_axis(nearest, order, axis=1)].cumsum(axis=1)
        # The k-neighbourhood ends with the last distance tied with the k-th.
        last_of_run = np.ones(dist.shape, dtype=bool)
        last_of_run[:, :-1] = dist[:, :-1] != dist[:, 1:]
        counts = np.minimum.accumulate(
            np.where(last_of_run, ranks, k_max)[:, ::-1], axis=1)[:, ::-1]
        positives = np.take_along_axis(positives, counts - 1, axis=1)
        edge = dist[:, -1:]
        mask = d2 <= edge
        at_edge = dist == edge
        counts = np.where(at_edge, mask.sum(axis=1)[:, None], counts)
        positives = np.where(at_edge, (mask @ y)[:, None], positives)
        table[start:start + chunk] = positives / counts
    return table


def _score_knn(state: dict, X: np.ndarray) -> np.ndarray:
    return _knn_vote_table(state, X, state["k"])[:, -1]


def classify(model: TrainedModel, rows: Union[EncodedMatrix, np.ndarray]) -> np.ndarray:
    """Apply the decision rule score >= threshold; requires a set threshold."""
    if model.decision_threshold is None:
        raise StateError("decision threshold is not set")
    return (score(model, rows) >= model.decision_threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# Persistence


def _converted_state(kind: str, state: dict, convert) -> dict:
    """``state`` with ``convert(value, dtype)`` applied to each fitted array."""
    if kind == DUMMY:
        return state
    if kind == KNN:
        return {**state, **{name: convert(state[name], dtype)
                            for name, dtype in _KNN_ARRAYS.items()}}
    return {**state, "trees": [{name: convert(tree[name], dtype)
                                for name, dtype in _TREE_ARRAYS.items()}
                               for tree in state["trees"]]}


def save_model(model: TrainedModel, path) -> None:
    """Persist as a self-describing, versioned JSON document."""
    state = _converted_state(model.spec.kind, model.state,
                             lambda array, dtype: array.tolist())
    document = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.spec.kind,
        "hyperparameters": model.spec.hyperparameters,
        "seed": model.spec.seed,
        "decision_threshold": _json_safe(model.decision_threshold),
        "metadata": model.metadata,
        "state": state,
    }
    with _atomic_output(path) as handle:
        json.dump(document, handle, sort_keys=True)


def load_model(path) -> TrainedModel:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != MODEL_FORMAT:
        raise InputError(f"{path}: not a {MODEL_FORMAT} file")
    if document.get("version") != MODEL_VERSION:
        raise InputError(f"{path}: unsupported version {document.get('version')}")
    spec = ClassifierSpec(kind=document["kind"],
                          hyperparameters=document["hyperparameters"],
                          seed=document["seed"])
    state = _converted_state(spec.kind, document["state"], np.array)
    threshold = document["decision_threshold"]
    if threshold is not None:
        threshold = float(threshold)
    return TrainedModel(spec=spec, state=state, decision_threshold=threshold,
                        metadata=document["metadata"])
