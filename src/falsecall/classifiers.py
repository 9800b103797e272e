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
feature index, then lowest split value.  Each fit transposes and sorts its
training matrix once; every tree grows on the distinct rows of its bag,
weighted by how often the bag drew them, and every node keeps its rows in
that presorted order, so the split search sorts nothing.  The counts left of
each cut are float64 prefix sums of those integer weights, exact and so
giving the same Gini values as integer counts; a split hands each child its
row and positive counts, and a child that will be a leaf is appended without
selecting its rows.  Scoring walks all (tree, row) pairs of a chunk of rows
together over the forest's joined node arrays; the votes are counted
exactly, so every score equals applying the trees one at a time.

kNN scoring finds each row's neighbours in two stages.  A filter computes
the expanded distances ``‖a‖² + ‖b‖² − 2·a·b`` of a chunk of rows with one
matrix product and keeps, for each row, the training rows that a
proven error bound cannot rule out of its nearest; the exact squared
distances, summed in ``ndarray.sum``'s order, are then computed for those
candidates alone.  Every row left out is strictly farther than the
neighbours that decide the score, so the scores are those of exact
distances to every training row, bit for bit.
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


#: Each kind's default search space: inclusive integer ranges, then choice
#: options.  A space of that kind may hold these parameters and no others.
_DEFAULT_SPACES = {
    DUMMY: ({}, {}),
    KNN: ({"k": (1, 51)}, {}),
    RANDOM_FOREST: ({"n_trees": (10, 300), "max_depth": (2, 30), "min_leaf": (1, 20)},
                    {"feature_subsample": ("sqrt", "log2", "all")}),
}
_DEFAULT_SPACES[BALANCED_RANDOM_FOREST] = _DEFAULT_SPACES[RANDOM_FOREST]
#: Integer hyperparameters that ``train`` rejects below 1.
_AT_LEAST_ONE = frozenset({"n_trees", "min_leaf", "k"})


@dataclass(frozen=True)
class HyperParamSpace:
    """Sampling ranges for one classifier kind.

    ``int_ranges`` are inclusive integer bounds; parameters listed in
    ``odd_only`` are drawn from the odd values inside their range.  Each
    parameter must be one the kind has, and ``n_trees``, ``min_leaf`` and
    ``k`` ranges start at 1 or above.
    """

    kind: str
    int_ranges: dict = field(default_factory=dict)
    choices: dict = field(default_factory=dict)
    odd_only: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown classifier kind {self.kind!r}")
        integers, options = _DEFAULT_SPACES[self.kind]
        for group, names, known in (("integer", self.int_ranges, integers),
                                    ("choice", self.choices, options),
                                    ("integer", self.odd_only, self.int_ranges)):
            for name in names:
                if name not in known:
                    raise InputError(f"{self.kind} has no {group} parameter {name!r}")
        for name, bounds in self.int_ranges.items():
            if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(
                    isinstance(bound, (int, np.integer)) for bound in bounds)):
                raise InputError(f"{self.kind}: {name}={bounds!r} needs integer "
                                 f"bounds (low, high)")
            lo, hi = bounds
            if name in _AT_LEAST_ONE and lo < 1:
                raise InputError(f"{self.kind}: {name}=({lo}, {hi}) needs low >= 1")
            if name in self.odd_only and hi < lo + (lo % 2 == 0):
                raise InputError(f"{self.kind}: {name}=({lo}, {hi}) holds no odd value")
            if lo > hi:
                raise InputError(f"{name}=({lo}, {hi}) needs low <= high")

    @classmethod
    def default(cls, kind: str) -> "HyperParamSpace":
        if kind not in KINDS:
            raise InputError(f"unknown classifier kind {kind!r}")
        int_ranges, choices = _DEFAULT_SPACES[kind]
        return cls(kind=kind, int_ranges=dict(int_ranges), choices=dict(choices),
                   odd_only=frozenset({"k"}) if kind == KNN else frozenset())

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
                if lo < base_lo or hi > base_hi:
                    raise InputError(
                        f"bounds {name}=({lo}, {hi}) leave the declared range")
                ranges[name] = (lo, hi)
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


def _grow_tree(Xt: np.ndarray, y: np.ndarray, weight: np.ndarray,
               order: np.ndarray, rng: np.random.Generator,
               max_depth: Optional[int], min_leaf: int, n_candidates: int) -> dict:
    """Grow one tree on the bag whose row multiplicities are ``weight``.

    ``Xt`` is the training matrix transposed, one contiguous line per
    feature, and ``order`` holds each feature's row ids in ascending value
    order, shape ``(n_features, n_rows)``.  Each node keeps that layout for
    its own rows, so no node sorts: the counts left of every cut are prefix
    sums of the multiplicities, the same integers as on the materialised bag
    (exact in float64, so the Gini values and their argmin are too).
    """
    n_features, n_rows = Xt.shape
    # Each row's multiplicity and positives: integers, exact in float64.
    counts = np.stack([weight, weight * y]).astype(float)
    feature_offsets = np.arange(n_features)[:, None] * n_rows
    all_features = np.arange(n_features)
    # One [feature, threshold, left, right, vote] list per node, in pre-order;
    # a node starts as a leaf and becomes a split once its children are grown.
    nodes: list[list] = []

    def best_split(rows: np.ndarray, feats: np.ndarray, n: int, total_pos: int):
        # ``rows`` has one line per candidate feature, in ascending value
        # order; the cut after column j sends columns 0..j left.
        values = Xt.take(rows + feature_offsets[feats])
        # Bag rows (``sizes``) and positives, each left of every cut and
        # right of it: prefix sums of the counts, and their complements.
        tallies = np.empty((2, 2, len(feats), rows.shape[1] - 1))
        counts.take(rows[:, :-1], axis=1).cumsum(axis=2, out=tallies[:, 0])
        np.subtract(np.array([n, total_pos], dtype=float)[:, None, None],
                    tallies[:, 0], out=tallies[:, 1])
        sizes, positives = tallies
        valid = values[:, 1:] != values[:, :-1]
        if min_leaf > 1:
            valid &= np.minimum(sizes[0], sizes[1]) >= min_leaf
        if not valid.any():
            return None
        gini = 1.0 - (positives / sizes) ** 2 - ((sizes - positives) / sizes) ** 2
        impurity = sizes * gini
        weighted = np.where(valid, (impurity[0] + impurity[1]) / n, np.inf)
        # The row-major first minimum is the lowest feature, then the lowest
        # value, as the tie rule asks.
        f, cut = divmod(int(weighted.argmin()), weighted.shape[1])
        low, high = values[f, cut], values[f, cut + 1]
        middle = (low + high) / 2.0
        # The midpoint of adjacent floats (1+eps, 1+2eps) can round up to
        # ``high``, and a huge pair's can overflow; cutting at ``low`` then
        # still sends ``high`` right.
        return (int(feats[f]), float(middle if low <= middle < high else low),
                int(sizes[0, f, cut]), int(positives[0, f, cut]))

    def select(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
        # ``compress`` keeps order, so each line stays sorted; it is several
        # times faster than boolean indexing of a 2-D array.
        return rows.compress(keep).reshape(n_features, -1)

    def is_leaf(n: int, pos: int, depth: int) -> bool:
        return (pos == 0 or pos == n or n < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth))

    def build(rows: Optional[np.ndarray], n: int, pos: int, depth: int) -> int:
        # ``n`` and ``pos`` count the node's bag rows and positives; ``rows``
        # is None for a node that ``is_leaf``, which needs no rows.
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, 1 if pos > n - pos else 0])
        if rows is None:
            return node
        if n_candidates < n_features:
            feats = rng.choice(n_features, n_candidates, replace=False)
            feats.sort()
            split = best_split(rows[feats], feats, n, pos)
        else:
            split = best_split(rows, all_features, n, pos)
        if split is None:
            return node
        f, cut, n_left, pos_left = split
        n_right, pos_right = n - n_left, pos - pos_left
        leaf_left = is_leaf(n_left, pos_left, depth + 1)
        leaf_right = is_leaf(n_right, pos_right, depth + 1)
        if not (leaf_left and leaf_right):
            go_left = Xt[f].take(rows).ravel() <= cut
        left = build(None if leaf_left else select(rows, go_left),
                     n_left, pos_left, depth + 1)
        right = build(None if leaf_right else select(rows, ~go_left),
                      n_right, pos_right, depth + 1)
        nodes[node] = [f, cut, left, right, -1]
        return node

    n, pos = int(weight.sum()), int(weight @ y)
    build(None if is_leaf(n, pos, 0)
          else select(order, (weight > 0).take(order).ravel()), n, pos, 0)
    return {name: np.array(column, dtype=dtype)
            for (name, dtype), column in zip(_TREE_ARRAYS.items(), zip(*nodes))}


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

    # Transposed and sorted once per fit; every tree and node reuses both.
    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1, kind="stable")
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
        trees.append(_grow_tree(Xt, y, weight, order, rng, max_depth, min_leaf,
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
    if X.shape[1] == 0:
        raise InputError(f"{spec.kind} training needs at least one feature column, got 0")
    if spec.kind == KNN:
        finite = np.isfinite(X).all(axis=0)
        if not finite.all():
            raise InputError(f"knn training needs finite features; column "
                             f"{matrix.column_names[int(np.argmin(finite))]!r} is not")
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
    missing = np.isnan(X).any(axis=1)
    if missing.any():
        raise InputError(f"row {int(np.argmax(missing))} holds NaN; only numbers "
                         f"and +-inf can be scored")
    return X


def score(model: TrainedModel, rows: Union[EncodedMatrix, np.ndarray]) -> np.ndarray:
    """Scores in [0, 1]; a pure function of fitted state and input."""
    X = _as_features(model, rows)
    kind = model.spec.kind
    if kind == DUMMY:
        return np.full(X.shape[0], float(model.state["majority"]))
    if kind == KNN:
        return _knn_vote_table(model.state, X, model.state["k"])[:, -1]
    trees = model.state["trees"]
    return _forest_votes(trees, X) / len(trees)


#: (tree, row) pairs one chunk of forest scoring walks together.  The walk
#: holds about 80 bytes a pair at once, so a chunk takes about 5 MB.
_FOREST_CHUNK_PAIRS = 1 << 16


def _forest_votes(trees: list, X: np.ndarray) -> np.ndarray:
    """Number of ``trees`` whose leaf votes 1, for each row of ``X``.

    The trees' node arrays are joined into one, child ids shifted by each
    tree's offset, and a leaf made its own left and right child, so a pair
    that reaches its leaf stays there.  All (tree, row) pairs of a chunk of
    rows descend together, one level per step; every fourth step the pairs
    at a leaf cast their votes and leave the walk, which costs about as much
    as a step.
    """
    sizes = [len(tree["feature"]) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, vote = (
        np.concatenate([tree[name] for tree in trees]) for name in _TREE_ARRAYS)
    leaf = feature < 0
    itself = np.arange(len(feature))
    shift = np.repeat(roots, sizes)
    left = np.where(leaf, itself, left + shift)
    right = np.where(leaf, itself, right + shift)
    feature = np.where(leaf, 0, feature)
    X = np.ascontiguousarray(X)
    n_features = X.shape[1]
    votes = np.zeros(X.shape[0])
    chunk = max(1, _FOREST_CHUNK_PAIRS // len(trees))
    for start in range(0, X.shape[0], chunk):
        block = X[start:start + chunk].ravel()
        m = min(chunk, X.shape[0] - start)
        node = np.repeat(roots, m)
        row = np.tile(np.arange(m), len(trees))
        while True:
            done = leaf.take(node)
            # Votes are 0 or 1, so these float sums are exact counts.
            votes[start:start + m] += np.bincount(
                row.compress(done), vote.take(node.compress(done)), minlength=m)
            node, row = node.compress(~done), row.compress(~done)
            if not node.size:
                break
            for _ in range(4):
                x = block.take(row * n_features + feature.take(node))
                node = np.where(x <= threshold.take(node), left.take(node),
                                right.take(node))
    return votes


#: Sets the query rows of one chunk of kNN scoring: as many as make the
#: ``(n_features, rows, n_train)`` float64 array this size.  A chunk's
#: squared differences fill that array only where every training row is a
#: candidate; its ``(rows, n_train)`` expanded distances take 1/n_features.
_KNN_CHUNK_BYTES = 4 << 20


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum ``terms``, at least one, over its leading axis in place; returns ``terms[0]``.

    The terms are added in the order ``ndarray.sum`` adds a contiguous axis
    of that length (numpy's pairwise summation), so the result is
    bit-identical to summing the same values laid out along the last axis:
    under 8 terms in sequence; up to 128 with 8 running sums combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then the remainder; above
    that, the two halves split at a multiple of 8, each summed this way.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_sum(terms[:half])
        terms[0] += _pairwise_sum(terms[half:])
        return terms[0]
    if n < 8:
        tail = 1
    else:
        tail = n - n % 8
        for start in range(8, tail, 8):
            terms[:8] += terms[start:start + 8]
        terms[0:8:2] += terms[1:8:2]
        terms[0:8:4] += terms[2:8:4]
        terms[0] += terms[4]
    for i in range(tail, n):
        terms[0] += terms[i]
    return terms[0]


def _expanded_distances(block: np.ndarray, features: np.ndarray,
                        train_norms: np.ndarray, out: np.ndarray) -> tuple:
    """``‖a‖² + ‖b‖² − 2·a·b`` for each row ``a`` of ``block`` and column ``b``
    of ``features``, written into ``out``, and each row's slack.

    The slack, ``(8F + 64)·eps·(‖a‖² + max ‖b‖²) + tiny`` for ``F``
    features, is at least four times the farthest the value can lie from the
    squared distance ``_pairwise_sum`` gives for the same pair, whatever
    order the matrix product adds in; ``tiny`` covers underflow.  An
    infinite or overflowing row gives an infinite slack, silently.
    """
    info = np.finfo(float)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (block * block).sum(axis=1)
        np.matmul(block, features, out=out)
        out *= -2.0
        out += train_norms
        out += norms[:, None]
        slack = (8 * len(features) + 64) * info.eps * (norms + train_norms.max()) + info.tiny
    return out, slack


def _knn_vote_table(state: dict, X: np.ndarray, k_max: int) -> np.ndarray:
    """Neighbour votes of each row of ``X`` for every ``k <= k_max``, shape (rows, k_max).

    Column ``k - 1`` is the ``k``-neighbour score: the positive share of the
    training rows no farther than the k-th nearest, so rows tied with the
    k-th all vote.  Ties within the ``k_max`` nearest are counted among
    them; ties with the ``k_max``-th are counted over the whole row.  Rows
    are scored in chunks of bounded memory, in two stages.

    First a filter: one matrix product per chunk gives the expanded value
    ``‖a‖² + ‖b‖² − 2·a·b`` of every (row, training row) pair.  It lies
    within ``slack`` of the exact squared distance (``_expanded_distances``;
    the float error of the product, the norms and the exact sum is at most
    about ``(4F + 8)·u·(‖a‖² + ‖b‖²)`` for ``F`` features and ``u = 2⁻⁵³``,
    Higham's γₙ bounds).  With ``kth`` a row's ``k_max``-th smallest
    expanded value, the candidates are the training rows whose value is at
    most ``kth + 2·slack``.  The ``k_max`` rows at or below ``kth`` are
    exactly at most ``kth + slack`` away, so every row no farther than the
    ``k_max``-th nearest is a candidate and every other row is strictly
    farther: the edge, the tie counts and the votes are those of the whole
    row, whatever rounding the product uses.  A row whose bound is not
    finite (an infinite cell, or overflow far from the training data) keeps
    every training row.  Each chunk keeps as many rows per query row as its
    widest candidate set, those with the smallest expanded values; any kept
    beyond a row's own candidates are strictly farther too.

    Then the exact distances of the candidates alone: their squared feature
    differences are laid out feature-major, one ``(rows, width)`` plane per
    feature, and summed plane by plane in ``ndarray.sum``'s order over the
    feature axis, so each squared distance is bit-identical to
    ``((row - Xt) ** 2).sum(axis=1)`` whatever the chunk, and every column
    to scoring with that ``k`` alone.
    """
    Xq = (X - state["mean"]) / state["std"]
    Xt, y = state["X"], state["y"]
    chunk = max(1, _KNN_CHUNK_BYTES // Xt.nbytes)
    ranks = np.arange(1, k_max + 1)
    table = np.empty((Xq.shape[0], k_max))
    features = np.ascontiguousarray(Xt.T)
    train_norms = (Xt * Xt).sum(axis=1)
    expanded = np.empty((min(chunk, Xq.shape[0]), Xt.shape[0]))
    for start in range(0, Xq.shape[0], chunk):
        block = Xq[start:start + chunk]
        approx, slack = _expanded_distances(block, features, train_norms,
                                            expanded[:len(block)])
        kth = np.partition(approx, k_max - 1, axis=1)[:, k_max - 1]
        # A bound that is not finite keeps every training row: nothing
        # compares greater than inf or NaN.
        width = int((~(approx > (kth + 2 * slack)[:, None])).sum(axis=1).max())
        candidates = np.argpartition(approx, width - 1, axis=1)[:, :width]
        d = features[:, candidates]
        np.subtract(block.T[:, :, None], d, out=d)
        np.multiply(d, d, out=d)
        d2 = _pairwise_sum(d)
        votes = y[candidates]
        nearest = np.argpartition(d2, k_max - 1, axis=1)[:, :k_max]
        dist = np.take_along_axis(d2, nearest, axis=1)
        order = np.argsort(dist, axis=1, kind="stable")
        dist = np.take_along_axis(dist, order, axis=1)
        positives = np.take_along_axis(
            votes, np.take_along_axis(nearest, order, axis=1), axis=1).cumsum(axis=1)
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
        positives = np.where(at_edge, (mask * votes).sum(axis=1)[:, None], positives)
        table[start:start + chunk] = positives / counts
    return table


def classify(model: TrainedModel, rows: Union[EncodedMatrix, np.ndarray]) -> np.ndarray:
    """Apply the decision rule score >= threshold; requires a set threshold."""
    if model.decision_threshold is None:
        raise StateError("decision threshold is not set")
    return (score(model, rows) >= model.decision_threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# Persistence


def _converted_state(kind: str, state: dict, convert) -> dict:
    """``state`` with ``convert(value, dtype, field)`` applied to each fitted
    array, ``field`` naming it as in ``state.X`` or ``state.trees[0].left``."""
    if kind == DUMMY:
        return state
    if kind == KNN:
        return {**state, **{name: convert(state[name], dtype, f"state.{name}")
                            for name, dtype in _KNN_ARRAYS.items()}}
    return {**state, "trees": [{name: convert(tree[name], dtype, f"state.trees[{i}].{name}")
                                for name, dtype in _TREE_ARRAYS.items()}
                               for i, tree in enumerate(state["trees"])]}


def _loaded_array(value, dtype, field: str) -> np.ndarray:
    """A saved list as a ``dtype`` array; integers may stand for floats."""
    try:
        array = np.array(value)
    except ValueError:  # rows of unequal length
        array = np.array(None)
    if array.dtype.kind not in ("i" if dtype is np.int64 else "if"):
        raise ValueError(f"{field} must be a list of "
                         f"{'integers' if dtype is np.int64 else 'numbers'}")
    return array.astype(dtype)


def _check_state(kind: str, state: dict, n_features: int) -> None:
    """Raise ``ValueError`` naming a fitted field that ``score`` could not use.

    Tree nodes are numbered in pre-order, so each split's children come
    after it: a walk from the root always reaches a leaf.
    """
    if kind == DUMMY:
        if state.get("majority") not in (0, 1):
            raise ValueError("state.majority must be 0 or 1")
    elif kind == KNN:
        y, k = state["y"], state.get("k")
        if y.ndim != 1 or not np.isin(y, (0, 1)).all():
            raise ValueError("state.y must be a list of 0s and 1s")
        if state["X"].shape != (len(y), n_features):
            raise ValueError(f"state.X must have one row per state.y and "
                             f"{n_features} columns, got shape {state['X'].shape}")
        for name in ("mean", "std"):
            if state[name].shape != (n_features,):
                raise ValueError(f"state.{name} must hold {n_features} values")
        for name in ("X", "mean"):
            if not np.isfinite(state[name]).all():
                raise ValueError(f"state.{name} must hold finite numbers")
        if not ((0 < state["std"]) & (state["std"] < np.inf)).all():
            raise ValueError("state.std must hold positive finite numbers")
        if type(k) is not int or not 1 <= k <= len(y):
            raise ValueError(f"state.k must be an integer in [1, {len(y)}], got {k!r}")
    else:
        if not state["trees"]:
            raise ValueError("state.trees must hold at least one tree")
        for i, tree in enumerate(state["trees"]):
            shape, split = tree["feature"].shape, tree["feature"] >= 0
            if len(shape) != 1 or any(tree[name].shape != shape for name in _TREE_ARRAYS):
                raise ValueError(f"state.trees[{i}]: the node lists must be flat, "
                                 f"of one length")
            if (tree["feature"] >= n_features).any():
                raise ValueError(f"state.trees[{i}].feature must be below {n_features}")
            if np.isnan(tree["threshold"]).any():  # a fit may store -inf, never NaN
                raise ValueError(f"state.trees[{i}].threshold must not hold NaN")
            node = np.flatnonzero(split)
            for name in ("left", "right"):
                child = tree[name][split]
                if ((child <= node) | (child >= shape[0])).any():
                    raise ValueError(f"state.trees[{i}].{name} must follow its "
                                     f"node inside the tree")
            if not np.isin(tree["vote"][~split], (0, 1)).all():
                raise ValueError(f"state.trees[{i}].vote must be 0 or 1 at each leaf")


def save_model(model: TrainedModel, path) -> None:
    """Persist as a self-describing, versioned JSON document."""
    state = _converted_state(model.spec.kind, model.state,
                             lambda array, dtype, field: array.tolist())
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
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != MODEL_FORMAT:
        raise InputError(f"{path}: not a {MODEL_FORMAT} file")
    if document.get("version") != MODEL_VERSION:
        raise InputError(f"{path}: unsupported version {document.get('version')}")
    try:
        spec = ClassifierSpec(kind=document["kind"],
                              hyperparameters=document["hyperparameters"],
                              seed=document["seed"])
        threshold, metadata = document["decision_threshold"], document["metadata"]
        n_features = metadata.get("n_features") if isinstance(metadata, dict) else None
        if type(n_features) is not int or n_features < 1:
            raise ValueError(f"metadata.n_features must be a positive integer, "
                             f"got {n_features!r}")
        state = document["state"]
        trees = state.get("trees", []) if isinstance(state, dict) else None
        if not (isinstance(trees, list) and all(isinstance(tree, dict) for tree in trees)):
            raise ValueError("state must be an object, and its trees a list of objects")
        state = _converted_state(spec.kind, state, _loaded_array)
        _check_state(spec.kind, state, n_features)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if threshold is not None:
        try:
            threshold = float(threshold)
        except (TypeError, ValueError):
            raise InputError(f"{path}: decision_threshold must be a number, "
                             f"got {threshold!r}") from None
        if math.isnan(threshold):
            raise InputError(f"{path}: decision_threshold is NaN")
    return TrainedModel(spec=spec, state=state, decision_threshold=threshold,
                        metadata=metadata)
