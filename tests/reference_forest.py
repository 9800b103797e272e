"""Reference random forest: one argsort per node, one tree at a time.

This is the straightforward form of the tree growth and scoring in
``falsecall.classifiers``: every tree is grown on its materialised bootstrap
bag and every node sorts each candidate feature again, and scoring applies
the trees one after the other.  The library grows trees from rows presorted
once per fit and walks all trees of a forest together instead; the property
tests require both to give identical trees and bit-identical scores.
"""

from typing import Optional

import numpy as np

from falsecall.classifiers import BALANCED_RANDOM_FOREST, _candidate_count
from falsecall.seeding import rng_for


def reference_grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
                        max_depth: Optional[int], min_leaf: int,
                        n_candidates: int) -> dict:
    n_features = X.shape[1]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    vote: list[int] = []

    def leaf(pos: int, count: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        vote.append(1 if pos > count - pos else 0)
        return node

    def best_split(idx: np.ndarray, feats: np.ndarray):
        n = idx.size
        y_node = y[idx]
        total_pos = int(y_node.sum())
        best = None
        for f in feats:
            values = X[idx, f]
            order = np.argsort(values, kind="stable")
            vs = values[order]
            boundaries = np.nonzero(vs[1:] != vs[:-1])[0]
            if boundaries.size == 0:
                continue
            nl = boundaries + 1
            if min_leaf > 1:
                okay = (nl >= min_leaf) & (n - nl >= min_leaf)
                boundaries, nl = boundaries[okay], nl[okay]
                if boundaries.size == 0:
                    continue
            nr = n - nl
            pl = np.cumsum(y_node[order])[boundaries]
            pr = total_pos - pl
            gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
            gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
            weighted = (nl * gini_l + nr * gini_r) / n
            b = int(np.argmin(weighted))
            if best is None or weighted[b] < best[0]:
                cut = boundaries[b]
                middle = (vs[cut] + vs[cut + 1]) / 2.0
                best = (float(weighted[b]), int(f),
                        float(middle if vs[cut] <= middle < vs[cut + 1] else vs[cut]))
        return best

    def build(idx: np.ndarray, depth: int) -> int:
        n = idx.size
        pos = int(y[idx].sum())
        if (pos == 0 or pos == n or n < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth)):
            return leaf(pos, n)
        if n_candidates < n_features:
            feats = np.sort(rng.choice(n_features, n_candidates, replace=False))
        else:
            feats = np.arange(n_features)
        split = best_split(idx, feats)
        if split is None:
            return leaf(pos, n)
        _, f, cut = split
        node = len(feature)
        feature.append(f)
        threshold.append(cut)
        left.append(-1)
        right.append(-1)
        vote.append(-1)
        go_left = X[idx, f] <= cut
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return {"feature": np.array(feature, dtype=np.int64),
            "threshold": np.array(threshold, dtype=float),
            "left": np.array(left, dtype=np.int64),
            "right": np.array(right, dtype=np.int64),
            "vote": np.array(vote, dtype=np.int64)}


def reference_train_forest(kind: str, params: dict, seed: int,
                           X: np.ndarray, y: np.ndarray) -> dict:
    """The forest state ``_train_forest`` must produce for these inputs."""
    max_depth = params.get("max_depth")
    min_leaf = params.get("min_leaf", 1)
    n_candidates = _candidate_count(params.get("feature_subsample", "all"),
                                    X.shape[1])
    class0 = np.nonzero(y == 0)[0]
    class1 = np.nonzero(y == 1)[0]
    per_class = min(class0.size, class1.size)
    trees, bag_positive = [], []
    for t in range(params.get("n_trees", 100)):
        rng = rng_for(seed, "tree", t)
        if kind == BALANCED_RANDOM_FOREST:
            bag = np.concatenate([rng.choice(class0, per_class, replace=True),
                                  rng.choice(class1, per_class, replace=True)])
        else:
            bag = rng.integers(0, X.shape[0], X.shape[0])
        bag_positive.append(int(y[bag].sum()))
        trees.append(reference_grow_tree(X[bag], y[bag], rng, max_depth,
                                         min_leaf, n_candidates))
    return {"trees": trees, "bag_positive_counts": bag_positive}


def reference_apply_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    """Each row's leaf vote, the rows still inside the tree descending a level per step."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feats = tree["feature"][node]
        internal = feats >= 0
        if not internal.any():
            return tree["vote"][node]
        rows = np.nonzero(internal)[0]
        go_left = X[rows, feats[rows]] <= tree["threshold"][node[rows]]
        node[rows] = np.where(go_left, tree["left"][node[rows]],
                              tree["right"][node[rows]])


def reference_apply_forest(trees: list, X: np.ndarray) -> np.ndarray:
    """The scores ``score`` must give: the trees' votes added up, over their count."""
    votes = np.zeros(X.shape[0])
    for tree in trees:
        votes += reference_apply_tree(tree, X)
    return votes / len(trees)
