"""Reference kNN scorer: one partition per chunk of rows and per ``k``.

This is the straightforward form of kNN scoring in ``falsecall.classifiers``:
each call computes the squared distances of 256 query rows at a time, finds
the k-th smallest and lets every training row no farther than it vote.  The
library builds a neighbour-vote table that serves every ``k`` up to a bound
instead; the property tests require both to give identical floats.
"""

import numpy as np


def reference_score_knn(state: dict, X: np.ndarray, chunk: int = 256) -> np.ndarray:
    Xq = (X - state["mean"]) / state["std"]
    Xt, y, k = state["X"], state["y"], state["k"]
    out = np.empty(Xq.shape[0])
    for start in range(0, Xq.shape[0], chunk):
        block = Xq[start:start + chunk]
        d2 = ((block[:, None, :] - Xt[None, :, :]) ** 2).sum(axis=2)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        mask = d2 <= kth[:, None]
        out[start:start + chunk] = (mask @ y) / mask.sum(axis=1)
    return out
