"""Reference ranking: one stable argsort of the negated scores.

This is the straightforward form of ``falsecall.curves._ranked``: the rows
are put in descending score order, ties kept in input order, and the counts
at each distinct score are read off cumulative sums.  The library sorts the
values alone and counts with ``searchsorted`` instead; the property tests
require both to give identical rankings.
"""

import numpy as np

from falsecall.curves import _Ranking
from falsecall.errors import InputError
from falsecall.metrics import validated_inputs


def reference_ranked(scores, labels) -> _Ranking:
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
