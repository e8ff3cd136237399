"""Lookups that only the tests need, kept here as oracles: an attribute's
value domain, the tails observed from a head value, and g summed in plain
Python."""

import numpy as np


def values_of(dictionary, attribute: int) -> tuple[int, ...]:
    """The domain of one attribute of a ``ValueDictionary``, in ascending id order."""
    return tuple(vid for vid, attr, _ in dictionary.entries() if attr == attribute)


def observed_tails(kg, attribute: int, head_value: int) -> frozenset[int]:
    """E(head): every tail value seen evolving from head under attribute, from
    the graph's columns, which are sorted by head."""
    lo, hi = np.searchsorted(kg.heads, [head_value, head_value + 1])
    return frozenset(kg.tails[lo:hi][kg.attributes[lo:hi] == attribute].tolist())


def left_to_right_scores(features, w) -> np.ndarray:
    """Each row's g as a Python loop over Python floats (IEEE doubles):
    0.0 + f[0] * w[0] + f[1] * w[1] + ..., left to right. No BLAS kernel
    is involved, so the bits are the same on every host."""
    weights = [float(x) for x in w]
    scores = []
    for row in np.asarray(features, dtype=float).tolist():
        g = 0.0
        for f, x in zip(row, weights):
            g += f * x
        scores.append(g)
    return np.array(scores, dtype=float)
