"""Lookups that only the tests need, kept here as oracles: an attribute's
value domain, and the tails observed from a head value."""

import numpy as np


def values_of(dictionary, attribute: int) -> tuple[int, ...]:
    """The domain of one attribute of a ``ValueDictionary``, in ascending id order."""
    return tuple(vid for vid, attr, _ in dictionary.entries() if attr == attribute)


def observed_tails(kg, attribute: int, head_value: int) -> frozenset[int]:
    """E(head): every tail value seen evolving from head under attribute, from
    the graph's columns, which are sorted by head."""
    lo, hi = np.searchsorted(kg.heads, [head_value, head_value + 1])
    return frozenset(kg.tails[lo:hi][kg.attributes[lo:hi] == attribute].tolist())
