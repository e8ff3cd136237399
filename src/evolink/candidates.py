"""Candidate pairs as columns, their truth labels, and decision metrics.

Blocking, labelling, feature extraction and scoring all work on
``Candidates``: parallel arrays of A-side rows, B-side rows and, once known,
labels, scores and probabilities. ``CandidatePair`` is the row type users
see; a ``Candidates`` iterates as a sequence of them, and any sequence of
them converts to a ``Candidates`` once, on entry to a public function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import ConfigError
from .idfiles import LinkedPairSet, id_ranks

if TYPE_CHECKING:
    from .ingest import RecordSet


@dataclass(frozen=True)
class CandidatePair:
    a_entity: int
    b_entity: int
    label: bool | None = None
    probability: float | None = None

    def __post_init__(self):
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class Candidates(Sequence):
    """Pair ``i`` is row ``a[i]`` of ``records_a`` against row ``b[i]`` of ``records_b``.

    ``label`` (bool), ``score`` (the match score g, NaN where the records
    share no present attribute) and ``probability`` are None until a stage
    sets them, and otherwise have one entry per pair.
    """

    records_a: RecordSet = field(repr=False)
    records_b: RecordSet = field(repr=False)
    a: np.ndarray
    b: np.ndarray
    label: np.ndarray | None = None
    score: np.ndarray | None = None
    probability: np.ndarray | None = None

    @classmethod
    def of(cls, pairs, records_a: RecordSet, records_b: RecordSet) -> "Candidates":
        """Candidates over these record sets from Candidates, CandidatePairs
        or (a_id, b_id) tuples; unknown entity ids raise LoadError."""
        if (
            isinstance(pairs, Candidates)
            and pairs.records_a is records_a
            and pairs.records_b is records_b
        ):
            return pairs
        pairs = [p if isinstance(p, CandidatePair) else CandidatePair(*p) for p in pairs]
        labels = [p.label for p in pairs]
        unlabelled = labels.count(None)
        if unlabelled not in (0, len(labels)):
            raise ConfigError("pairs mix labelled and unlabelled candidates")
        return cls(
            records_a,
            records_b,
            records_a.rows([p.a_entity for p in pairs]),
            records_b.rows([p.b_entity for p in pairs]),
            None if unlabelled else np.array(labels, dtype=bool),
        )

    @property
    def a_ids(self) -> np.ndarray:
        return self.records_a.id_array[self.a]

    @property
    def b_ids(self) -> np.ndarray:
        return self.records_b.id_array[self.b]

    def take(self, index) -> "Candidates":
        """The pairs picked by a slice, boolean mask or integer index array."""

        def pick(column):
            return None if column is None else column[index]

        return replace(
            self,
            a=self.a[index],
            b=self.b[index],
            label=pick(self.label),
            score=pick(self.score),
            probability=pick(self.probability),
        )

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, i: int) -> CandidatePair:
        label = None if self.label is None else bool(self.label[i])
        prob = None if self.probability is None else float(self.probability[i])
        return CandidatePair(
            int(self.records_a.id_array[self.a[i]]),
            int(self.records_b.id_array[self.b[i]]),
            label,
            prob,
        )

    def __iter__(self) -> Iterator[CandidatePair]:
        n = len(self)
        labels = [None] * n if self.label is None else self.label.tolist()
        probs = [None] * n if self.probability is None else self.probability.tolist()
        return map(
            CandidatePair, self.a_ids.tolist(), self.b_ids.tolist(), labels, probs
        )


# Pairs labelled or scored at a time; bounds those layers' working memory.
PAIR_CHUNK = 1 << 16


def pair_slices(n_pairs: int) -> list[slice]:
    """Consecutive slices of at most PAIR_CHUNK pairs covering ``n_pairs``."""
    return [slice(start, start + PAIR_CHUNK) for start in range(0, n_pairs, PAIR_CHUNK)]


def _key_labels(rows_a, rows_b, n_b: int, link_a, link_b, n_links: int) -> tuple[np.ndarray, int]:
    """Which pairs (rows_a[i], rows_b[i]) are among the distinct links
    (link_a[j], link_b[j]), and how many of ``n_links`` links no pair covers.
    B-side coordinates are below ``n_b``. ``n_links`` also counts links that
    have no coordinates, which no pair can cover."""
    link_keys = np.sort(link_a * n_b + link_b)
    labels = np.empty(len(rows_a), dtype=bool)
    covered = np.zeros(len(link_keys), dtype=bool)
    for part in pair_slices(len(rows_a)):
        keys = rows_a[part].astype(np.int64, copy=False) * n_b + rows_b[part]
        slot, hit = id_ranks(keys, link_keys)
        labels[part] = hit
        covered[slot[hit]] = True
    return labels, n_links - int(np.count_nonzero(covered))


def truth_labels(a_ids, b_ids, truth: LinkedPairSet) -> tuple[np.ndarray, int]:
    """Which (a_ids[i], b_ids[i]) pairs are true links, and how many true
    links none of the pairs covers."""
    # rank ids among the truth's own ids; an id the truth lacks ranks past them all
    known_a, link_a = np.unique(truth.a_ids, return_inverse=True)
    known_b, link_b = np.unique(truth.b_ids, return_inverse=True)
    rank_a, in_a = id_ranks(a_ids, known_a)
    rank_b, in_b = id_ranks(b_ids, known_b)
    rank_a[~in_a] = len(known_a)
    rank_b[~in_b] = len(known_b)
    return _key_labels(rank_a, rank_b, len(known_b) + 1, link_a, link_b, len(truth))


def candidate_labels(cands: Candidates, truth: LinkedPairSet) -> tuple[np.ndarray, int]:
    """``truth_labels`` of the candidates, keyed on record rows: the links'
    ids are looked up once, and the pairs' ids never."""
    link_a, in_a = cands.records_a.find(truth.a_ids)
    link_b, in_b = cands.records_b.find(truth.b_ids)
    inside = in_a & in_b  # a link with an end outside these records is never covered
    return _key_labels(
        cands.a, cands.b, len(cands.records_b), link_a[inside], link_b[inside], len(truth)
    )


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f_score: float
    tp: int
    fp: int
    tn: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        total = tp + fp + tn + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        accuracy = (tp + tn) / total if total else 0.0
        return cls(accuracy, precision, recall, f, tp, fp, tn, fn)

    @classmethod
    def from_decisions(
        cls, predicted: np.ndarray, actual: np.ndarray, extra_false_negatives: int = 0
    ) -> "Metrics":
        """Confusion counts of boolean decisions against boolean truth.

        ``extra_false_negatives`` charges true links that have no decision at
        all (for example, links blocking removed from the candidates).
        """
        tp = int(np.count_nonzero(predicted & actual))
        fp = int(np.count_nonzero(predicted)) - tp
        fn = int(np.count_nonzero(actual)) - tp
        tn = len(predicted) - tp - fp - fn
        return cls.from_counts(tp, fp, tn, fn + extra_false_negatives)

    def row(self) -> str:
        return (
            f"accuracy={self.accuracy:.4f} precision={self.precision:.4f} "
            f"recall={self.recall:.4f} f_score={self.f_score:.4f} "
            f"tp={self.tp} fp={self.fp} tn={self.tn} fn={self.fn}"
        )
