"""Second training step: per-attribute weights, match scores, probabilities.

A candidate pair is scored by summing, over the attributes present on both
records, weight * mismatch-indicator * evolution-plausibility. The sigmoid
of that sum is the match probability. Weights start at all ones (the
uniform-weight baseline) and move only where it lowers the hinge loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .candidates import Candidates, Metrics
from .embed import EmbeddingStore, GradientCheckResult, _distances, ea_score
from .errors import ConfigError, TrainingError, UndefinedPairError
from .idfiles import dense_table, id_ranks, sorted_distinct
from .ingest import Record, RecordSet

_P_FLOOR = 1e-15  # keeps probabilities strictly inside (0, 1)
# Distinct (v, u) value pairs whose distances feature_matrix computes at once:
# a block's (rows x dim) residuals, 400 kB at dim 50, stay in cache.
DISTANCE_BLOCK = 1024


@dataclass(frozen=True)
class WeightVector:
    """One real weight per schema attribute."""

    weights: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise TrainingError("non-finite weights")

    @classmethod
    def ones(cls, n_attributes: int) -> "WeightVector":
        return cls(np.ones(n_attributes))

    def as_dict(self, attribute_names: Sequence[str]) -> dict[str, float]:
        return {name: float(w) for name, w in zip(attribute_names, self.weights)}


def check_margin(margin: float, name: str = "margin") -> None:
    """Refuse a hinge margin outside (0, 1), NaN included, naming ``name``."""
    if not 0.0 < margin < 1.0:
        raise ConfigError(f"{name}: must be in (0, 1), got {margin!r}")


# Each loss mode's hinge max(0, offset + sign * P) on a positive and on a
# negative pair, as margin -> (offset, sign); an active hinge's slope in P is
# sign. Every reader of the loss mode takes its rule from here.
HINGES = {
    # push P up on true pairs, down on false pairs
    "corrected": (lambda m: (m, -1.0), lambda m: (-(1.0 - m), 1.0)),
    # the paper's literal reading: penalizes high P on true pairs
    "as_written": (lambda m: (m, 1.0), lambda m: (m, -1.0)),
}


def check_loss_sign(loss_sign: str) -> None:
    """Refuse a loss mode that ``HINGES`` does not name."""
    if loss_sign not in HINGES:
        raise ConfigError(f"loss_sign: unknown mode {loss_sign!r}")


@dataclass(frozen=True)
class RLHyperparams:
    margin: float = 0.3  # hinge margin on the probability scale
    learning_rate: float = 0.5
    epochs: int = 200
    loss_sign: str = "corrected"  # a key of HINGES
    negative_ratio: float | None = 10.0  # negatives per positive each epoch
    nonnegative: bool = False
    # None: unset; an experiment derives it from its own seed, a bare call uses 0
    seed: int | None = None

    def __post_init__(self):
        check_margin(self.margin)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate: must be finite and > 0")
        if self.epochs < 0:
            raise ConfigError("epochs: must be >= 0")
        check_loss_sign(self.loss_sign)
        if self.negative_ratio is not None and not (
            math.isfinite(self.negative_ratio) and self.negative_ratio > 0
        ):
            raise ConfigError("negative_ratio: must be finite and > 0, or None")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed: must be >= 0")


def hinge(hp: RLHyperparams, positive: bool) -> tuple[float, float]:
    """(offset, sign) of ``hp``'s hinge on a positive or a negative pair."""
    return HINGES[hp.loss_sign][0 if positive else 1](hp.margin)


def _logistic(g):
    """1 / (1 + exp(-g)), elementwise and unclipped. Below g of about -709,
    exp(-g) overflows to inf and the result to 0; that limit is the intended
    one, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-g))


def sigmoid(g):
    """The logistic function clipped to [1e-15, 1 - 1e-15], elementwise.

    Takes a float or an array and returns the same kind.
    """
    prob = np.clip(_logistic(np.asarray(g, dtype=float)), _P_FLOOR, 1.0 - _P_FLOOR)
    return float(prob) if prob.ndim == 0 else prob


def pair_terms(
    head: Record, tail: Record, store: EmbeddingStore, p: int = 2
) -> np.ndarray | None:
    """Per-attribute mismatch * plausibility terms for one record pair.

    Equal values and attributes missing on either side contribute zero.
    Returns None when the records share no present attribute at all.
    Test oracle for ``feature_matrix``, which computes the same floats for
    many pairs at once.
    """
    terms = np.zeros(store.attribute_vectors.shape[0])
    shared = False
    for attr, v in head.values.items():
        u = tail.values.get(attr)
        if u is None:
            continue
        shared = True
        if v != u:
            terms[attr] = ea_score(v, u, attr, store, p)
    return terms if shared else None


def g_score(
    head: Record, tail: Record, store: EmbeddingStore, w: WeightVector, p: int = 2
) -> float:
    """Weighted sum of mismatch terms over the shared present attributes.

    Test oracle for the scores of ``pipeline.score_pairs``.
    """
    terms = pair_terms(head, tail, store, p)
    if terms is None:
        raise UndefinedPairError(
            f"records {head.entity_id} and {tail.entity_id} share no present attribute"
        )
    return float(np.dot(w.weights, terms))


def link_probability(
    head: Record, tail: Record, store: EmbeddingStore, w: WeightVector, p: int = 2
) -> float:
    """Sigmoid of the match score; 0.5 for identical records.

    Test oracle for the probabilities of ``pipeline.score_pairs``.
    """
    return sigmoid(g_score(head, tail, store, w, p))


class _ValuePairTable:
    """One attribute's value ranks on each side, and, when dense, the term of
    every (v, u) pair of ranks: v * width + u of ``terms``."""

    def __init__(self, column_a: np.ndarray, column_b: np.ndarray, limit: int,
                 unknown_term: float, n_pairs: int):
        # rank each value among those present on either side (a missing
        # value's -1 counts in the bincount's dropped slot 0), so the d values
        # below ``limit`` (those with a trained vector) rank first; a missing
        # value ranks past them all
        both = np.concatenate((column_a, column_b))
        self.values = np.flatnonzero(np.bincount(both + 1)[1:])
        ranks, present = id_ranks(both, self.values)
        self.d = int(np.searchsorted(self.values, limit))
        self.missing = len(self.values)  # the rank of a missing value
        ranks[~present] = self.missing
        self.width = self.missing + 1
        # record row -> its part of a pair's key: keys_a[a] + keys_b[b]
        self.keys_a = ranks[: len(column_a)] * self.width
        self.keys_b = ranks[len(column_a) :]
        self.unknown_term = unknown_term
        self.heads = None  # each known value's vector plus the attribute's, once needed
        self.terms = None
        if dense_table(self.width * self.width, n_pairs):
            # NaN marks a known mismatch whose distance is not computed yet
            terms = np.full((self.width, self.width), unknown_term)
            terms[: self.d, : self.d] = np.nan
            np.fill_diagonal(terms, 0.0)
            terms[self.missing, :] = terms[:, self.missing] = 0.0
            self.terms = terms.reshape(-1)


class ValuePairTerms:
    """``pair_terms`` for the pairs of one ``Candidates``: ``features`` gives
    one row of terms per pair of any chunk of them, and each distinct (v, u)
    value pair's distance is computed once, however many pairs or calls
    share it.

    Each attribute keys its values on their ranks among its values present on
    either side (missing ranks last), so a pair of values is one integer,
    v * width + u. While the width² slots are at most
    ``idfiles.TABLE_SLOTS_PER_KEY`` per candidate pair, the attribute keeps a
    table of the term of every such key, filled as pairs first need them;
    otherwise it sorts each call's mismatching pairs with ``np.unique``. A value is trained if it has a row
    in the store's ``value_vectors``. Distances come from a copy of the
    attribute's trained value vectors plus its attribute vector, made once
    per table. Every table, once built, lasts as long as this object, so
    consecutive chunks of the candidates share it; so do both record sets'
    presence bits, packed once, from which ``defined`` answers.
    """

    def __init__(self, cands: Candidates, store: EmbeddingStore, p: int = 2):
        self.records_a, self.records_b = cands.records_a, cands.records_b
        self.store, self.p, self.n_pairs = store, p, len(cands)
        self._tables: dict[int, _ValuePairTable] = {}
        # one bit per attribute, so a pair gathers a byte per 8 attributes, not a bool each
        self._present_a = np.packbits(self.records_a.value_matrix >= 0, axis=1)
        self._present_b = np.packbits(self.records_b.value_matrix >= 0, axis=1)

    def defined(self, cands: Candidates) -> np.ndarray:
        """Per pair of ``cands`` (some of the candidates this object serves),
        whether some attribute is present on both records: ``feature_matrix``'s
        ``defined``."""
        return (self._present_a[cands.a] & self._present_b[cands.b]).any(axis=1)

    def _table(self, attr: int) -> _ValuePairTable:
        table = self._tables.get(attr)
        if table is None:
            # an untrained value's mismatch: the worst the unit-ball geometry allows
            value_bound = math.sqrt(self.store.dim) if self.p == 1 else 1.0
            attr_norm = float(_distances(self.store.attribute_vectors[attr][None, :], self.p)[0])
            table = _ValuePairTable(
                self.records_a.value_matrix[:, attr],
                self.records_b.value_matrix[:, attr],
                self.store.value_vectors.shape[0],
                -(2.0 * value_bound + attr_norm),
                self.n_pairs,
            )
            self._tables[attr] = table
        return table

    def features(self, cands: Candidates) -> tuple[np.ndarray, np.ndarray]:
        """(features, defined) of ``feature_matrix`` for these candidates."""
        features = np.zeros((len(cands), self.records_a.value_matrix.shape[1]))
        for attr in range(features.shape[1]):
            table = self._table(attr)
            keys = table.keys_a[cands.a] + table.keys_b[cands.b]
            if table.terms is not None:
                features[:, attr] = self._looked_up(attr, table, keys)
            else:
                self._sorted(attr, table, keys, features[:, attr])
        return features, self.defined(cands)

    def _looked_up(self, attr: int, table: _ValuePairTable, keys: np.ndarray) -> np.ndarray:
        """The terms of pairs of ranks ``keys`` from the table, after
        computing the distances it lacks."""
        terms = table.terms[keys]
        fresh = np.isnan(terms)
        if fresh.any():
            keys = keys[fresh]
            if dense_table(len(table.terms), len(keys)):
                flags = np.zeros(len(table.terms), dtype=bool)
                flags[keys] = True
                pairs = np.flatnonzero(flags)
            else:
                pairs = sorted_distinct(keys)
            table.terms[pairs] = -self._distances(attr, table, pairs)
            terms[fresh] = table.terms[keys]
        return terms

    def _sorted(
        self, attr: int, table: _ValuePairTable, keys: np.ndarray, column: np.ndarray
    ) -> None:
        """Write the terms of pairs of ranks ``keys`` into ``column``,
        computing the distance of each distinct known mismatch once."""
        v, u = np.divmod(keys, table.width)
        rows = np.flatnonzero((v != u) & (v != table.missing) & (u != table.missing))
        known = (v[rows] < table.d) & (u[rows] < table.d)
        pairs, inverse = np.unique(keys[rows[known]], return_inverse=True)
        column[rows[known]] = -self._distances(attr, table, pairs)[inverse]
        column[rows[~known]] = table.unknown_term

    def _distances(self, attr: int, table: _ValuePairTable, pairs: np.ndarray) -> np.ndarray:
        """Distances of the known rank pairs ``pairs`` (keys), by
        ``embed._distances`` DISTANCE_BLOCK rows at a time (a distance is
        rowwise, so the bits do not depend on the block)."""
        if table.heads is None:
            known = table.values[: table.d]
            table.heads = self.store.value_vectors[known] + self.store.attribute_vectors[attr]
        heads, tails = np.divmod(pairs, table.width)
        tails = table.values[tails]
        distances = np.empty(len(pairs))
        for start in range(0, len(pairs), DISTANCE_BLOCK):
            block = slice(start, start + DISTANCE_BLOCK)
            residual = table.heads[heads[block]] - self.store.value_vectors[tails[block]]
            distances[block] = _distances(residual, self.p)
        return distances


def feature_matrix(
    pairs: Sequence,
    records_a: RecordSet,
    records_b: RecordSet,
    store: EmbeddingStore,
    p: int = 2,
    *,
    terms: ValuePairTerms | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """pair_terms over many pairs (Candidates, CandidatePairs or id tuples).

    Returns (features, defined) where features is (n_pairs, n_attributes)
    and defined marks pairs with at least one shared present attribute.
    Value ids past the rows of ``store.value_vectors`` have no trained
    vector; their mismatches get the worst score the unit-ball geometry
    allows. ``terms``, a ``ValuePairTerms`` over candidates these pairs are
    some of, with the same store and ``p``, carries the distances already
    computed by earlier calls; without it each call builds its own.
    """
    cands = Candidates.of(pairs, records_a, records_b)
    if terms is None:
        terms = ValuePairTerms(cands, store, p)
    return terms.features(cands)


def _epoch_loss_and_gradient(
    features_pos: np.ndarray,
    features_neg: np.ndarray,
    w: np.ndarray,
    hp: RLHyperparams,
) -> tuple[float, np.ndarray]:
    grad = np.zeros_like(w)
    losses = []
    for features, positive in ((features_pos, True), (features_neg, False)):
        offset, sign = hinge(hp, positive)
        # unclipped, unlike sigmoid(): the trained weights depend on these exact floats
        prob = _logistic(features @ w)
        loss = np.maximum(0.0, offset + sign * prob)
        act = loss > 0
        if act.any():
            grad += sign * ((prob * (1 - prob))[act, None] * features[act]).sum(axis=0)
        losses.append(loss.sum())
    return float(losses[0] + losses[1]), grad


def _inert_negatives(hp: RLHyperparams) -> bool:
    """Whether no negative's hinge can bind while P <= 0.5, as it is while
    every weight is >= 0: a rising hinge with offset + 0.5 <= 0 stays 0."""
    offset, sign = hinge(hp, positive=False)
    return sign > 0 and offset + 0.5 <= 0


def train_weights(
    t_plus: Sequence,
    t_minus: Sequence,
    records_a: RecordSet,
    records_b: RecordSet,
    store: EmbeddingStore,
    hp: RLHyperparams,
    p: int = 2,
) -> tuple[WeightVector, list[float]]:
    """Learn attribute weights over labeled candidate pairs; embeddings frozen.

    ``t_plus`` and ``t_minus`` are Candidates (row arrays) or sequences of
    CandidatePair.

    Starts from all-ones weights, so training can only move away from the
    uniform-weight solution when that lowers the loss. Gradient steps use the
    mean loss over the epoch's pairs: every scorable positive and, with
    ``negative_ratio`` set, at most that many scorable negatives per positive.
    Deterministic given the seed.

    A pair's hinge is max(0, offset + sign * P), with (offset, sign) from
    ``HINGES`` for margin m:

        mode        positive    negative
        corrected   (m, -1)     (-(1 - m), +1)
        as_written  (m, +1)     (m, -1)

    Every feature is <= 0 (minus a distance, or 0). So while every weight is
    >= 0, each pair has g <= 0 and P <= 0.5, and when the negatives' row has
    sign +1 and offset + 0.5 <= 0 every negative's hinge is exactly 0
    (``_inert_negatives``); in the table that is corrected with m <= 0.5, as
    -(1 - m) + 0.5 <= 0 holds exactly then.
    An epoch in that state skips the negatives' draw, gather and
    products, which would add exactly 0 to the loss and the gradient; only
    their count enters the mean, taken from value presence. Negative
    features are built the first time an epoch needs them, which under the
    default settings is never. An epoch that needs them draws its subset
    from its own generator, ``default_rng([seed, epoch])``, so skipped
    epochs do not shift the draws of later ones.
    """
    if not len(t_plus) or not len(t_minus):
        raise TrainingError("both positive and negative pair sets must be non-empty")

    feats_pos, defined_pos = feature_matrix(t_plus, records_a, records_b, store, p)
    feats_pos = feats_pos[defined_pos]
    neg = Candidates.of(t_minus, records_a, records_b)
    neg_terms = ValuePairTerms(neg, store, p)
    scorable_neg = neg_terms.defined(neg)
    n_neg = int(np.count_nonzero(scorable_neg))
    if not len(feats_pos) or not n_neg:
        raise TrainingError("no scorable pairs (no shared present attributes)")

    seed = hp.seed or 0
    w = np.ones(store.attribute_vectors.shape[0])
    history: list[float] = []
    n_draw = n_neg
    if hp.negative_ratio is not None:
        n_draw = min(n_draw, int(round(hp.negative_ratio * len(feats_pos))))
    n_used = len(feats_pos) + n_draw
    skippable = _inert_negatives(hp)
    no_negatives = np.zeros((0, len(w)))
    feats_neg = None

    for epoch in range(hp.epochs):
        if skippable and (w >= 0).all():
            epoch_neg = no_negatives
        else:
            if feats_neg is None:
                scorable = neg.take(scorable_neg)
                feats_neg, _ = feature_matrix(
                    scorable, records_a, records_b, store, p, terms=neg_terms
                )
            if n_draw < n_neg:
                rng = np.random.default_rng([seed, epoch])
                idx = rng.choice(n_neg, size=n_draw, replace=False)
                epoch_neg = feats_neg[np.sort(idx)]
            else:
                epoch_neg = feats_neg
        total, grad = _epoch_loss_and_gradient(feats_pos, epoch_neg, w, hp)
        mean_loss = total / n_used
        if not math.isfinite(mean_loss):
            raise TrainingError(
                "non-finite weight loss; the learning rate is likely too high"
            )
        history.append(mean_loss)
        w -= hp.learning_rate * grad / n_used
        if hp.nonnegative:
            np.maximum(w, 0.0, out=w)

    return WeightVector(w), history


def pair_loss(terms: np.ndarray, positive: bool, w: np.ndarray, hp: RLHyperparams) -> float:
    """Hinge loss of one scored pair under the configured sign mode."""
    offset, sign = hinge(hp, positive)
    return max(0.0, offset + sign * sigmoid(float(np.dot(w, terms))))


def weight_gradient_check(
    terms: np.ndarray,
    positive: bool,
    w: np.ndarray,
    hp: RLHyperparams,
    epsilon: float = 1e-5,
) -> GradientCheckResult:
    """Compare the analytic weight subgradient with central differences."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError("epsilon: must be in [1e-7, 1e-3]")
    prob = sigmoid(float(np.dot(w, terms)))
    slack = 10.0 * epsilon * max(1.0, float(np.abs(terms).max(initial=0.0)))
    offset, sign = hinge(hp, positive)
    boundary = offset + sign * prob
    if abs(boundary) <= slack:
        return GradientCheckResult(0.0, 0, len(w))

    grad = sign * prob * (1.0 - prob) * terms if boundary > 0 else np.zeros_like(terms)

    max_err = 0.0
    checked = 0
    for i in range(len(w)):
        saved = w[i]
        w[i] = saved + epsilon
        up = pair_loss(terms, positive, w, hp)
        w[i] = saved - epsilon
        down = pair_loss(terms, positive, w, hp)
        w[i] = saved
        numeric = (up - down) / (2.0 * epsilon)
        if max(abs(grad[i]), abs(numeric)) < 1e-9:
            err = 0.0
        else:
            err = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric))
        max_err = max(max_err, err)
        checked += 1
    return GradientCheckResult(max_err, checked, 0)


def check_threshold(tau: float | None, name: str = "tau") -> None:
    """Refuse a threshold outside (0, 1), NaN included, naming ``name``; None (unset) passes."""
    if tau is not None and not 0.0 < tau < 1.0:
        raise ConfigError(f"{name}: must be in (0, 1), got {tau!r}")


def classify(probability, tau: float):
    """Match decision: probability at or above the threshold (elementwise on arrays)."""
    check_threshold(tau)
    return probability >= tau


THRESHOLD_GRID = tuple(round(i / 100, 2) for i in range(1, 100))


def select_threshold(
    probabilities: Sequence[float], labels: Sequence[bool]
) -> tuple[float, float]:
    """Pick the F-score-maximizing threshold on a validation split.

    Sweeps 99 evenly spaced thresholds; ties break toward the larger
    threshold (favoring precision). Returns (threshold, best F-score).
    Labels with no true pair leave F at 0 for every threshold, so they are
    refused.
    """
    probs = np.asarray(probabilities, dtype=float)
    truth = np.asarray(labels, dtype=bool)
    if not truth.any():
        raise TrainingError("no true pair among the labels; no threshold is defined")
    best_tau, best_f = THRESHOLD_GRID[0], -1.0
    for tau in THRESHOLD_GRID:
        f = Metrics.from_decisions(probs >= tau, truth).f_score
        if f >= best_f:
            best_tau, best_f = tau, f
    return best_tau, best_f
