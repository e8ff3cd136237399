"""Second training step: one weight per attribute, and the decision threshold.

A candidate pair's match score sums, over the attributes present on both
records, weight * mismatch-indicator * evolution-plausibility, and its
probability is the sigmoid of that sum (``scoring``). Weights start at all
ones (the uniform-weight baseline) and move only where it lowers the hinge
loss. The per-pair functions here are the reference the array paths are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .candidates import (  # noqa: F401  (classify is re-exported)
    Candidates,
    Metrics,
    classify,
)
from .embed import EmbeddingStore, GradientCheckResult, ea_score
from .errors import ConfigError, TrainingError, UndefinedPairError
from .ingest import Record, RecordSet
from .scoring import ValuePairTerms, _logistic, feature_matrix, match_scores, sigmoid


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
    """Weighted sum of mismatch terms over the shared present attributes:
    ``scoring.match_scores`` on this pair's one row.

    Test oracle for the scores of ``scoring.score_pairs``.
    """
    terms = pair_terms(head, tail, store, p)
    if terms is None:
        raise UndefinedPairError(
            f"records {head.entity_id} and {tail.entity_id} share no present attribute"
        )
    return float(match_scores(terms[None, :], w.weights)[0])


def link_probability(
    head: Record, tail: Record, store: EmbeddingStore, w: WeightVector, p: int = 2
) -> float:
    """Sigmoid of ``g_score``; 0.5 for identical records. Unlike g, its last
    bit may still depend on the host, through numpy's SIMD ``exp``.

    Test oracle for the probabilities of ``scoring.score_pairs``.
    """
    return sigmoid(g_score(head, tail, store, w, p))


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
        prob = _logistic(match_scores(features, w))
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


def _scorable(chunk: Candidates, positive: bool) -> np.ndarray:
    """Which pairs of a chunk are scorable: ``defined`` (some attribute
    present on both records) and, for negatives, not labelled True."""
    defined = chunk.defined()
    return defined if positive or chunk.label is None else defined & ~chunk.label


def _scorable_features(
    cands: Candidates, n_rows: int, positive: bool, store: EmbeddingStore, p: int
) -> np.ndarray:
    """The features of the ``n_rows`` scorable pairs of ``cands``, in order,
    laid a chunk at a time into one matrix, through value-pair tables made
    for ``cands``."""
    terms = ValuePairTerms(cands, store, p)
    feats = np.empty((n_rows, store.attribute_vectors.shape[0]))
    filled = 0
    for chunk in cands.chunks():
        chunk = chunk.take(_scorable(chunk, positive))
        # by this module's feature_matrix, which a trace times and counts rows of
        features, _ = feature_matrix(
            chunk, cands.records_a, cands.records_b, store, p, terms=terms
        )
        feats[filled : filled + len(chunk)] = features
        filled += len(chunk)
    return feats


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
    CandidatePair. A pair of ``t_minus`` labelled True is a match, never a
    negative, so a labelled split may stand whole as ``t_minus``; the
    negatives keep their order in it.

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
    their count enters the mean, taken from value presence a chunk of pairs
    at a time. Each kind of pair's features are built a chunk at a time,
    through value-pair tables made for that kind alone: the positives' at
    once, the negatives' the first time an epoch needs them, which under the
    default settings is never. An epoch that needs them draws its subset
    from its own generator, ``default_rng([seed, epoch])``, so skipped
    epochs do not shift the draws of later ones.
    """
    pos = Candidates.of(t_plus, records_a, records_b)
    neg = Candidates.of(t_minus, records_a, records_b)
    n_pos, n_neg = (
        sum(int(np.count_nonzero(_scorable(chunk, positive))) for chunk in cands.chunks())
        for cands, positive in ((pos, True), (neg, False))
    )
    if not n_pos or not n_neg:
        raise TrainingError("no scorable pairs (no shared present attributes)")
    feats_pos = _scorable_features(pos, n_pos, True, store, p)

    seed = hp.seed or 0
    w = np.ones(store.attribute_vectors.shape[0])
    history: list[float] = []
    n_draw = n_neg
    if hp.negative_ratio is not None:
        n_draw = min(n_draw, int(round(hp.negative_ratio * n_pos)))
    n_used = n_pos + n_draw
    skippable = _inert_negatives(hp)
    no_negatives = np.zeros((0, len(w)))
    feats_neg = None

    for epoch in range(hp.epochs):
        if skippable and (w >= 0).all():
            epoch_neg = no_negatives
        else:
            if feats_neg is None:
                feats_neg = _scorable_features(neg, n_neg, False, store, p)
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
    return max(0.0, offset + sign * sigmoid(float(match_scores(terms[None, :], w)[0])))


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
    prob = sigmoid(float(match_scores(terms[None, :], w)[0]))
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


THRESHOLD_GRID = tuple(round(i / 100, 2) for i in range(1, 100))
_GRID = np.array(THRESHOLD_GRID)


def threshold_counts(chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Confusion counts of (probabilities, labels) chunks at every τ of
    ``THRESHOLD_GRID``, added up a chunk at a time: entry [label, k] counts
    the pairs with that label whose P is at or above exactly k of the τs, so
    ``classify(P, τ)`` holds for the k smallest. A NaN P is at or above none."""
    width = len(_GRID) + 1
    counts = np.zeros(2 * width, dtype=np.int64)
    for probabilities, labels in chunks:
        probs = np.asarray(probabilities, dtype=float)
        reached = np.searchsorted(_GRID, probs, side="right")
        reached[np.isnan(probs)] = 0
        reached[np.asarray(labels, dtype=bool)] += width
        counts += np.bincount(reached, minlength=2 * width)
    return counts.reshape(2, width)


def threshold_from_counts(counts: np.ndarray) -> tuple[float, float]:
    """``select_threshold`` from ``threshold_counts``: the τ of the grid with
    the best F-score, ties broken toward the larger τ. Counts are exact, so
    the F-scores are those of ``Metrics.from_decisions`` bit for bit."""
    # at_least[label, k]: the pairs of that label that reach k or more τs
    at_least = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1].tolist()
    negatives, positives = at_least[0][0], at_least[1][0]
    if not positives:
        raise TrainingError("no true pair among the labels; no threshold is defined")
    best_tau, best_f = THRESHOLD_GRID[0], -1.0
    for k, tau in enumerate(THRESHOLD_GRID, start=1):
        tp, fp = at_least[1][k], at_least[0][k]
        f = Metrics.from_counts(tp, fp, negatives - fp, positives - tp).f_score
        if f >= best_f:
            best_tau, best_f = tau, f
    return best_tau, best_f


def select_threshold(
    probabilities: Sequence[float] | Iterable[tuple[np.ndarray, np.ndarray]],
    labels: Sequence[bool] | None = None,
) -> tuple[float, float]:
    """Pick the F-score-maximizing threshold on a validation split: its
    probabilities and labels, or, with ``labels`` left out, an iterable of
    (probabilities, labels) chunks of it, so that no column of the whole
    split need be made.

    Sweeps 99 evenly spaced thresholds over the confusion counts of
    ``threshold_counts``; ties break toward the larger threshold (favoring
    precision). Returns (threshold, best F-score).
    Labels with no true pair leave F at 0 for every threshold, so they are
    refused.
    """
    chunks = probabilities if labels is None else [(probabilities, labels)]
    return threshold_from_counts(threshold_counts(chunks))
