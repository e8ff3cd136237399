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
from .embed import EmbeddingStore, GradientCheckResult, _distances
from .errors import ConfigError, TrainingError, UndefinedPairError
from .ingest import Record, RecordSet

_P_FLOOR = 1e-15  # keeps probabilities strictly inside (0, 1)


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


@dataclass(frozen=True)
class RLHyperparams:
    margin: float = 0.3  # hinge margin on the probability scale
    learning_rate: float = 0.5
    epochs: int = 200
    loss_sign: str = "corrected"  # or "as_written"
    negative_ratio: float | None = 10.0  # negatives per positive each epoch
    nonnegative: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ConfigError("margin: must be in (0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate: must be > 0")
        if self.epochs < 0:
            raise ConfigError("epochs: must be >= 0")
        if self.loss_sign not in ("corrected", "as_written"):
            raise ConfigError(f"loss_sign: unknown mode {self.loss_sign!r}")
        if self.negative_ratio is not None and self.negative_ratio <= 0:
            raise ConfigError("negative_ratio: must be > 0 or None")


def mismatch_indicator(v: int, u: int) -> int:
    """0 when the two value ids are equal, 1 otherwise."""
    return 0 if v == u else 1


def sigmoid(g):
    """Logistic function clipped to [1e-15, 1 - 1e-15], elementwise.

    Takes a float or an array and returns the same kind. Below g of about
    -709, exp(-g) overflows to inf and P to 0 before the clip; that limit is
    the intended one, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        prob = 1.0 / (1.0 + np.exp(-np.asarray(g, dtype=float)))
    prob = np.clip(prob, _P_FLOOR, 1.0 - _P_FLOOR)
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
            residual = (
                store.value_vectors[v]
                + store.attribute_vectors[attr]
                - store.value_vectors[u]
            )
            terms[attr] = -float(_distances(residual[None, :], p)[0])
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


def feature_matrix(
    pairs: Sequence,
    records_a: RecordSet,
    records_b: RecordSet,
    store: EmbeddingStore,
    p: int = 2,
    n_known_values: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """pair_terms over many pairs (Candidates, CandidatePairs or id tuples).

    Returns (features, defined) where features is (n_pairs, n_attributes)
    and defined marks pairs with at least one shared present attribute.
    Value ids at or beyond ``n_known_values`` have no trained vector; their
    mismatches get the worst score the unit-ball geometry allows.
    """
    cands = Candidates.of(pairs, records_a, records_b)
    a_vals = records_a.value_matrix[cands.a]
    b_vals = records_b.value_matrix[cands.b]
    shared = (a_vals >= 0) & (b_vals >= 0)
    mismatch = shared & (a_vals != b_vals)
    features = np.zeros(a_vals.shape)
    limit = store.value_vectors.shape[0] if n_known_values is None else n_known_values
    value_bound = math.sqrt(store.dim) if p == 1 else 1.0

    for attr in range(a_vals.shape[1]):
        rows = np.flatnonzero(mismatch[:, attr])
        if not len(rows):
            continue
        v = a_vals[rows, attr]
        u = b_vals[rows, attr]
        known = (v < limit) & (u < limit)
        if known.any():
            # a term depends only on its (v, u) pair: compute each distinct one once
            combos, inverse = np.unique(v[known] * limit + u[known], return_inverse=True)
            heads, tails = np.divmod(combos, limit)
            residual = (
                store.value_vectors[heads]
                + store.attribute_vectors[attr]
                - store.value_vectors[tails]
            )
            features[rows[known], attr] = -_distances(residual, p)[inverse]
        if not known.all():
            attr_norm = float(
                _distances(store.attribute_vectors[attr][None, :], p)[0]
            )
            features[rows[~known], attr] = -(2.0 * value_bound + attr_norm)

    return features, shared.any(axis=1)


def _epoch_loss_and_gradient(
    features_pos: np.ndarray,
    features_neg: np.ndarray,
    w: np.ndarray,
    hp: RLHyperparams,
) -> tuple[float, np.ndarray]:
    g_pos = features_pos @ w
    g_neg = features_neg @ w
    # unclipped, unlike sigmoid(): the trained weights depend on these exact floats
    with np.errstate(over="ignore"):
        p_pos = 1.0 / (1.0 + np.exp(-g_pos))
        p_neg = 1.0 / (1.0 + np.exp(-g_neg))
    grad = np.zeros_like(w)

    if hp.loss_sign == "corrected":
        # push P up on true pairs, down on false pairs
        loss_pos = np.maximum(0.0, hp.margin - p_pos)
        act = loss_pos > 0
        if act.any():
            grad -= ((p_pos * (1 - p_pos))[act, None] * features_pos[act]).sum(axis=0)
        loss_neg = np.maximum(0.0, p_neg - (1.0 - hp.margin))
        act = loss_neg > 0
        if act.any():
            grad += ((p_neg * (1 - p_neg))[act, None] * features_neg[act]).sum(axis=0)
    else:
        # literal reading: penalizes high P on true pairs
        loss_pos = np.maximum(0.0, hp.margin + p_pos)
        act = loss_pos > 0
        if act.any():
            grad += ((p_pos * (1 - p_pos))[act, None] * features_pos[act]).sum(axis=0)
        loss_neg = np.maximum(0.0, hp.margin - p_neg)
        act = loss_neg > 0
        if act.any():
            grad -= ((p_neg * (1 - p_neg))[act, None] * features_neg[act]).sum(axis=0)

    total = float(loss_pos.sum() + loss_neg.sum())
    return total, grad


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
    uniform-weight solution when that lowers the loss. Negatives are
    re-subsampled each epoch down to ``negative_ratio`` per positive.
    Gradient steps use the mean loss over the epoch's pairs. Deterministic
    given the seed.
    """
    if not len(t_plus) or not len(t_minus):
        raise TrainingError("both positive and negative pair sets must be non-empty")

    feats_pos, defined_pos = feature_matrix(t_plus, records_a, records_b, store, p)
    feats_neg, defined_neg = feature_matrix(t_minus, records_a, records_b, store, p)
    feats_pos = feats_pos[defined_pos]
    feats_neg = feats_neg[defined_neg]
    if not len(feats_pos) or not len(feats_neg):
        raise TrainingError("no scorable pairs (no shared present attributes)")

    rng = np.random.default_rng(hp.seed)
    w = np.ones(store.attribute_vectors.shape[0])
    history: list[float] = []
    cap = None
    if hp.negative_ratio is not None:
        cap = int(round(hp.negative_ratio * len(feats_pos)))

    for _ in range(hp.epochs):
        if cap is not None and len(feats_neg) > cap:
            idx = rng.choice(len(feats_neg), size=cap, replace=False)
            epoch_neg = feats_neg[np.sort(idx)]
        else:
            epoch_neg = feats_neg
        total, grad = _epoch_loss_and_gradient(feats_pos, epoch_neg, w, hp)
        n_used = len(feats_pos) + len(epoch_neg)
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
    prob = sigmoid(float(np.dot(w, terms)))
    if hp.loss_sign == "corrected":
        if positive:
            return max(0.0, hp.margin - prob)
        return max(0.0, prob - (1.0 - hp.margin))
    if positive:
        return max(0.0, hp.margin + prob)
    return max(0.0, hp.margin - prob)


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

    if hp.loss_sign == "corrected":
        boundary = hp.margin - prob if positive else prob - (1.0 - hp.margin)
        sign = -1.0 if positive else 1.0
        active = boundary > 0
    else:
        boundary = hp.margin + prob if positive else hp.margin - prob
        sign = 1.0 if positive else -1.0
        active = boundary > 0
    if abs(boundary) <= slack:
        return GradientCheckResult(0.0, 0, len(w))

    grad = sign * prob * (1.0 - prob) * terms if active else np.zeros_like(terms)

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


def classify(probability, tau: float):
    """Match decision: probability at or above the threshold (elementwise on arrays)."""
    if not 0.0 < tau < 1.0:
        raise ConfigError("tau: must be in (0, 1)")
    return probability >= tau


THRESHOLD_GRID = tuple(round(i / 100, 2) for i in range(1, 100))


def select_threshold(
    probabilities: Sequence[float], labels: Sequence[bool]
) -> tuple[float, float]:
    """Pick the F-score-maximizing threshold on a validation split.

    Sweeps 99 evenly spaced thresholds; ties break toward the larger
    threshold (favoring precision). Returns (threshold, best F-score).
    """
    probs = np.asarray(probabilities, dtype=float)
    truth = np.asarray(labels, dtype=bool)
    best_tau, best_f = THRESHOLD_GRID[0], -1.0
    for tau in THRESHOLD_GRID:
        f = Metrics.from_decisions(probs >= tau, truth).f_score
        if f >= best_f:
            best_tau, best_f = tau, f
    return best_tau, best_f
