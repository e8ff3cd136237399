"""First training step: translation-style embeddings over evolution triples.

Every attribute value and every attribute gets a dense vector. A directed
value change (v, u, a) is scored by how well u sits at v + the attribute's
translation vector; training pushes real changes closer than corrupted ones
by a margin, using plain stochastic subgradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ekg import EvolutionKG, EvolutionTriple, NegativeSampler
from .errors import ConfigError, DomainError, TrainingError
from .ingest import ValueDictionary


@dataclass
class EmbeddingStore:
    """Dense vectors for values and attributes, indexed by their ids."""

    value_vectors: np.ndarray  # (n_values, dim)
    attribute_vectors: np.ndarray  # (n_attributes, dim)
    dim: int

    def __post_init__(self):
        if self.value_vectors.shape[1] != self.dim:
            raise ConfigError("value_vectors dimension does not match dim")
        if self.attribute_vectors.shape[1] != self.dim:
            raise ConfigError("attribute_vectors dimension does not match dim")
        if not (
            np.all(np.isfinite(self.value_vectors))
            and np.all(np.isfinite(self.attribute_vectors))
        ):
            raise TrainingError("non-finite embedding entries")


@dataclass(frozen=True)
class EmbedHyperparams:
    dim: int = 50
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 500
    batch_size: int = 128
    negatives: int = 1
    norm: int = 2
    # None: unset; an experiment derives it from its own seed, a bare call uses 0
    seed: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim: must be >= 1")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ConfigError("margin: must be finite and > 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate: must be finite and > 0")
        if self.epochs < 0:
            raise ConfigError("epochs: must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size: must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives: must be >= 1")
        if self.norm not in (1, 2):
            raise ConfigError("norm: must be 1 or 2")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed: must be >= 0")


def init_embeddings(ekg: EvolutionKG, hp: EmbedHyperparams) -> EmbeddingStore:
    """Uniform init in [-6/sqrt(d), 6/sqrt(d)]; value vectors unit-normalized."""
    rng = np.random.default_rng(hp.seed or 0)
    bound = 6.0 / math.sqrt(hp.dim)
    value_vectors = rng.uniform(-bound, bound, size=(len(ekg.values), hp.dim))
    value_vectors /= np.maximum(_distances(value_vectors, 2), 1e-12)[:, None]
    attribute_vectors = rng.uniform(
        -bound, bound, size=(ekg.values.n_attributes, hp.dim)
    )
    return EmbeddingStore(value_vectors, attribute_vectors, hp.dim)


def _distances(residual: np.ndarray, p: int) -> np.ndarray:
    """The p-norm (p = 1 or 2) of each row: every norm and distance evolink
    computes is this function's."""
    if p == 1:
        return np.abs(residual).sum(axis=1)
    return np.sqrt((residual * residual).sum(axis=1))


def _unit_gradients(residual: np.ndarray, distance: np.ndarray, p: int) -> np.ndarray:
    """d distance / d residual, rowwise; zero where non-differentiable."""
    if p == 1:
        return np.sign(residual)
    safe = np.maximum(distance, 1e-12)[:, None]
    grad = residual / safe
    grad[distance < 1e-12] = 0.0
    return grad


def ea_score(
    v: int,
    u: int,
    a: int,
    store: EmbeddingStore,
    p: int = 2,
    dictionary: ValueDictionary | None = None,
) -> float:
    """Plausibility of attribute a's value evolving from v to u.

    Returns minus the p-norm of (vector(v) + vector(a) - vector(u)); zero is
    the maximum. When a dictionary is supplied, v and u are checked against
    attribute a's domain.
    """
    if dictionary is not None:
        for value in (v, u):
            if dictionary.attribute_of(value) != a:
                raise DomainError(
                    f"value {value} is outside attribute {a}'s domain"
                )
    residual = store.value_vectors[v] + store.attribute_vectors[a] - store.value_vectors[u]
    return -float(_distances(residual[None, :], p)[0])


def scatter_rows(index: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows that share an index: (distinct indices, one summed row each).

    Equal, bit for bit, to ``np.add.at`` into zeros at the distinct indices:
    ``np.bincount`` adds its weights one by one in input order, as ``add.at``
    does. (``np.add.reduceat`` sums pairwise and is not exact.) The distinct
    indices come from a ``bincount`` of the indices too, not from a sort.
    A sum starts at +0.0 and so is never -0.0: rows of ±0.0, wherever they
    sit, change no bit of any other index's sum, and a caller may leave
    them out.
    """
    rank = np.bincount(index)
    distinct = np.flatnonzero(rank)
    rank[distinct] = np.arange(len(distinct))  # each distinct index's place among them
    dim = rows.shape[1]
    cells = (rank[index].reshape(-1, 1) * dim + np.arange(dim)).ravel()
    summed = np.bincount(cells, weights=rows.ravel(), minlength=len(distinct) * dim)
    return distinct, summed.reshape(len(distinct), dim)


def _hinge_gradients(
    store: EmbeddingStore,
    h: np.ndarray,
    t: np.ndarray,
    a: np.ndarray,
    negs: np.ndarray,
    margin: float,
    p: int,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """The margin loss's subgradient over one batch: positives (h, t, a),
    each with k corrupted tails ``negs``, k per positive, row by row.

    Returns each hinge's margin + d_pos - d_neg, k per positive, and, when
    some hinge is active, (moved values, their summed gradient rows, moved
    attributes, theirs) from the active hinges alone; else None. Training
    steps along it, and ``gradient_check`` checks it.
    """
    values, attributes = store.value_vectors, store.attribute_vectors
    k, dim = len(negs) // len(h), store.dim
    # each positive once, broadcast against its k negatives
    base = values[h] + attributes[a]
    r_pos = base - values[t]
    r_neg = (base[:, None, :] - values[negs].reshape(-1, k, dim)).reshape(-1, dim)
    d_pos = _distances(r_pos, p)
    d_neg = _distances(r_neg, p)
    violation = ((margin + d_pos)[:, None] - d_neg.reshape(-1, k)).ravel()
    active = np.flatnonzero(violation > 0.0)
    if not len(active):
        return violation, None

    pos = active // k  # the positive of each active hinge
    g_pos = _unit_gradients(r_pos[pos], d_pos[pos], p)
    g_neg = _unit_gradients(r_neg[active], d_neg[active], p)
    diff = g_pos - g_neg

    moved, value_grad = scatter_rows(
        np.concatenate([h[pos], t[pos], negs[active]]),
        np.concatenate([diff, -g_pos, g_neg]),
    )
    return violation, (moved, value_grad, *scatter_rows(a[pos], diff))


def train_embeddings(
    ekg: EvolutionKG, hp: EmbedHyperparams
) -> tuple[EmbeddingStore, list[float]]:
    """Minimize the margin loss over positive and corrupted evolution triples.

    Each positive triple is paired per epoch with freshly sampled corrupted
    tails drawn from its attribute domain minus the tails already observed
    for its head; one ``NegativeSampler.draw`` per epoch gives the same
    tails as one draw per batch. Updates are batched subgradient steps. A
    batch's gradient comes from its active hinges alone (an inactive one
    adds only zeros); after a step with any active hinge, every value the
    batch touched (head, tail or negative, moved or not) is projected back
    into the unit ball, except that a value whose norm was last found to be
    at most 1, and which has not changed since, is known to be inside.
    Positives whose candidate pool is empty are dropped. Fully
    deterministic given the seed.
    """
    if not len(ekg.heads):
        raise TrainingError("no evolution triples to train on")

    sampler = NegativeSampler(ekg)
    kept_rows = np.flatnonzero(sampler.pool_sizes)
    if not len(kept_rows):
        raise TrainingError("every evolution triple has an empty negative pool")

    heads, tails, attrs = ekg.heads[kept_rows], ekg.tails[kept_rows], ekg.attributes[kept_rows]

    store = init_embeddings(ekg, hp)
    values = store.value_vectors
    attributes = store.attribute_vectors

    rng = np.random.default_rng([hp.seed or 0, 1])
    n, k = len(kept_rows), hp.negatives
    history: list[float] = []
    # values whose norm may exceed 1: init normalises them all, to 1 within an ulp
    unsettled = np.ones(len(values), dtype=bool)

    # non-finite intermediates are caught by the per-epoch loss check
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            perm = rng.permutation(n)
            epoch_negs = sampler.draw(kept_rows[perm], k, rng, hp.batch_size)
            epoch_heads, epoch_tails, epoch_attrs = heads[perm], tails[perm], attrs[perm]
            total = 0.0
            for start in range(0, n, hp.batch_size):
                stop = start + hp.batch_size
                h, t, a = epoch_heads[start:stop], epoch_tails[start:stop], epoch_attrs[start:stop]
                negs = epoch_negs[start:stop].ravel()  # k per positive, row by row

                violation, step = _hinge_gradients(store, h, t, a, negs, hp.margin, hp.norm)
                total += float(np.maximum(violation, 0.0).sum())
                if step is None:
                    continue
                moved, value_grad, moved_attrs, attr_grad = step
                values[moved] -= hp.learning_rate * value_grad
                attributes[moved_attrs] -= hp.learning_rate * attr_grad

                # project every touched value into the unit ball; one whose norm
                # was last found <= 1, and that has not changed since, stays put
                unsettled[moved] = True
                touched = np.concatenate([h, t, negs])
                check = touched[unsettled[touched]]
                rows = values[check]
                norms = _distances(rows, 2)
                over = norms > 1.0
                values[check[over]] = rows[over] / norms[over, None]
                unsettled[check] = over

            mean_loss = total / (n * k)
            if not math.isfinite(mean_loss):
                raise TrainingError(
                    "non-finite embedding loss; the learning rate is likely too high"
                )
            history.append(mean_loss)

    return store, history


class GradientCheckResult(NamedTuple):
    max_relative_error: float
    checked: int
    skipped: int


def margin_loss(
    store: EmbeddingStore,
    positive: EvolutionTriple,
    negative: EvolutionTriple,
    margin: float,
    p: int = 2,
) -> float:
    """Hinge on (margin + distance(positive) - distance(negative))."""
    d_pos = -ea_score(positive.head_value, positive.tail_value, positive.attribute, store, p)
    d_neg = -ea_score(negative.head_value, negative.tail_value, negative.attribute, store, p)
    return max(0.0, margin + d_pos - d_neg)


def _check_epsilon(epsilon: float) -> None:
    """Refuse a finite-difference step outside [1e-7, 1e-3]."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ConfigError("epsilon: must be in [1e-7, 1e-3]")


def _central_differences(
    loss: Callable[[], float], cells: list[tuple], epsilon: float, floor: float
) -> tuple[float, int]:
    """The largest relative error of analytic derivatives against central
    differences of ``loss()``, and the number of cells checked.

    Each cell is (array, index, analytic derivative): the array's entry at
    index is moved by +epsilon and -epsilon, then put back. A derivative and
    its difference both below ``floor`` in size agree.
    """
    max_err = 0.0
    for array, index, analytic in cells:
        original = array[index]
        array[index] = original + epsilon
        up = loss()
        array[index] = original - epsilon
        down = loss()
        array[index] = original
        numeric = (up - down) / (2.0 * epsilon)
        scale = max(abs(analytic), abs(numeric))
        max_err = max(max_err, 0.0 if scale < floor else abs(analytic - numeric) / scale)
    return max_err, len(cells)


def gradient_check(
    store: EmbeddingStore,
    positive: EvolutionTriple,
    negative: EvolutionTriple,
    margin: float,
    p: int = 2,
    epsilon: float = 1e-5,
) -> GradientCheckResult:
    """Compare training's margin-loss subgradient (``_hinge_gradients`` on
    this one pair) with central differences of ``margin_loss``.

    The negative corrupts the positive's tail alone, as training's do; one
    with another head value or attribute is refused. Checks every coordinate
    of every distinct vector the pair touches. Coordinates where the loss is
    not differentiable (hinge boundary, a zero-norm residual under p=2, or a
    residual coordinate tie under p=1) are skipped and counted rather than
    checked.
    """
    _check_epsilon(epsilon)
    head, tail, attr = positive
    if (negative.head_value, negative.attribute) != (head, attr):
        raise ConfigError("negative: must keep the positive's head value and attribute")
    values, attributes = store.value_vectors, store.attribute_vectors
    base = values[head] + attributes[attr]
    r_pos, r_neg = base - values[tail], base - values[negative.tail_value]
    d_pos, d_neg = (float(_distances(r[None, :], p)[0]) for r in (r_pos, r_neg))
    activation = margin + d_pos - d_neg
    slack = 4.0 * epsilon

    # each distinct vector the pair touches -> its coordinates that sit at a
    # tie, under p=1, of a residual the vector enters
    tie_rule = p == 1 and activation > 0
    near_pos, near_neg = ((np.abs(r) <= slack) & tie_rule for r in (r_pos, r_neg))
    ties: dict[tuple[str, int], np.ndarray] = {}
    for key, tie in (
        (("value", head), near_pos | near_neg),
        (("value", tail), near_pos),
        (("value", negative.tail_value), near_neg),
        (("attribute", attr), near_pos | near_neg),
    ):
        ties[key] = ties.get(key, False) | tie

    total_coords = len(ties) * store.dim
    if abs(activation) <= slack or (
        p == 2 and activation > 0 and (d_pos <= slack or d_neg <= slack)
    ):
        return GradientCheckResult(0.0, 0, total_coords)

    # training's step on this one pair, laid into arrays shaped like the store's
    matrices = {"value": values, "attribute": attributes}
    grads = {kind: np.zeros_like(matrix) for kind, matrix in matrices.items()}
    batch = (np.array([i]) for i in (head, tail, attr, negative.tail_value))
    _, step = _hinge_gradients(store, *batch, margin, p)
    if step is not None:
        moved, value_grad, moved_attrs, attr_grad = step
        grads["value"][moved], grads["attribute"][moved_attrs] = value_grad, attr_grad
    cells = [
        (matrices[kind], (idx, coord), grads[kind][idx, coord])
        for (kind, idx), tie in ties.items()
        for coord in np.flatnonzero(~tie)
    ]
    max_err, checked = _central_differences(
        lambda: margin_loss(store, positive, negative, margin, p), cells, epsilon, 1e-7
    )
    return GradientCheckResult(max_err, checked, total_coords - checked)
