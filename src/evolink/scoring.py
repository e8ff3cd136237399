"""Match scores g and probabilities P of candidate pairs, from a trained model.

A pair's g sums, over the attributes present on both records, weight *
mismatch-indicator * evolution-plausibility, and P is the sigmoid of g.
``ValuePairTerms`` gives the terms from per-attribute value-rank tables, and
``scored_chunks``, through which training and ``predict`` both score, turns
them into g (by ``match_scores``, g's one sum) and P a chunk of pairs at a
time. The baseline scorers are here too.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .candidates import CandidatePair, Candidates, pair_slices
from .embed import EmbeddingStore, _distances
from .idfiles import dense_table, id_ranks, sorted_distinct

if TYPE_CHECKING:
    from .ingest import RecordSet
    from .weights import WeightVector

_P_FLOOR = 1e-15  # keeps probabilities strictly inside (0, 1)
# Distinct (v, u) value pairs whose distances feature_matrix computes at once:
# a block's (rows x dim) residuals, 400 kB at dim 50, stay in cache.
DISTANCE_BLOCK = 1024
# Rows whose g match_scores sums at once: their strided columns stay in cache.
MATCH_BLOCK = 1 << 13


def _logistic(g):
    """1 / (1 + exp(-g)), elementwise and unclipped. Below g of about -709,
    exp(-g) overflows to inf and the result to 0; that limit is the intended
    one, so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-g))


def match_scores(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each row's g, +0.0 + f[:, 0] * w[0] + f[:, 1] * w[1] + ..., in column
    order: exactly rounded elementwise products and sums, so the same bits at
    any SIMD width and under any BLAS kernel, and +0.0 for a row of zeros."""
    scores = np.zeros(len(features))
    for start in range(0, len(features), MATCH_BLOCK):
        block, out = features[start : start + MATCH_BLOCK], scores[start : start + MATCH_BLOCK]
        for attr, weight in enumerate(w):
            out += block[:, attr] * weight
    return scores


def sigmoid(g):
    """The logistic function clipped to [1e-15, 1 - 1e-15], elementwise.

    Takes a float or an array and returns the same kind.
    """
    prob = np.clip(_logistic(np.asarray(g, dtype=float)), _P_FLOOR, 1.0 - _P_FLOOR)
    return float(prob) if prob.ndim == 0 else prob


def _fixed_terms(table: _ValuePairTable, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The term of each pair of ranks (v, u), broadcast together, as far as
    the values decide it: 0 when they are equal or one is missing, the
    table's ``unknown_term`` when they differ and one has no trained vector,
    and NaN when two trained values differ: that term is minus their
    distance. ``weights.pair_terms``'s rule, stated once."""
    terms = np.where((v < table.d) & (u < table.d), np.nan, table.unknown_term)
    terms[(v == u) | (v == table.missing) | (u == table.missing)] = 0.0
    return terms


class _ValuePairTable:
    """One attribute's value ranks on each side, and, when dense, the term of
    every (v, u) pair of ranks: v * width + u of ``terms``. A dense table is
    ``_fixed_terms`` over all its slots, built with it; its NaN slots, the
    mismatches of trained values, are filled as pairs first need them."""

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
            # v down the rows, u across: no width² array of keys is made
            rank = np.arange(self.width)
            self.terms = _fixed_terms(self, rank[:, None], rank[None, :]).reshape(-1)


class ValuePairTerms:
    """``pair_terms`` for the pairs of one ``Candidates``: ``features`` gives
    one row of terms per pair of any chunk of them. Each distinct (v, u)
    value pair's distance is computed once per call; where the attribute
    keeps a table, once however many pairs or calls share it.

    Each attribute keys its values on their ranks among its values present on
    either side (missing ranks last), so a pair of values is one integer,
    v * width + u; ``_fixed_terms``, the rule's one home, gives a key's term,
    or NaN where a distance is due. While the width² slots are at most
    ``idfiles.TABLE_SLOTS_PER_KEY`` per candidate pair, the attribute keeps a
    table of every key's term, filled when it is built except for the
    mismatches of trained values, whose distances are computed as pairs first
    need them; otherwise it takes each call's distinct keys (``np.unique``).
    A value is trained if it has a row in the store's ``value_vectors``.
    Distances come from a copy of the attribute's trained value vectors plus
    its attribute vector, made once per table. Tables, and both record sets'
    presence bits (packed once, for ``defined``), last as long as this
    object, so consecutive chunks of the candidates share them.
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
                pairs, inverse = np.unique(keys, return_inverse=True)
                terms = _fixed_terms(table, *np.divmod(pairs, table.width))
                fresh = np.isnan(terms)
                terms[fresh] = -self._distances(attr, table, pairs[fresh])
                features[:, attr] = terms[inverse]
        return features, self.defined(cands)

    def _looked_up(self, attr: int, table: _ValuePairTable, keys: np.ndarray) -> np.ndarray:
        """The terms of pairs of ranks ``keys`` from the table, after
        computing the distances it lacks."""
        terms = table.terms[keys]
        fresh = np.isnan(terms)
        if fresh.any():
            keys = keys[fresh]
            pairs = sorted_distinct(keys)
            table.terms[pairs] = -self._distances(attr, table, pairs)
            terms[fresh] = table.terms[keys]
        return terms

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


def score_pairs(
    pairs: Sequence[CandidatePair],
    records_a: RecordSet,
    records_b: RecordSet,
    store: EmbeddingStore,
    w: WeightVector,
    p: int = 2,
) -> Candidates:
    """Attach match scores and probabilities: those of ``scored_chunks``,
    collected into two columns, so the working memory beyond them does not
    grow with the number of pairs."""
    cands = Candidates.of(pairs, records_a, records_b)
    score, probability = np.empty(len(cands)), np.empty(len(cands))
    for part, scored in zip(pair_slices(len(cands)), scored_chunks(cands, store, w, p)):
        score[part], probability[part] = scored.score, scored.probability
    return replace(cands, score=score, probability=probability)


def scored_chunks(
    cands: Candidates, store: EmbeddingStore, w: WeightVector, p: int = 2
) -> Iterator[Candidates]:
    """The candidates with scores and probabilities, ``PAIR_CHUNK`` pairs at a time,
    in order; a pair with no shared attribute gets score NaN and probability 0.0.
    The chunks share one ``ValuePairTerms``: a distance is computed once per call."""
    terms = ValuePairTerms(cands, store, p)
    for part in pair_slices(len(cands)):
        yield _scored_chunk(cands.take(part), terms, w)


def _scored_chunk(
    chunk: Candidates, terms: ValuePairTerms, w: WeightVector
) -> Candidates:
    """One chunk with its scores: g by ``match_scores``, so each equals
    ``weights.g_score``'s bit for bit on any host. A function of its own, so
    that the chunk's features are freed before ``scored_chunks`` yields it,
    not kept while the caller writes it."""
    features, defined = feature_matrix(
        chunk, chunk.records_a, chunk.records_b, terms.store, terms.p, terms=terms
    )
    scores = match_scores(features, w.weights)
    scores[~defined] = np.nan
    probs = sigmoid(scores)
    probs[~defined] = 0.0
    return replace(chunk, score=scores, probability=probs)


def exact_match_probabilities(
    pairs: Sequence[CandidatePair],
    records_a: RecordSet,
    records_b: RecordSet,
    attributes: Sequence[int],
) -> Candidates:
    """Baseline scorer: probability 1.0 iff every listed attribute is present
    and equal on both sides, else 0.0."""
    cands = Candidates.of(pairs, records_a, records_b)
    columns = list(attributes)
    a_vals = records_a.value_matrix[cands.a][:, columns]
    b_vals = records_b.value_matrix[cands.b][:, columns]
    hit = ((a_vals >= 0) & (a_vals == b_vals)).all(axis=1)
    return replace(cands, probability=hit.astype(float))


def all_negative_probabilities(pairs: Sequence[CandidatePair]) -> Sequence[CandidatePair]:
    """Baseline that never links anything."""
    if isinstance(pairs, Candidates):
        return replace(pairs, probability=np.zeros(len(pairs)))
    return [replace(p, probability=0.0) for p in pairs]
