"""The evolution knowledge graph: construction, indexing, negative sampling.

The graph keeps what embedding training reads: the evolution triples
(value-value within one attribute domain, recording an observed change
between two linked records) as id columns, and the value dictionary.
Entities and attribute triples (entity-value) are only counted, for the
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .idfiles import LinkedPairSet, sorted_distinct
from .ingest import RecordSet, ValueDictionary


class AttributeTriple(NamedTuple):
    entity: int
    value: int
    attribute: int


class EvolutionTriple(NamedTuple):
    head_value: int
    tail_value: int
    attribute: int


@dataclass(frozen=True, eq=False)
class EvolutionKG:
    """Distinct evolution triples as int64 columns sorted by (head, tail), which
    alone key a triple, plus the sizes the report shows."""

    values: ValueDictionary
    heads: np.ndarray
    tails: np.ndarray
    attributes: np.ndarray
    n_entities: int = 0
    n_attribute_triples: int = 0

    @classmethod
    def from_triples(
        cls,
        entities: Iterable[int],
        values: ValueDictionary,
        attribute_triples: Iterable[AttributeTriple],
        evolution: Iterable[EvolutionTriple],
    ) -> "EvolutionKG":
        """A graph over given triples; entities and attribute triples are only counted.

        Every evolution triple must join two values of its own attribute's
        domain, which ``NegativeSampler`` relies on.
        """
        try:
            columns = np.array(tuple(evolution), dtype=np.int64).reshape(-1, 3)
        except OverflowError:  # no value id lies beyond int64
            raise DomainError("evolution triple references unknown value beyond int64") from None
        ends, attributes = columns[:, :2], columns[:, 2]  # each triple's head, then tail
        owner = values.attribute_array()
        known = (ends >= 0) & (ends < len(owner))
        bad = ~known | (owner[np.where(known, ends, 0)] != attributes[:, None])
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), 2)
            t, v = EvolutionTriple(*columns[i].tolist()), ends[i, j]
            raise DomainError(
                f"evolution triple {t}: value {v} outside attribute {t.attribute} domain"
                if known[i, j] else f"evolution triple references unknown value {v}"
            )
        return _graph(values, *ends.T, len(frozenset(entities)), len(frozenset(attribute_triples)))

    @cached_property
    def evolution(self) -> frozenset[EvolutionTriple]:
        """The triples as a set, made on first use."""
        columns = self.heads.tolist(), self.tails.tolist(), self.attributes.tolist()
        return frozenset(map(EvolutionTriple._make, zip(*columns)))

    def counts(self) -> dict[str, int]:
        return {
            "entities": self.n_entities,
            "attributes": self.values.n_attributes,
            "values": len(self.values),
            # no relational triples are loaded: no training step reads them
            "relations": 0,
            "attribute_triples": self.n_attribute_triples,
            "relational_triples": 0,
            "evolution_triples": len(self.heads),
        }


def _graph(values, heads, tails, n_entities, n_attribute_triples) -> EvolutionKG:
    """The graph of the distinct (head, tail) pairs among these value ids."""
    owner = values.attribute_array()
    heads, tails = np.divmod(sorted_distinct(heads * len(owner) + tails), len(owner))
    return EvolutionKG(values, heads, tails, owner[heads], n_entities, n_attribute_triples)


def build_ekg(
    records_a: RecordSet, records_b: RecordSet, train_links: LinkedPairSet, er: bool = False
) -> EvolutionKG:
    """Assemble the graph from two record sets and their training links.

    Evolution triples are directed A -> B (earlier -> later record) and
    deduplicated: one per attribute whose values on a linked pair are both
    present and differ. ``er`` builds the degenerate, direction-blind graph
    variant instead: identical values give a triple too, and every triple
    also comes in the B -> A direction.
    """
    if records_a.dictionary is not records_b.dictionary:
        raise DomainError("record sets must share one value dictionary")
    # each set's ids are distinct (RecordSet refuses a repeat)
    overlap = np.intersect1d(records_a.id_array, records_b.id_array, assume_unique=True)
    if len(overlap):
        raise DomainError(f"entity ids appear in both record sets: {overlap[:5].tolist()}")

    a_rows, b_rows = train_links.rows(records_a, records_b)
    head, tail = records_a.value_matrix[a_rows], records_b.value_matrix[b_rows]
    keep = (head >= 0) & (tail >= 0)
    if not er:
        keep &= head != tail
    heads, tails = head[keep], tail[keep]
    if er:
        heads, tails = np.concatenate([heads, tails]), np.concatenate([tails, heads])
    n_cells = int((records_a.value_matrix >= 0).sum() + (records_b.value_matrix >= 0).sum())
    return _graph(records_a.dictionary, heads, tails, len(records_a) + len(records_b), n_cells)


class NegativeSampler:
    """Corrupted tails for a fixed list of positive evolution triples.

    A positive's pool is its attribute's domain, in ascending id order, minus
    every tail observed for its (attribute, head). No pool is stored: a draw
    takes a rank r in [0, pool size) and maps it to the r-th unobserved
    domain value. For each key, ``skips`` holds the domain position of each
    observed tail minus its own index (the number of unobserved values before
    it), offset so that all keys form one ascending array. The r-th
    unobserved value then sits at domain position r plus the count of the
    key's skips <= r, which one ``searchsorted`` finds for a whole batch.
    Memory is O(domains + observed tails), whatever the number of heads.
    """

    def __init__(self, ekg: EvolutionKG, triples: Sequence[EvolutionTriple] | None = None):
        """Sample for ``triples``, or by default for the graph's own, in its order."""
        heads, _, attributes = (
            (ekg.heads, ekg.tails, ekg.attributes) if triples is None
            else np.array(triples, dtype=np.int64).reshape(-1, 3).T
        )
        owner = ekg.values.attribute_array()
        n = len(owner)
        # every domain in ascending id order, one after another in attribute order
        self._domain = np.argsort(owner, kind="stable")
        size = np.bincount(owner, minlength=ekg.values.n_attributes)
        start = np.cumsum(size) - size
        position = np.argsort(self._domain) - start[owner]  # of each value within its domain

        # the graph's tails by (attribute, head) key, ascending within a key (stable
        # sort); they lie inside the key's domain (checked by from_triples)
        graph_keys = ekg.attributes * n + ekg.heads
        by_key = np.argsort(graph_keys, kind="stable")
        graph_keys, graph_tails = graph_keys[by_key], ekg.tails[by_key]
        keys, rows_key = np.unique(attributes * n + heads, return_inverse=True)
        key_attr = keys // n
        first = np.searchsorted(graph_keys, keys, side="left")
        n_observed = np.searchsorted(graph_keys, keys, side="right") - first
        pool = size[key_attr] - n_observed
        seg = np.cumsum(n_observed) - n_observed  # observed tails of earlier keys
        # skips lie in [base, base + pool] and a rank plus base below base +
        # pool, so a search counts all earlier keys' skips and no later key's
        base = np.cumsum(pool) - pool
        index = np.arange(n_observed.sum()) - np.repeat(seg, n_observed)  # within its key
        observed = graph_tails[np.repeat(first, n_observed) + index]
        self._skips = position[observed] - index + np.repeat(base, n_observed)

        self.pool_sizes = pool[rows_key]
        self._base = base[rows_key]
        # a row's r-th unobserved value is _domain[_shift + r + every skip <= r + _base]
        self._shift = (start[key_attr] - seg)[rows_key]

    def draw(
        self, rows: np.ndarray, k: int, rng: np.random.Generator, batch: int | None = None
    ) -> np.ndarray:
        """(len(rows), k) tails for the positives at ``rows``.

        A row whose pool holds at least k values gets k distinct tails: its
        i-th rank is drawn from the pool size minus i and shifted past the
        ranks it already chose. A smaller pool is drawn with replacement.
        With k == 1 this is exactly ``pool[rng.integers(0, pool_size)]``.
        Every row must have a non-empty pool.

        All ranks come from one ``rng.integers`` call. No bound depends on an
        earlier draw, so the bounds are laid out in the order that calling
        ``draw`` on each run of ``batch`` rows (default: all of them), one call
        per column, would consume the stream: batch by batch, column by column
        within a batch. The result equals those per-batch calls, stacked.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        n = len(rows)
        batch = batch or max(n, 1)
        sizes = self.pool_sizes[rows]
        distinct = sizes >= k
        bounds = np.where(distinct[:, None], sizes[:, None] - np.arange(k), sizes[:, None])
        ranks = np.empty(n * k, dtype=np.int64)
        # the (row, column) cell each draw fills, in stream order
        full = n - n % batch
        order = np.concatenate([
            np.arange(full * k).reshape(-1, batch, k).transpose(0, 2, 1).ravel(),
            np.arange(full * k, n * k).reshape(-1, k).T.ravel(),
        ])
        ranks[order] = rng.integers(0, bounds.ravel()[order])
        ranks = ranks.reshape(n, k)
        for i in range(1, k):
            r = ranks[:, i]
            # chosen ranks in ascending order: each one at or below r moves r up
            for c in np.sort(ranks[:, :i], axis=1).T:
                r += distinct & (r >= c)
        rows = np.repeat(rows, k)
        ranks = ranks.ravel()
        seen = np.searchsorted(self._skips, ranks + self._base[rows], side="right")
        return self._domain[self._shift[rows] + ranks + seen].reshape(-1, k)


def sample_negatives(
    ekg: EvolutionKG,
    triple: EvolutionTriple,
    k: int,
    rng: np.random.Generator,
) -> list[EvolutionTriple] | None:
    """Draw k corrupted tails for one positive evolution triple.

    Candidates are the attribute's domain minus every tail observed for this
    head, so a sampled triple can never be a real evolution triple. Draws are
    uniform without replacement (with replacement once k exceeds the pool),
    through the same ``NegativeSampler`` that embedding training uses.
    Returns None when the pool is empty: the caller drops this positive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sampler = NegativeSampler(ekg, [triple])
    if not sampler.pool_sizes[0]:
        return None
    tails = sampler.draw(np.zeros(1, dtype=np.int64), k, rng)[0]
    return [triple._replace(tail_value=tail) for tail in tails.tolist()]
