"""The evolution knowledge graph: construction, indexing, negative sampling.

The graph keeps what embedding training reads: the evolution triples
(value-value within one attribute domain, recording an observed change
between two linked records), their tails-per-head index and the value
dictionary. Entities and attribute triples (entity-value) are only
counted, for the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, LoadError
from .ingest import LinkedPairSet, RecordSet, ValueDictionary


class AttributeTriple(NamedTuple):
    entity: int
    value: int
    attribute: int


class EvolutionTriple(NamedTuple):
    head_value: int
    tail_value: int
    attribute: int


@dataclass(frozen=True)
class EvolutionKG:
    """Immutable evolution triples plus the sizes the report shows."""

    values: ValueDictionary
    evolution: frozenset[EvolutionTriple]
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
        evolution = frozenset(evolution)
        n_values = len(values)
        for t in evolution:
            for v in (t.head_value, t.tail_value):
                if not 0 <= v < n_values:
                    raise DomainError(f"evolution triple references unknown value {v}")
                if values.attribute_of(v) != t.attribute:
                    raise DomainError(
                        f"evolution triple {t}: value {v} outside attribute "
                        f"{t.attribute} domain"
                    )
        return cls(
            values, evolution, len(frozenset(entities)), len(frozenset(attribute_triples))
        )

    @cached_property
    def evolution_index(self) -> Mapping[tuple[int, int], frozenset[int]]:
        """(attribute, head value) -> every tail value observed for it."""
        index: dict[tuple[int, int], set[int]] = {}
        for t in self.evolution:
            index.setdefault((t.attribute, t.head_value), set()).add(t.tail_value)
        return {k: frozenset(v) for k, v in index.items()}

    def observed_tails(self, attribute: int, head_value: int) -> frozenset[int]:
        """E(head): every tail value seen evolving from head under attribute."""
        return self.evolution_index.get((attribute, head_value), frozenset())

    def counts(self) -> dict[str, int]:
        return {
            "entities": self.n_entities,
            "attributes": self.values.n_attributes,
            "values": len(self.values),
            # no relational triples are loaded: no training step reads them
            "relations": 0,
            "attribute_triples": self.n_attribute_triples,
            "relational_triples": 0,
            "evolution_triples": len(self.evolution),
        }


def build_ekg(
    records_a: RecordSet,
    records_b: RecordSet,
    train_links: LinkedPairSet,
    include_identity_triples: bool = False,
    include_reverse_triples: bool = False,
) -> EvolutionKG:
    """Assemble the graph from two record sets and their training links.

    Evolution triples are directed A -> B (earlier -> later record) and
    deduplicated: one per attribute whose values on a linked pair are both
    present and differ. Identical values produce a triple only when
    ``include_identity_triples`` is set; ``include_reverse_triples`` adds
    the B -> A direction as well (the degenerate, direction-blind graph
    variant).
    """
    if records_a.dictionary is not records_b.dictionary:
        raise DomainError("record sets must share one value dictionary")
    overlap = np.intersect1d(records_a.id_array, records_b.id_array)
    if len(overlap):
        raise DomainError(f"entity ids appear in both record sets: {overlap[:5].tolist()}")

    linked = []
    for records, ids, side in (
        (records_a, [a for a, _ in train_links], "A"),
        (records_b, [b for _, b in train_links], "B"),
    ):
        try:
            linked.append(records.value_matrix[records.rows(ids)])
        except LoadError as exc:
            raise LoadError(f"link endpoint missing from record set {side}: {exc}") from None
    head, tail = linked
    keep = (head >= 0) & (tail >= 0)
    if not include_identity_triples:
        keep &= head != tail
    heads, tails = head[keep], tail[keep]
    if include_reverse_triples:
        heads, tails = np.concatenate([heads, tails]), np.concatenate([tails, heads])
    # a value id lies in one attribute's domain, so (head, tail) alone keys a triple
    n_values = len(records_a.dictionary)
    heads, tails = np.divmod(np.unique(heads * n_values + tails), n_values)
    attributes = records_a.dictionary.attribute_array()[heads]

    return EvolutionKG(
        values=records_a.dictionary,
        evolution=frozenset(
            map(EvolutionTriple._make, zip(heads.tolist(), tails.tolist(), attributes.tolist()))
        ),
        n_entities=len(records_a) + len(records_b),
        n_attribute_triples=int(
            (records_a.value_matrix >= 0).sum() + (records_b.value_matrix >= 0).sum()
        ),
    )


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

    def __init__(self, ekg: EvolutionKG, triples: Sequence[EvolutionTriple]):
        # one entry per distinct (attribute, head) key, in first-seen order
        key_of: dict[tuple[int, int], int] = {}
        rows_key = np.array(
            [key_of.setdefault((t.attribute, t.head_value), len(key_of)) for t in triples],
            dtype=np.int64,
        )
        domains = {
            attr: np.array(ekg.values.values_of(attr), dtype=np.int64)
            for attr in sorted({attr for attr, _ in key_of})
        }
        domain_start = dict(zip(domains, np.cumsum([0, *map(len, domains.values())])))
        self._domain = np.concatenate([np.zeros(0, np.int64), *domains.values()])

        key_dom, key_pool, key_base, key_seg = [], [], [], []
        skips = [np.zeros(0, np.int64)]
        base = seg = 0
        for attr, head in key_of:
            domain = domains[attr]
            observed = np.sort(
                np.fromiter(ekg.observed_tails(attr, head), dtype=np.int64)
            )
            pool = len(domain) - len(observed)
            # observed tails lie inside the domain (checked by from_triples)
            skips.append(
                np.searchsorted(domain, observed) - np.arange(len(observed)) + base
            )
            key_dom.append(domain_start[attr])
            key_pool.append(pool)
            key_base.append(base)
            key_seg.append(seg)
            seg += len(observed)
            # skips lie in [base, base + pool] and a rank plus base below base +
            # pool, so a search counts all earlier keys' skips and no later key's
            base += pool
        self._skips = np.concatenate(skips)

        def per_row(per_key: list[int]) -> np.ndarray:
            return np.array(per_key, dtype=np.int64)[rows_key]

        self.pool_sizes = per_row(key_pool)
        self._dom_start = per_row(key_dom)
        self._base = per_row(key_base)
        self._seg_start = per_row(key_seg)

    def draw(self, rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """(len(rows), k) tails for the positives at ``rows``.

        Each rank comes from one ``rng.integers`` call per column over all rows.
        A row whose pool holds at least k values gets k distinct tails: its
        i-th rank is drawn from the pool size minus i and shifted past the
        ranks it already chose. A smaller pool is drawn with replacement.
        With k == 1 this is exactly ``pool[rng.integers(0, pool_size)]``.
        Every row must have a non-empty pool.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        sizes = self.pool_sizes[rows]
        distinct = sizes >= k
        ranks = np.empty((len(rows), k), dtype=np.int64)
        for i in range(k):
            r = rng.integers(0, np.where(distinct, sizes - i, sizes))
            # chosen ranks in ascending order: each one at or below r moves r up
            for c in np.sort(ranks[:, :i], axis=1).T:
                r += distinct & (r >= c)
            ranks[:, i] = r
        rows = np.repeat(rows, k)
        ranks = ranks.ravel()
        seen = np.searchsorted(self._skips, ranks + self._base[rows], side="right")
        position = ranks + seen - self._seg_start[rows]
        return self._domain[self._dom_start[rows] + position].reshape(-1, k)


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
    return [
        EvolutionTriple(triple.head_value, tail, triple.attribute)
        for tail in tails.tolist()
    ]
