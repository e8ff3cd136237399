"""The evolution knowledge graph: construction, indexing, negative sampling.

Nodes are entities and attribute values; edges are relational triples
(entity-entity), attribute triples (entity-value), and evolution triples
(value-value within one attribute domain, recording an observed change
between two linked records).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, LoadError
from .ingest import LinkedPairSet, RecordSet, TextFormat, ValueDictionary


class RelationalTriple(NamedTuple):
    head: int
    tail: int
    relation: int


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
    """Immutable triple stores plus the tails-per-head evolution index."""

    entities: frozenset[int]
    values: ValueDictionary
    relation_names: tuple[str, ...]
    relational: frozenset[RelationalTriple]
    attribute_triples: frozenset[AttributeTriple]
    evolution: frozenset[EvolutionTriple]
    evolution_index: Mapping[tuple[int, int], frozenset[int]] = field(repr=False)

    @classmethod
    def from_triples(
        cls,
        entities: Iterable[int],
        values: ValueDictionary,
        attribute_triples: Iterable[AttributeTriple],
        evolution: Iterable[EvolutionTriple],
        relational: Iterable[RelationalTriple] = (),
        relation_names: Iterable[str] = (),
    ) -> "EvolutionKG":
        entities = frozenset(entities)
        attribute_triples = frozenset(attribute_triples)
        evolution = frozenset(evolution)
        relational = frozenset(relational)
        relation_names = tuple(relation_names)

        n_values = len(values)
        seen: set[tuple[int, int]] = set()
        for t in attribute_triples:
            if t.entity not in entities:
                raise DomainError(f"attribute triple references unknown entity {t.entity}")
            if not 0 <= t.value < n_values:
                raise DomainError(f"attribute triple references unknown value {t.value}")
            if values.attribute_of(t.value) != t.attribute:
                raise DomainError(
                    f"attribute triple ({t.entity},{t.value},{t.attribute}): value "
                    f"belongs to attribute {values.attribute_of(t.value)}"
                )
            key = (t.entity, t.attribute)
            if key in seen:
                raise DomainError(
                    f"entity {t.entity} has two attribute triples for attribute {t.attribute}"
                )
            seen.add(key)
        for t in evolution:
            for v in (t.head_value, t.tail_value):
                if not 0 <= v < n_values:
                    raise DomainError(f"evolution triple references unknown value {v}")
                if values.attribute_of(v) != t.attribute:
                    raise DomainError(
                        f"evolution triple {t}: value {v} outside attribute "
                        f"{t.attribute} domain"
                    )
        for t in relational:
            if t.head == t.tail:
                raise DomainError(f"relational triple with head == tail ({t.head})")
            if t.head not in entities or t.tail not in entities:
                raise DomainError(f"relational triple references unknown entity: {t}")
            if not 0 <= t.relation < len(relation_names):
                raise DomainError(f"relational triple uses unregistered relation {t.relation}")

        index: dict[tuple[int, int], set[int]] = {}
        for t in evolution:
            index.setdefault((t.attribute, t.head_value), set()).add(t.tail_value)
        frozen_index = {k: frozenset(v) for k, v in index.items()}

        return cls(
            entities=entities,
            values=values,
            relation_names=relation_names,
            relational=relational,
            attribute_triples=attribute_triples,
            evolution=evolution,
            evolution_index=frozen_index,
        )

    def observed_tails(self, attribute: int, head_value: int) -> frozenset[int]:
        """E(head): every tail value seen evolving from head under attribute."""
        return self.evolution_index.get((attribute, head_value), frozenset())

    def counts(self) -> dict[str, int]:
        return {
            "entities": len(self.entities),
            "attributes": self.values.n_attributes,
            "values": len(self.values),
            "relations": len(self.relation_names),
            "attribute_triples": len(self.attribute_triples),
            "relational_triples": len(self.relational),
            "evolution_triples": len(self.evolution),
        }


def build_ekg(
    records_a: RecordSet,
    records_b: RecordSet,
    train_links: LinkedPairSet,
    include_identity_triples: bool = False,
    include_reverse_triples: bool = False,
    relational: Iterable[RelationalTriple] = (),
    relation_names: Iterable[str] = (),
) -> EvolutionKG:
    """Assemble the graph from two record sets and their training links.

    Evolution triples are directed A -> B (earlier -> later record) and
    deduplicated. Identical values on a linked pair produce a triple only
    when ``include_identity_triples`` is set; ``include_reverse_triples``
    adds the B -> A direction as well (the degenerate, direction-blind
    graph variant).
    """
    if records_a.dictionary is not records_b.dictionary:
        raise DomainError("record sets must share one value dictionary")
    overlap = records_a.entity_ids() & records_b.entity_ids()
    if overlap:
        raise DomainError(f"entity ids appear in both record sets: {sorted(overlap)[:5]}")

    entities = records_a.entity_ids() | records_b.entity_ids()

    attribute_triples = [
        AttributeTriple(rec.entity_id, vid, attr)
        for records in (records_a, records_b)
        for rec in records
        for attr, vid in sorted(rec.values.items())
    ]

    evolution: set[EvolutionTriple] = set()
    for a_id, b_id in train_links:
        if a_id not in records_a:
            raise LoadError(f"link endpoint {a_id} missing from record set A")
        if b_id not in records_b:
            raise LoadError(f"link endpoint {b_id} missing from record set B")
        head, tail = records_a.get(a_id), records_b.get(b_id)
        for attr, v_h in head.values.items():
            v_t = tail.values.get(attr)
            if v_t is None:
                continue
            if v_h == v_t:
                if include_identity_triples:
                    evolution.add(EvolutionTriple(v_h, v_t, attr))
                continue
            evolution.add(EvolutionTriple(v_h, v_t, attr))
            if include_reverse_triples:
                evolution.add(EvolutionTriple(v_t, v_h, attr))

    return EvolutionKG.from_triples(
        entities=entities,
        values=records_a.dictionary,
        attribute_triples=attribute_triples,
        evolution=evolution,
        relational=relational,
        relation_names=relation_names,
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


def load_relations(
    path: str | Path,
    known_entities: Iterable[int],
    fmt: TextFormat = TextFormat(),
) -> tuple[tuple[RelationalTriple, ...], tuple[str, ...]]:
    """Read optional (head_entity, tail_entity, relation_name) rows."""
    known = frozenset(known_entities)
    names: list[str] = []
    by_name: dict[str, int] = {}
    triples: list[RelationalTriple] = []
    with open(path, newline="", encoding=fmt.encoding) as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter=fmt.delimiter), start=1):
            if len(row) != 3:
                raise LoadError(f"{path}: line {lineno}: expected 3 columns")
            try:
                head, tail = int(row[0]), int(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise LoadError(f"{path}: line {lineno}: bad entity id") from None
            if head not in known or tail not in known:
                raise LoadError(f"{path}: line {lineno}: unknown entity id")
            name = row[2].strip()
            if name not in by_name:
                by_name[name] = len(names)
                names.append(name)
            triples.append(RelationalTriple(head, tail, by_name[name]))
    return tuple(triples), tuple(names)


def export_text(ekg: EvolutionKG) -> str:
    """Dump the five stores, one element per line, for debugging."""
    lines = [f"entity\t{e}" for e in sorted(ekg.entities)]
    lines += [
        f"value\t{vid}\t{attr}\t{text}" for vid, attr, text in ekg.values.entries()
    ]
    lines += [
        f"rt\t{t.head}\t{t.tail}\t{ekg.relation_names[t.relation]}"
        for t in sorted(ekg.relational)
    ]
    lines += [
        f"at\t{t.entity}\t{t.value}\t{t.attribute}"
        for t in sorted(ekg.attribute_triples)
    ]
    lines += [
        f"et\t{t.head_value}\t{t.tail_value}\t{t.attribute}"
        for t in sorted(ekg.evolution)
    ]
    return "\n".join(lines) + "\n"
