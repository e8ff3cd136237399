"""Loading, standardization, partitioning, and synthetic linked-data generation.

Raw tabular sources are standardized and interned into per-attribute value
domains before anything downstream sees them; every id handed out here is
stable for the lifetime of the dictionary that produced it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, LoadError, SchemaMismatchError

DEFAULT_NULL_MARKERS = ("", "illegible", "NA")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def standardize(text: str) -> str:
    """Trim, collapse internal whitespace, and case-fold. Idempotent."""
    return " ".join(text.split()).casefold()


@dataclass(frozen=True)
class Schema:
    """Ordered attribute names; attribute ids are the list positions."""

    attributes: tuple[str, ...]
    blocking_attribute: int | None = None

    def __post_init__(self):
        names = [standardize(a) for a in self.attributes]
        if len(set(names)) != len(names):
            raise ConfigError("attributes: names must be unique")
        if self.blocking_attribute is not None and not (
            0 <= self.blocking_attribute < len(self.attributes)
        ):
            raise ConfigError(
                f"blocking_attribute: id {self.blocking_attribute} out of range"
            )

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def attribute_id(self, name: str) -> int:
        """Case-insensitive name lookup."""
        wanted = standardize(name)
        for i, a in enumerate(self.attributes):
            if standardize(a) == wanted:
                return i
        raise SchemaMismatchError(f"unknown attribute {name!r}")


@dataclass(frozen=True)
class TextFormat:
    """Delimited-text descriptor for record files."""

    delimiter: str = ";"
    encoding: str = "utf-8"
    null_markers: tuple[str, ...] = DEFAULT_NULL_MARKERS
    id_column: str = "entity_id"

    @cached_property
    def standardized_nulls(self) -> frozenset[str]:
        return frozenset(standardize(m) for m in self.null_markers)


class ValueDictionary:
    """Bidirectional string/id maps with one disjoint domain per attribute.

    Value ids are globally unique and assigned sequentially, so an id alone
    determines its attribute. Interning standardizes first and is idempotent.
    """

    def __init__(self, n_attributes: int):
        self._n_attributes = n_attributes
        self._by_string: list[dict[str, int]] = [{} for _ in range(n_attributes)]
        self._entries: list[tuple[int, str]] = []  # value id -> (attribute, string)

    @property
    def n_attributes(self) -> int:
        return self._n_attributes

    def __len__(self) -> int:
        return len(self._entries)

    def intern(self, attribute: int, text: str) -> int:
        s = standardize(text)
        table = self._by_string[attribute]
        vid = table.get(s)
        if vid is None:
            vid = len(self._entries)
            table[s] = vid
            self._entries.append((attribute, s))
        return vid

    def lookup(self, attribute: int, text: str) -> int | None:
        return self._by_string[attribute].get(standardize(text))

    def value_string(self, value_id: int) -> str:
        return self._entries[value_id][1]

    def attribute_of(self, value_id: int) -> int:
        return self._entries[value_id][0]

    def attribute_array(self) -> np.ndarray:
        """The attribute of every value id, indexed by value id."""
        return np.fromiter(
            (attr for attr, _ in self._entries), dtype=np.int64, count=len(self._entries)
        )

    def values_of(self, attribute: int) -> tuple[int, ...]:
        """The domain of one attribute, in ascending id order."""
        return tuple(sorted(self._by_string[attribute].values()))

    def entries(self) -> Iterator[tuple[int, int, str]]:
        """Yield (value_id, attribute, string) in id order."""
        for vid, (attr, s) in enumerate(self._entries):
            yield vid, attr, s


@dataclass(frozen=True)
class Record:
    """One entity with a partial attribute -> value map (both sides are ids)."""

    entity_id: int
    values: Mapping[int, int]


class RecordSet:
    """Records stored as columns, with an entity-id -> row map.

    ``id_array`` holds the entity id of each row; ``value_matrix`` is
    (n_records, n_attributes) int64 with -1 for a missing value. ``Record``
    objects are made on first use (``get``, iteration, ``records``), for
    the scalar reference functions and tests.
    """

    def __init__(
        self, schema: Schema, dictionary: ValueDictionary, records: Iterable[Record] = ()
    ):
        records = tuple(records)
        cells = [
            (row, attr, vid)
            for row, rec in enumerate(records)
            for attr, vid in rec.values.items()
        ]
        rows, attrs, vids = np.array(cells, dtype=np.int64).reshape(-1, 3).T
        self._store(schema, dictionary, [rec.entity_id for rec in records], rows, attrs, vids)

    @classmethod
    def from_columns(
        cls, schema: Schema, dictionary: ValueDictionary, id_array, value_matrix
    ) -> "RecordSet":
        """A record set over given columns, checked as the constructor checks records."""
        value_matrix = np.asarray(value_matrix, dtype=np.int64)
        if value_matrix.shape != (len(id_array), schema.n_attributes):
            raise DomainError(
                f"value matrix of shape {value_matrix.shape} does not hold "
                f"{len(id_array)} records of {schema.n_attributes} attributes"
            )
        rows, attrs = np.nonzero(value_matrix != -1)
        records = cls.__new__(cls)
        records._store(schema, dictionary, id_array, rows, attrs, value_matrix[rows, attrs])
        return records

    def _store(self, schema, dictionary, ids, rows, attrs, vids) -> None:
        """Check the present cells (int64 arrays of row, attribute and value id),
        then keep them as columns."""
        try:
            ids = np.array(ids, dtype=np.int64)
        except OverflowError:
            raise LoadError("entity ids must fit in 64 bits") from None
        owner = dictionary.attribute_array()
        known = (vids >= 0) & (vids < len(owner))
        bad = ~known | (attrs < 0) | (attrs >= schema.n_attributes)
        bad[known] |= owner[vids[known]] != attrs[known]
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"record {ids[rows[i]]}: value id {vids[i]} "
                f"does not belong to attribute {attrs[i]}"
            )
        row_of = dict(zip(ids.tolist(), range(len(ids))))
        if len(row_of) < len(ids):
            repeat = np.ones(len(ids), dtype=bool)
            repeat[np.unique(ids, return_index=True)[1]] = False
            raise LoadError(f"duplicate entity id {ids[np.argmax(repeat)]}")
        matrix = np.full((len(ids), schema.n_attributes), -1, dtype=np.int64)
        matrix[rows, attrs] = vids
        self.schema = schema
        self.dictionary = dictionary
        self.id_array = ids
        self.value_matrix = matrix
        self._row_of = row_of

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """Every row as a ``Record``, made on first use."""
        return tuple(
            Record(entity_id, {attr: vid for attr, vid in enumerate(row) if vid >= 0})
            for entity_id, row in zip(self.id_array.tolist(), self.value_matrix.tolist())
        )

    def __len__(self) -> int:
        return len(self.id_array)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self._row_of

    def get(self, entity_id: int) -> Record:
        try:
            return self.records[self._row_of[entity_id]]
        except KeyError:
            raise LoadError(f"unknown entity id {entity_id}") from None

    def rows(self, entity_ids) -> np.ndarray:
        """The row of each entity id; an unknown id raises LoadError."""
        try:
            return np.fromiter(
                map(self._row_of.__getitem__, entity_ids), dtype=np.int64,
                count=len(entity_ids),
            )
        except KeyError as exc:
            raise LoadError(f"unknown entity id {exc.args[0]}") from None

    def take(self, rows) -> "RecordSet":
        """The records at ``rows`` (an index array), in that order."""
        return RecordSet.from_columns(
            self.schema, self.dictionary, self.id_array[rows], self.value_matrix[rows]
        )


@dataclass(frozen=True)
class LinkedPairSet:
    """Ground-truth links between an A-side and a B-side record set."""

    pairs: tuple[tuple[int, int], ...]
    provenance: str = "train"

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise LoadError("duplicate linked pairs")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


class Split(NamedTuple):
    records_a: RecordSet
    records_b: RecordSet
    links: LinkedPairSet


def load_records(
    path: str | Path,
    schema: Schema,
    fmt: TextFormat = TextFormat(),
    dictionary: ValueDictionary | None = None,
    start_entity_id: int = 0,
) -> tuple[RecordSet, ValueDictionary]:
    """Read one delimited file into standardized, interned records.

    The header must carry the schema's attribute names (case-insensitive, in
    order), optionally plus an id column named ``fmt.id_column`` anywhere.
    Cells matching a null marker after standardization become missing
    attributes. Pass an existing ``dictionary`` to share value ids across
    files (required when two files will be compared to each other).
    """
    path = Path(path)
    if dictionary is None:
        dictionary = ValueDictionary(schema.n_attributes)
    elif dictionary.n_attributes != schema.n_attributes:
        raise SchemaMismatchError("dictionary attribute count does not match schema")

    with open(path, newline="", encoding=fmt.encoding) as fh:
        reader = csv.reader(fh, delimiter=fmt.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None

        id_name = standardize(fmt.id_column)
        id_col = None
        attr_cols: list[int] = []
        for i, name in enumerate(header):
            if standardize(name) == id_name and id_col is None:
                id_col = i
            else:
                attr_cols.append(i)
        header_names = [standardize(header[i]) for i in attr_cols]
        wanted = [standardize(a) for a in schema.attributes]
        if header_names != wanted:
            unknown = [n for n in header_names if n not in wanted]
            if unknown:
                raise SchemaMismatchError(
                    f"{path}: unknown attribute {unknown[0]!r} in header"
                )
            raise SchemaMismatchError(
                f"{path}: header {header_names} does not match schema {wanted}"
            )

        nulls = fmt.standardized_nulls
        # per column: raw cell -> value id, or -1 for a null; first sightings
        # intern in file order, so value ids do not depend on the memo
        memos: list[dict[str, int]] = [{} for _ in attr_cols]
        ids: list[int] = []
        cells: list[list[int]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise LoadError(
                    f"{path}: line {lineno}: expected {len(header)} columns, "
                    f"got {len(row)}"
                )
            if id_col is not None:
                try:
                    entity_id = int(row[id_col])
                except ValueError:
                    raise LoadError(
                        f"{path}: line {lineno}: bad entity id {row[id_col]!r}"
                    ) from None
            else:
                entity_id = start_entity_id + len(ids)
            ids.append(entity_id)
            row_cells = []
            for attr, (col, memo) in enumerate(zip(attr_cols, memos)):
                raw = row[col]
                try:
                    vid = memo[raw]
                except KeyError:
                    cell = standardize(raw)
                    vid = memo[raw] = -1 if cell in nulls else dictionary.intern(attr, cell)
                row_cells.append(vid)
            cells.append(row_cells)

    matrix = np.array(cells, dtype=np.int64).reshape(len(ids), schema.n_attributes)
    return RecordSet.from_columns(schema, dictionary, ids, matrix), dictionary


def load_links(
    path: str | Path, fmt: TextFormat = TextFormat(), provenance: str = "train"
) -> LinkedPairSet:
    """Read a two-column file of (a_entity_id, b_entity_id) pairs.

    A non-numeric first row is treated as a header and skipped.
    """
    path = Path(path)
    pairs: list[tuple[int, int]] = []
    with open(path, newline="", encoding=fmt.encoding) as fh:
        reader = csv.reader(fh, delimiter=fmt.delimiter)
        for lineno, row in enumerate(reader, start=1):
            if len(row) != 2:
                raise LoadError(f"{path}: line {lineno}: expected 2 columns")
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise LoadError(f"{path}: line {lineno}: bad entity id") from None
    return LinkedPairSet(tuple(pairs), provenance)


def write_records_csv(
    records: RecordSet, path: str | Path, delimiter: str = ",", id_column: str = "entity_id"
) -> None:
    """Write records with a header row; missing attributes become empty cells."""
    # indexed by value id; the trailing "" is what a missing value's -1 picks
    strings = [text for _, _, text in records.dictionary.entries()] + [""]
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow([id_column, *records.schema.attributes])
        writer.writerows(
            [entity_id, *map(strings.__getitem__, row)]
            for entity_id, row in zip(
                records.id_array.tolist(), records.value_matrix.tolist()
            )
        )


def write_links_csv(links: LinkedPairSet, path: str | Path, delimiter: str = ",") -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["a_id", "b_id"])
        for a, b in links:
            writer.writerow([str(a), str(b)])


def _allocate(n: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder allocation of n items across the ratios."""
    base = [math.floor(r * n) for r in ratios]
    remainder = n - sum(base)
    fractional = sorted(
        range(len(ratios)), key=lambda i: (-(ratios[i] * n - base[i]), i)
    )
    for i in fractional[:remainder]:
        base[i] += 1
    return base


def partition(
    records_a: RecordSet,
    records_b: RecordSet,
    links: LinkedPairSet,
    ratios: Sequence[float],
    seed: int,
) -> tuple[Split, Split, Split]:
    """Split into train/validation/test at the linked-pair level.

    Every true pair lands in exactly one split together with both of its
    records; records not touched by any link are spread across the splits
    with the same ratios. Deterministic for a fixed seed.
    """
    if len(ratios) != 3:
        raise ConfigError("ratios: expected three fractions")
    if any(r < 0 for r in ratios):
        raise ConfigError("ratios: fractions must be non-negative")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios: must sum to 1, got {sum(ratios)!r}")
    if len(links) == 0:
        raise ConfigError("links: empty link set")

    rng = np.random.default_rng(seed)

    def spread(items: list) -> list[list]:
        """The items shuffled, then cut into three runs sized by the ratios."""
        perm = rng.permutation(len(items))
        bounds = np.cumsum([0, *_allocate(len(items), ratios)])
        return [[items[i] for i in perm[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]

    split_pairs = spread(list(links.pairs))
    linked_a = {a for a, _ in links}
    linked_b = {b for _, b in links}
    free_a = spread([i for i in records_a.id_array.tolist() if i not in linked_a])
    free_b = spread([i for i in records_b.id_array.tolist() if i not in linked_b])

    splits = []
    for k, name in enumerate(("train", "validation", "test")):
        a_ids = sorted({a for a, _ in split_pairs[k]} | set(free_a[k]))
        b_ids = sorted({b for _, b in split_pairs[k]} | set(free_b[k]))
        pairs = tuple(sorted(split_pairs[k]))
        splits.append(Split(
            records_a.take(records_a.rows(a_ids)),
            records_b.take(records_b.rows(b_ids)),
            LinkedPairSet(pairs, name),
        ))
    return splits[0], splits[1], splits[2]


@dataclass(frozen=True)
class EvolutionRule:
    """One allowed directed value transition for an attribute."""

    attribute: str
    source: str
    target: str
    probability: float = 1.0


@dataclass(frozen=True)
class SynthConfig:
    """Everything the synthetic generator needs; loadable from JSON.

    ``vocabularies`` maps each attribute name to its value list. In JSON a
    vocabulary may instead be written as {"prefix": "occ", "count": 40} and
    is expanded to occ000..occ039.
    """

    attributes: tuple[str, ...]
    vocabularies: Mapping[str, tuple[str, ...]]
    size_a: int
    size_b: int
    duplicate_fraction: float
    blocking_attribute: str | None = None
    evolution_rules: tuple[EvolutionRule, ...] = ()
    typo_probability: float = 0.015
    missing_probability: float = 0.01

    def __post_init__(self):
        if self.size_a < 1 or self.size_b < 1:
            raise ConfigError("size_a/size_b: must be positive")
        if not 0.0 <= self.duplicate_fraction <= 1.0:
            raise ConfigError("duplicate_fraction: must be in [0, 1]")
        n_dup = round(self.duplicate_fraction * self.size_a)
        if n_dup > self.size_b:
            raise ConfigError(
                "duplicate_fraction: more duplicates than dataset B can hold"
            )
        for name in self.attributes:
            if name not in self.vocabularies:
                raise ConfigError(f"vocabularies: missing entry for {name!r}")
            if not self.vocabularies[name]:
                raise ConfigError(f"vocabularies: empty vocabulary for {name!r}")
        for rule in self.evolution_rules:
            if rule.attribute not in self.attributes:
                raise ConfigError(
                    f"evolution_rules: unknown attribute {rule.attribute!r}"
                )
            vocab = {standardize(v) for v in self.vocabularies[rule.attribute]}
            for val in (rule.source, rule.target):
                if standardize(val) not in vocab:
                    raise ConfigError(
                        f"evolution_rules: value {val!r} not in the "
                        f"{rule.attribute!r} vocabulary"
                    )
            if not 0.0 <= rule.probability <= 1.0:
                raise ConfigError("evolution_rules: probability must be in [0, 1]")
        if self.blocking_attribute is not None and self.blocking_attribute not in self.attributes:
            raise ConfigError(f"blocking_attribute: unknown attribute {self.blocking_attribute!r}")
        if not 0.0 <= self.typo_probability <= 1.0:
            raise ConfigError("typo_probability: must be in [0, 1]")
        if not 0.0 <= self.missing_probability <= 1.0:
            raise ConfigError("missing_probability: must be in [0, 1]")

    def to_schema(self) -> Schema:
        blocking = (
            None
            if self.blocking_attribute is None
            else self.attributes.index(self.blocking_attribute)
        )
        return Schema(self.attributes, blocking)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SynthConfig":
        try:
            attributes = tuple(raw["attributes"])
            vocab_raw = raw["vocabularies"]
            size_a = int(raw["size_a"])
            size_b = int(raw["size_b"])
            duplicate_fraction = float(raw["duplicate_fraction"])
        except KeyError as exc:
            raise ConfigError(f"missing key {exc.args[0]!r}") from None
        vocabularies = {}
        for name, entry in vocab_raw.items():
            if isinstance(entry, Mapping):
                try:
                    prefix, count = entry["prefix"], int(entry["count"])
                except KeyError as exc:
                    raise ConfigError(
                        f"vocabularies.{name}: missing key {exc.args[0]!r}"
                    ) from None
                vocabularies[name] = tuple(f"{prefix}{i:03d}" for i in range(count))
            else:
                vocabularies[name] = tuple(entry)
        rules = tuple(
            EvolutionRule(
                attribute=r["attribute"],
                source=r["from"],
                target=r["to"],
                probability=float(r.get("probability", 1.0)),
            )
            for r in raw.get("evolution_rules", ())
        )
        return cls(
            attributes=attributes,
            vocabularies=vocabularies,
            size_a=size_a,
            size_b=size_b,
            duplicate_fraction=duplicate_fraction,
            blocking_attribute=raw.get("blocking_attribute"),
            evolution_rules=rules,
            typo_probability=float(raw.get("typo_probability", 0.015)),
            missing_probability=float(raw.get("missing_probability", 0.01)),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{path}: expected a JSON object")
        return cls.from_dict(raw)


def _typo(text: str, rng: np.random.Generator) -> str:
    if not text:
        return _LETTERS[int(rng.integers(len(_LETTERS)))]
    i = int(rng.integers(len(text)))
    pool = _LETTERS.replace(text[i], "") if text[i] in _LETTERS else _LETTERS
    return text[:i] + pool[int(rng.integers(len(pool)))] + text[i + 1 :]


def generate_synthetic(config: SynthConfig, seed: int) -> Split:
    """Generate two record sets with a controlled overlap of true duplicates.

    Each duplicate is the A record pushed through the evolution rule table
    (first applicable rule wins, fired with its own probability), then typo
    and missing-value noise. Every A record has at most one duplicate in B.
    """
    rng = np.random.default_rng(seed)
    schema = config.to_schema()
    dictionary = ValueDictionary(schema.n_attributes)

    vocab_ids: list[list[int]] = []
    for attr, name in enumerate(config.attributes):
        vocab_ids.append([dictionary.intern(attr, v) for v in config.vocabularies[name]])

    rules_by_attr: dict[int, list[tuple[int, int, float]]] = {}
    for rule in config.evolution_rules:
        attr = config.attributes.index(rule.attribute)
        src = dictionary.lookup(attr, rule.source)
        dst = dictionary.lookup(attr, rule.target)
        rules_by_attr.setdefault(attr, []).append((src, dst, rule.probability))

    def draw_values() -> list[int]:
        return [ids[int(rng.integers(len(ids)))] for ids in vocab_ids]

    a_rows = [draw_values() for _ in range(config.size_a)]

    n_dup = round(config.duplicate_fraction * config.size_a)
    dup_sources = sorted(int(i) for i in rng.choice(config.size_a, n_dup, replace=False))

    b_payloads: list[tuple[int | None, list[int]]] = []  # (source A id, row; -1 = missing)
    for a_idx in dup_sources:
        values = list(a_rows[a_idx])
        for attr, current in enumerate(a_rows[a_idx]):
            for src, dst, prob in rules_by_attr.get(attr, ()):
                if src == current:
                    if rng.random() < prob:
                        values[attr] = dst
                    break
        for attr in range(schema.n_attributes):
            if rng.random() < config.typo_probability:
                mutated = _typo(dictionary.value_string(values[attr]), rng)
                values[attr] = dictionary.intern(attr, mutated)
            if rng.random() < config.missing_probability:
                values[attr] = -1
        b_payloads.append((a_idx, values))

    for _ in range(config.size_b - n_dup):
        b_payloads.append((None, draw_values()))

    b_order = rng.permutation(len(b_payloads)).tolist()
    b_ids = range(config.size_a, config.size_a + len(b_order))
    pairs = [(b_payloads[i][0], b_id) for i, b_id in zip(b_order, b_ids)]
    return Split(
        RecordSet.from_columns(schema, dictionary, range(config.size_a), a_rows),
        RecordSet.from_columns(schema, dictionary, b_ids, [b_payloads[i][1] for i in b_order]),
        LinkedPairSet(tuple(sorted(p for p in pairs if p[0] is not None)), "generated"),
    )
