"""Loading, standardization, partitioning, and synthetic linked-data generation.

Raw tabular sources are standardized and interned into per-attribute value
domains before anything downstream sees them; every id handed out here is
stable for the lifetime of the dictionary that produced it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

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

    def is_null(self, standardized_cell: str) -> bool:
        return standardized_cell in {standardize(m) for m in self.null_markers}


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


@dataclass(frozen=True)
class RecordSet:
    """Records plus their columns, built once.

    ``value_matrix`` is (n_records, n_attributes) int64 with -1 for a missing
    value; ``id_array`` holds the entity id of each row.
    """

    schema: Schema
    dictionary: ValueDictionary
    records: tuple[Record, ...]
    value_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    id_array: np.ndarray = field(init=False, repr=False, compare=False)
    _row_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_attrs = self.schema.n_attributes
        row_of: dict[int, int] = {}
        attrs: list[int] = []
        vids: list[int] = []
        counts: list[int] = []
        for row, rec in enumerate(self.records):
            if rec.entity_id in row_of:
                raise LoadError(f"duplicate entity id {rec.entity_id}")
            row_of[rec.entity_id] = row
            attrs.extend(rec.values)
            vids.extend(rec.values.values())
            counts.append(len(rec.values))
        try:
            ids = np.array(list(row_of), dtype=np.int64)
        except OverflowError:
            raise LoadError("entity ids must fit in 64 bits") from None

        attr_col = np.array(attrs, dtype=np.int64)
        vid_col = np.array(vids, dtype=np.int64)
        rows = np.repeat(np.arange(len(self.records)), counts)
        owner = self.dictionary.attribute_array()
        known = (vid_col >= 0) & (vid_col < len(owner))
        bad = ~known | (attr_col < 0) | (attr_col >= n_attrs)
        bad[known] |= owner[vid_col[known]] != attr_col[known]
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"record {self.records[rows[i]].entity_id}: value id {vids[i]} "
                f"does not belong to attribute {attrs[i]}"
            )
        matrix = np.full((len(self.records), n_attrs), -1, dtype=np.int64)
        matrix[rows, attr_col] = vid_col
        object.__setattr__(self, "value_matrix", matrix)
        object.__setattr__(self, "id_array", ids)
        object.__setattr__(self, "_row_of", row_of)

    def __len__(self) -> int:
        return len(self.records)

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

    def entity_ids(self) -> frozenset[int]:
        return frozenset(self._row_of)


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

        records: list[Record] = []
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
                entity_id = start_entity_id + len(records)
            values: dict[int, int] = {}
            for attr, col in enumerate(attr_cols):
                cell = standardize(row[col])
                if fmt.is_null(cell):
                    continue
                values[attr] = dictionary.intern(attr, cell)
            records.append(Record(entity_id, values))

    return RecordSet(schema, dictionary, tuple(records)), dictionary


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
    names = ("train", "validation", "test")

    pair_list = list(links.pairs)
    order = rng.permutation(len(pair_list))
    counts = _allocate(len(pair_list), ratios)
    split_pairs: list[list[tuple[int, int]]] = []
    start = 0
    for c in counts:
        split_pairs.append([pair_list[i] for i in order[start : start + c]])
        start += c

    linked_a = {a for a, _ in pair_list}
    linked_b = {b for _, b in pair_list}

    def spread(free_ids: list[int]) -> list[list[int]]:
        perm = rng.permutation(len(free_ids))
        cs = _allocate(len(free_ids), ratios)
        out, pos = [], 0
        for c in cs:
            out.append([free_ids[i] for i in perm[pos : pos + c]])
            pos += c
        return out

    free_a = spread([r.entity_id for r in records_a if r.entity_id not in linked_a])
    free_b = spread([r.entity_id for r in records_b if r.entity_id not in linked_b])

    splits = []
    for k, name in enumerate(names):
        a_ids = sorted({a for a, _ in split_pairs[k]} | set(free_a[k]))
        b_ids = sorted({b for _, b in split_pairs[k]} | set(free_b[k]))
        set_a = RecordSet(
            records_a.schema,
            records_a.dictionary,
            tuple(records_a.get(i) for i in a_ids),
        )
        set_b = RecordSet(
            records_b.schema,
            records_b.dictionary,
            tuple(records_b.get(i) for i in b_ids),
        )
        pairs = tuple(sorted(split_pairs[k]))
        splits.append(Split(set_a, set_b, LinkedPairSet(pairs, name)))
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

    def draw_values() -> dict[int, int]:
        return {
            attr: ids[int(rng.integers(len(ids)))]
            for attr, ids in enumerate(vocab_ids)
        }

    a_records = [Record(i, draw_values()) for i in range(config.size_a)]

    n_dup = round(config.duplicate_fraction * config.size_a)
    dup_sources = sorted(int(i) for i in rng.choice(config.size_a, n_dup, replace=False))

    b_payloads: list[tuple[int | None, dict[int, int]]] = []  # (source A id, values)
    for a_idx in dup_sources:
        values = dict(a_records[a_idx].values)
        for attr in range(schema.n_attributes):
            current = values.get(attr)
            for src, dst, prob in rules_by_attr.get(attr, ()):
                if src == current:
                    if rng.random() < prob:
                        values[attr] = dst
                    break
        for attr in range(schema.n_attributes):
            if attr not in values:
                continue
            if rng.random() < config.typo_probability:
                mutated = _typo(dictionary.value_string(values[attr]), rng)
                values[attr] = dictionary.intern(attr, mutated)
            if rng.random() < config.missing_probability:
                del values[attr]
        b_payloads.append((a_idx, values))

    for _ in range(config.size_b - n_dup):
        b_payloads.append((None, draw_values()))

    order = rng.permutation(len(b_payloads))
    b_records: list[Record] = []
    pairs: list[tuple[int, int]] = []
    for pos, idx in enumerate(order):
        source, values = b_payloads[int(idx)]
        b_id = config.size_a + pos
        b_records.append(Record(b_id, values))
        if source is not None:
            pairs.append((source, b_id))

    return Split(
        RecordSet(schema, dictionary, tuple(a_records)),
        RecordSet(schema, dictionary, tuple(b_records)),
        LinkedPairSet(tuple(sorted(pairs)), "generated"),
    )
