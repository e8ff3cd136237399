"""The records: the JSON object readers, the schema, value dictionary and
record model, the records file, and partitioning.

Raw tabular sources are standardized and interned into per-attribute value
domains before anything downstream sees them; every id handed out here is
stable for the lifetime of the dictionary that produced it. The id files
are in ``idfiles`` and the synthetic generator in ``synth``; the names of
theirs that this module has always exported still resolve here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, LoadError, SchemaMismatchError
from .idfiles import (
    ENCODING,
    ID_TEXT,
    LinkedPairSet,
    TextFormat,
    _byte_columns,
    _first_repeat,
    _id_text,
    _id_value,
    _text,
    id_ranks,
    row_dtype,
    sorted_distinct,
    standardize,
    whole_file,
    write_links_csv,
)

# the generator's names, loaded from ``synth`` on first use: ``synth`` builds
# on this module, so importing it here would make a cycle
SYNTH_NAMES = ("EvolutionRule", "SynthConfig", "generate_synthetic")
# the name (in any case) of a records file's optional id column
ID_COLUMN = "entity_id"


# the JSON values that each type name accepts; "float" and "list[...]" are
# checked in _fits
JSON_TYPES = {
    "int": int, "str": str, "bool": bool, "None": type(None), "list": list, "object": Mapping,
}


def json_fits(value, annotation: str) -> bool:
    """Whether a parsed JSON value fits a type name such as ``list[float] | None``."""
    return any(_fits(value, kind) for kind in annotation.split(" | "))


def _fits(value, kind: str) -> bool:
    if kind.startswith("list["):
        return isinstance(value, list) and all(_fits(v, kind[5:-1]) for v in value)
    if isinstance(value, bool):  # an int to Python, not to JSON
        return kind == "bool"
    if kind == "float":  # finite, and an int only if a float can hold it
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, JSON_TYPES[kind])


def read_object(raw, where: str, types: Mapping, required: Iterable[str] = ()) -> dict:
    """``raw`` as a dict once it is a JSON object whose keys are all in ``types``,
    each value fitting its type name (None: a section its own reader checks),
    with every ``required`` key present; each ConfigError names ``where`` + key."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where}{': ' if where else ''}expected a JSON object, got {raw!r}")
    prefix = f"{where}." if where else ""
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"{prefix}{key}: unknown key")
        if types[key] is not None and not json_fits(value, types[key]):
            raise ConfigError(f"{prefix}{key}: expected {types[key]}, got {value!r}")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{prefix}{key}: required")
    return dict(raw)


def build(make, where: str, **values):
    """``make(**values)``, with ``where.`` put before a ConfigError from its
    own checks, which name the field alone."""
    try:
        return make(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from None


def read_fields(cls, raw, where: str, required: Iterable[str] = ()):
    """A dataclass whose field annotations are JSON type names, from ``raw``."""
    types = {f.name: f.type for f in fields(cls)}
    return build(cls, where, **read_object(raw, where, types, required))


def read_json(path: str | Path):
    """The parsed contents of a JSON file; a file that is not JSON raises ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None



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

    @classmethod
    def named(cls, attributes: Sequence[str], blocking: str | None = None) -> "Schema":
        """A schema whose blocking attribute is given by name."""
        if blocking is not None and blocking not in attributes:
            raise ConfigError(f"blocking_attribute: unknown attribute {blocking!r}")
        return cls(tuple(attributes), None if blocking is None else list(attributes).index(blocking))

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

    def entries(self) -> Iterator[tuple[int, int, str]]:
        """Yield (value_id, attribute, string) in id order."""
        for vid, (attr, s) in enumerate(self._entries):
            yield vid, attr, s


@dataclass(frozen=True)
class Record:
    """One entity with a partial attribute -> value map (both sides are ids)."""

    entity_id: int
    values: Mapping[int, int]



class RepeatedIdError(LoadError):
    """Two rows of one record set hold the same entity id."""

    def __init__(self, entity_id: int, row: int, earlier: int):
        super().__init__(f"duplicate entity id {entity_id}")
        self.entity_id, self.row, self.earlier = entity_id, row, earlier


class RecordSet:
    """Records stored as columns, with their entity ids sorted for lookup.

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
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        repeat = _first_repeat(order, sorted_ids[1:] == sorted_ids[:-1])
        if repeat is not None:
            raise RepeatedIdError(int(ids[repeat[0]]), *repeat)
        matrix = np.full((len(ids), schema.n_attributes), -1, dtype=np.int64)
        matrix[rows, attrs] = vids
        self.schema = schema
        self.dictionary = dictionary
        self.id_array = ids
        self.value_matrix = matrix
        self._order = order.astype(row_dtype(len(ids)))
        self._sorted_ids = sorted_ids

    @cached_property
    def records(self) -> tuple[Record, ...]:
        """Every row as a ``Record``, made on first use."""
        return tuple(
            Record(entity_id, {attr: vid for attr, vid in enumerate(row) if vid >= 0})
            for entity_id, row in zip(self.id_array.tolist(), self.value_matrix.tolist())
        )

    @cached_property
    def presence(self) -> np.ndarray:
        """Which attributes each record holds, one bit per attribute packed
        into bytes (``np.packbits``), so that a pair gathers a byte per 8
        attributes, not a bool each; packed once, for every reader."""
        return np.packbits(self.value_matrix >= 0, axis=1)

    def __len__(self) -> int:
        return len(self.id_array)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __contains__(self, entity_id: int) -> bool:
        return bool(self.find([entity_id])[1][0])

    def get(self, entity_id: int) -> Record:
        return self.records[self.rows([entity_id])[0]]

    def find(self, entity_ids) -> tuple[np.ndarray, np.ndarray]:
        """The row of each entity id (any row if absent), and whether it is there."""
        pos, found = id_ranks(entity_ids, self._sorted_ids)
        return (self._order[pos] if len(self) else pos), found

    def rows(self, entity_ids) -> np.ndarray:
        """The row of each entity id; an unknown id raises LoadError."""
        rows, found = self.find(entity_ids)
        if not found.all():
            unknown = np.asarray(entity_ids, dtype=object)[np.argmin(found)]  # exact, if beyond int64
            raise LoadError(f"unknown entity id {unknown}")
        return rows

    def take(self, rows) -> "RecordSet":
        """The records at ``rows`` (an index array), in that order."""
        return RecordSet.from_columns(
            self.schema, self.dictionary, self.id_array[rows], self.value_matrix[rows]
        )



class Split(NamedTuple):
    records_a: RecordSet
    records_b: RecordSet
    links: LinkedPairSet


def load_records(
    path: str | Path,
    schema: Schema,
    fmt: TextFormat = TextFormat(),
    dictionary: ValueDictionary | None = None,
) -> tuple[RecordSet, ValueDictionary]:
    """Read one delimited UTF-8 file into standardized, interned records.

    The header must carry the schema's attribute names (case-insensitive, in
    order), optionally plus an id column named ``ID_COLUMN`` anywhere;
    without one, rows are numbered from 0.
    Cells matching a null marker after standardization become missing
    attributes. Pass an existing ``dictionary`` to share value ids across
    files (required when two files will be compared to each other).
    """
    path = Path(path)
    if dictionary is None:
        dictionary = ValueDictionary(schema.n_attributes)
    elif dictionary.n_attributes != schema.n_attributes:
        raise SchemaMismatchError("dictionary attribute count does not match schema")

    # decoded whole first, so that a byte that is not text is named by its line
    decoded = io.StringIO(_text(path.read_bytes(), path), newline="")
    reader = csv.reader(decoded, delimiter=fmt.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise LoadError(f"{path}: empty file") from None

    id_name = standardize(ID_COLUMN)
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
            # the id syntax of the id files: ASCII -?[0-9]+ within int64
            text = row[id_col]
            if not ID_TEXT.fullmatch(text):
                raise LoadError(f"{path}: line {lineno}: bad entity id {text!r}")
            # 18 characters always fit; int() alone is the fast path for them
            entity_id = int(text) if len(text) < 19 else _id_value(text)
            if entity_id is None:
                raise LoadError(f"{path}: line {lineno}: entity ids must fit in 64 bits")
        else:
            entity_id = len(ids)
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
    try:
        return RecordSet.from_columns(schema, dictionary, ids, matrix), dictionary
    except RepeatedIdError as exc:  # row r is on line r + 2
        message = f"line {exc.row + 2}: entity id {exc.entity_id} repeats line {exc.earlier + 2}"
        raise LoadError(f"{path}: {message}") from None


# about the bytes of cells that write_records_csv lays out at once
WRITE_BYTES = 1 << 20


class _Lines(list):
    """A file for ``csv.writer`` that keeps each row's text as an item."""

    write = list.append


def write_records_csv(records: RecordSet, path: str | Path) -> None:
    """Write records as CSV with a header row, ids in an ``ID_COLUMN`` column
    first; missing attributes become empty cells. The bytes are those of
    ``csv.writer`` with LF line ends, written whole or not at all
    (``whole_file``)."""
    with whole_file(path, "wb") as fh:
        fh.writelines(_record_lines(records))


def _record_lines(records: RecordSet) -> Iterator[bytes]:
    """The records file's header, then its rows a block at a time.

    The csv module renders the header, and each value's field once, with
    the comma after it. A block of rows is one byte matrix: each row's id
    as ``_id_text`` gives it, then its cells' fields, gathered by value id
    and padded to the widest. A mask keeps each field's own bytes, NULs
    among them, and each row's last comma becomes its LF.
    """
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow([ID_COLUMN, *records.schema.attributes])
    # indexed by value id; the trailing "" is what a missing value's -1 picks
    strings = [text for _, _, text in records.dictionary.entries()] + [""]
    writer.writerows([text, ""] for text in strings)
    header, *fields = (line.encode(ENCODING) for line in lines)
    yield header
    fields = [field[:-1] for field in fields]  # each "<field>,"
    lengths = np.array([len(field) for field in fields])
    in_field = np.arange(lengths.max()) < lengths[:, None]
    table = np.zeros(in_field.shape, dtype=np.uint8)
    table[in_field] = np.frombuffer(b"".join(fields), dtype=np.uint8)

    ids = _byte_columns(_id_text(records))
    n_rows, n_attributes = records.value_matrix.shape
    step = max(1, WRITE_BYTES // (ids.shape[1] + n_attributes * table.shape[1]))
    for start in range(0, n_rows, step):
        values, row_ids = records.value_matrix[start : start + step], ids[start : start + step]
        cells = np.concatenate((row_ids, table[values].reshape(len(values), -1)), axis=1)
        keep = np.concatenate((row_ids != 0, in_field[values].reshape(len(values), -1)), axis=1)
        text = cells[keep]
        text[np.cumsum(np.count_nonzero(keep, axis=1)) - 1] = ord("\n")
        yield text.tobytes()


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


def check_ratios(ratios: Sequence[float]) -> None:
    """Refuse split ratios that are not three non-negative fractions summing to 1."""
    if len(ratios) != 3:
        raise ConfigError("ratios: expected three fractions")
    if any(r < 0 for r in ratios):
        raise ConfigError("ratios: fractions must be non-negative")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios: must sum to 1, got {sum(ratios)!r}")


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
    check_ratios(ratios)
    if len(links) == 0:
        raise ConfigError("links: empty link set")

    a_rows, b_rows = links.rows(records_a, records_b)
    rng = np.random.default_rng(seed)

    def spread(items: np.ndarray) -> list[np.ndarray]:
        """The items shuffled, then cut into three runs sized by the ratios."""
        perm = rng.permutation(len(items))
        bounds = np.cumsum([0, *_allocate(len(items), ratios)])
        return [items[perm[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]

    split_links = spread(np.arange(len(links)))
    free_a = spread(np.delete(records_a.id_array, a_rows))  # the ids no link touches
    free_b = spread(np.delete(records_b.id_array, b_rows))

    splits = []
    for k, name in enumerate(("train", "validation", "test")):
        a_ids, b_ids = links.a_ids[split_links[k]], links.b_ids[split_links[k]]
        by_pair = np.lexsort((b_ids, a_ids))
        splits.append(Split(
            records_a.take(records_a.rows(sorted_distinct(np.concatenate((a_ids, free_a[k]))))),
            records_b.take(records_b.rows(sorted_distinct(np.concatenate((b_ids, free_b[k]))))),
            LinkedPairSet(np.column_stack((a_ids, b_ids))[by_pair], name),
        ))
    return splits[0], splits[1], splits[2]



def __getattr__(name: str):
    if name in SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
