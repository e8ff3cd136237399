"""Loading, standardization, partitioning, and synthetic linked-data generation.

Raw tabular sources are standardized and interned into per-attribute value
domains before anything downstream sees them; every id handed out here is
stable for the lifetime of the dictionary that produced it.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DomainError, LoadError, SchemaMismatchError

DEFAULT_NULL_MARKERS = ("", "illegible", "NA")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

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


@dataclass(frozen=True)
class TextFormat:
    """Delimited-text descriptor for record files."""

    delimiter: str = ";"
    encoding: str = "utf-8"
    null_markers: tuple[str, ...] = DEFAULT_NULL_MARKERS
    id_column: str = "entity_id"

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter: must be one character, got {self.delimiter!r}")

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


def id_ranks(ids, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each id in the sorted, distinct ``known`` (some position in
    range where it is absent, 0 if ``known`` is empty), and whether it is there.
    An id outside int64 is never there."""
    try:
        ids = np.asarray(ids, dtype=np.int64)
    except OverflowError:  # look up 0 in place of each such id, then clear its flag
        fits = np.array([-(2**63) <= i < 2**63 for i in ids], dtype=bool)
        pos, found = id_ranks(np.where(fits, np.asarray(ids, dtype=object), 0), known)
        return pos, found & fits
    if not len(known):
        return np.zeros(len(ids), dtype=np.int64), np.zeros(len(ids), dtype=bool)
    low = int(known[0])
    span = int(known[-1]) - low + 1
    if span <= 4 * len(ids):  # a direct table costs no more than a binary search
        table = np.zeros(span, dtype=np.int64)
        table[known - low] = np.arange(len(known))
        offset = ids - low  # wraps out of [0, span) for ids far outside it
        inside = (offset >= 0) & (offset < span)
        pos = table[np.where(inside, offset, 0)]
        return pos, inside & (known[pos] == ids)
    pos = np.minimum(np.searchsorted(known, ids), len(known) - 1)
    return pos, known[pos] == ids


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
        self._order = order
        self._sorted_ids = sorted_ids

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


class LinkedPairSet:
    """Ground-truth links between an A-side and a B-side record set, given as
    (a, b) pairs or an (n, 2) array and held as two int64 id columns, ``a_ids``
    and ``b_ids``, with no pair repeated; ``pairs`` is made on first use."""

    def __init__(self, pairs: Sequence[tuple[int, int]] = (), provenance: str = "train"):
        try:
            self.a_ids, self.b_ids = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
        except OverflowError:
            raise LoadError("entity ids must fit in 64 bits") from None
        if _repeated_pair(self.a_ids, self.b_ids) is not None:
            raise LoadError("duplicate linked pairs")
        self.provenance = provenance

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.a_ids.tolist(), self.b_ids.tolist()))

    def __len__(self) -> int:
        return len(self.a_ids)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def rows(self, records_a: RecordSet, records_b: RecordSet) -> tuple[np.ndarray, np.ndarray]:
        """The A row and the B row of each link; an end that is not a record raises LoadError."""
        (a_rows, in_a), (b_rows, in_b) = records_a.find(self.a_ids), records_b.find(self.b_ids)
        if not (in_a & in_b).all():
            i = int(np.argmin(in_a & in_b))
            side, ids, kind = ("a", self.a_ids, "an A") if not in_a[i] else ("b", self.b_ids, "a B")
            raise LoadError(
                f"links: {side} id {ids[i]} of link ({self.a_ids[i]}, {self.b_ids[i]}) "
                f"is not {kind} record"
            )
        return a_rows, b_rows


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
    try:
        return RecordSet.from_columns(schema, dictionary, ids, matrix), dictionary
    except RepeatedIdError as exc:  # row r is on line r + 2
        message = f"line {exc.row + 2}: entity id {exc.entity_id} repeats line {exc.earlier + 2}"
        raise LoadError(f"{path}: {message}") from None


# Per kind of id file: the fewest and most columns a row may have (None: no
# limit), and the message for a row outside them.
ID_FILES = {
    "links": (2, 2, "expected 2 columns"),
    "pairs": (2, None, "expected two id columns"),
    "predictions": (5, None, "expected 5 columns"),
}
DECISION_COLUMN = 4  # of a predictions row: "match" or "non-match"
BAD_ID = "bad entity id"
ID_TEXT = re.compile(r"-?[0-9]+")
# bytes on which np.loadtxt is laxer than the rules: it takes a sign and strips
# whitespace around an int, and strips NULs from the end of a decision
LAX_BYTES = b"+ \t\v\f\x1c\x1d\x1e\x1f\x00"


class IdRows(NamedTuple):
    """The rows of an id file: the first two columns as int64 ids, and for
    predictions whether each row's decision is ``match``."""

    a_ids: np.ndarray
    b_ids: np.ndarray
    matches: np.ndarray | None
    first_line: int  # the line number of row 0: 2 after a header, else 1


def _id_value(text: str) -> int | None:
    """The value of id text (``-?[0-9]+``), or None if it does not fit in int64."""
    digits = text.lstrip("-").lstrip("0") or "0"
    if len(digits) > 19:  # never fits, and int() refuses text of over 4,300 digits
        return None
    value = -int(digits) if text.startswith("-") else int(digits)
    return value if -(2**63) <= value < 2**63 else None


def _parse_line(line: str, kind: str, delimiter: str) -> tuple[int, int, bool] | str:
    """One line of a ``kind`` file: its ids and whether its decision is
    ``match``, or the first of its problems in the rules' order."""
    cells = line.split(delimiter)
    cells[-1] = cells[-1].removesuffix("\r")  # of a CR LF line end
    fewest, most, columns_message = ID_FILES[kind]
    if not fewest <= len(cells) <= (most or len(cells)):
        return columns_message
    if not (ID_TEXT.fullmatch(cells[0]) and ID_TEXT.fullmatch(cells[1])):
        return BAD_ID
    a_id, b_id = map(_id_value, cells[:2])
    if a_id is None or b_id is None:
        return "entity ids must fit in 64 bits"
    decision = cells[DECISION_COLUMN] if kind == "predictions" else "match"
    if decision not in ("match", "non-match"):
        return f"unknown decision {decision!r}"
    return a_id, b_id, decision == "match"


def _strict_rows(path: Path, kind: str, fmt: TextFormat) -> IdRows:
    """Read an id file line by line: the rules of ``read_id_rows``, for any
    file ``_loadtxt_rows`` does not read."""
    raw = path.read_bytes()
    try:
        text = raw.decode(fmt.encoding)
    except UnicodeDecodeError as exc:
        line = raw[:exc.start].count(b"\n") + 1
        raise LoadError(f"{path}: line {line}: not {fmt.encoding} text") from None
    rows, header = [], 0
    lines = text.removesuffix("\n").split("\n") if text else []
    for number, line in enumerate(lines, start=1):
        row = _parse_line(line, kind, fmt.delimiter)
        if row == BAD_ID and number == 1:
            header = 1
        elif isinstance(row, str):
            raise LoadError(f"{path}: line {number}: {row}")
        else:
            rows.append(row)
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    matches = table[:, 2] == 1 if kind == "predictions" else None
    return IdRows(table[:, 0].copy(), table[:, 1].copy(), matches, 1 + header)


def _loadtxt_rows(path: Path, kind: str, fmt: TextFormat) -> IdRows | None:
    """Read an id file with one ``np.loadtxt`` call, or return None when its
    bytes or loadtxt's result leave room for loadtxt to read it otherwise than
    the rules do."""
    data = path.read_bytes()
    if (
        codecs.lookup(fmt.encoding).name not in ("utf-8", "ascii")
        or not data.isascii()
        or any(byte in data for byte in LAX_BYTES.replace(fmt.delimiter.encode(), b""))
        # loadtxt also ends a line at a CR that no LF follows
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    n_lines = data.count(b"\n") + (data[-1:] not in (b"", b"\n"))  # the last LF is optional
    end = data.find(b"\n")
    first_line = data[:end if end >= 0 else None].decode()
    header = int(_parse_line(first_line, kind, fmt.delimiter) == BAD_ID)
    del data  # loadtxt reads the file itself, in pieces
    columns = [("a", "<i8"), ("b", "<i8")] + [("decision", "S10")] * (kind == "predictions")
    # a link has exactly its two columns; a row of the other kinds may have more
    usecols = {"links": None, "pairs": (0, 1), "predictions": (0, 1, DECISION_COLUMN)}[kind]
    with warnings.catch_warnings():
        # a warning, e.g. loadtxt's for a file without data, sends the file to the loop
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                path, dtype=columns, delimiter=fmt.delimiter, comments=None, skiprows=header,
                usecols=usecols, ndmin=1, encoding="ascii",
            )
        # TypeError: a delimiter loadtxt refuses, such as CR or LF
        except (ValueError, TypeError, Warning):
            return None
    if len(table) != n_lines - header:  # loadtxt skipped blank lines
        return None
    matches = None
    if kind == "predictions":
        matches = table["decision"] == b"match"
        if not (matches | (table["decision"] == b"non-match")).all():
            return None
    return IdRows(table["a"].copy(), table["b"].copy(), matches, 1 + header)


def _first_repeat(order: np.ndarray, same: np.ndarray) -> tuple[int, int] | None:
    """(row, earlier row) of the first row that repeats an earlier one, given a
    stable sort ``order`` of the rows and ``same[j]``: sorted rows j, j + 1 are equal."""
    same = np.flatnonzero(same)
    first = same[np.argmin(order[same + 1])] if len(same) else None
    return None if first is None else (int(order[first + 1]), int(order[first]))


def _repeated_pair(a_ids: np.ndarray, b_ids: np.ndarray) -> tuple[int, int] | None:
    """(row, earlier row) of the first row whose (a, b) pair an earlier row has."""
    if len(a_ids) < 2:
        return None
    # one sort of a packed key tells whether any pair repeats; the lexsort
    # finds which, and serves ids too spread out to pack
    low_a, low_b = int(a_ids.min()), int(b_ids.min())
    span_b = int(b_ids.max()) - low_b + 1
    if (int(a_ids.max()) - low_a + 1) * span_b < 2**63:
        key = np.sort((a_ids - low_a) * span_b + (b_ids - low_b))
        if not (key[1:] == key[:-1]).any():
            return None
    order = np.lexsort((b_ids, a_ids))  # stable: equal pairs keep row order
    a_sorted, b_sorted = a_ids[order], b_ids[order]
    return _first_repeat(order, (a_sorted[1:] == a_sorted[:-1]) & (b_sorted[1:] == b_sorted[:-1]))


def read_id_rows(
    path: str | Path, kind: str, fmt: TextFormat = TextFormat(delimiter=",")
) -> IdRows:
    """Read a links, pairs or predictions file (``kind``) whole.

    Each line is a row of ``fmt.delimiter``-separated fields, ended by LF or
    CR LF (or by the end of the file); fields are not quoted. The first two
    fields are ids, ASCII ``-?[0-9]+`` within int64; a predictions row's fifth
    field is ``match`` or ``non-match``. A first line whose ids do not parse is
    a header and is skipped. The first malformed row, then the first row that
    repeats an earlier row's (a, b) pair, raises a LoadError naming the file
    and line.

    A plain ASCII file is read by ``np.loadtxt``; any other, or one loadtxt
    might read more leniently, line by line with the same rules.
    """
    path = Path(path)
    rows = _loadtxt_rows(path, kind, fmt) or _strict_rows(path, kind, fmt)
    a_ids, b_ids, _, first_line = rows
    repeated = _repeated_pair(a_ids, b_ids)
    if repeated is not None:
        row, earlier = repeated
        raise LoadError(
            f"{path}: line {row + first_line}: pair {a_ids[row]},{b_ids[row]} "
            f"repeats line {earlier + first_line}"
        )
    return rows


def load_links(
    path: str | Path, fmt: TextFormat = TextFormat(), provenance: str = "train"
) -> LinkedPairSet:
    """Read a two-column file of (a_entity_id, b_entity_id) pairs with
    ``read_id_rows``; a non-numeric first row is a header and is skipped."""
    rows = read_id_rows(path, "links", fmt)
    return LinkedPairSet(np.column_stack((rows.a_ids, rows.b_ids)), provenance)


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
        writer.writerows(zip(links.a_ids.tolist(), links.b_ids.tolist()))


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
            records_a.take(records_a.rows(np.unique(np.concatenate((a_ids, free_a[k]))))),
            records_b.take(records_b.rows(np.unique(np.concatenate((b_ids, free_b[k]))))),
            LinkedPairSet(np.column_stack((a_ids, b_ids))[by_pair], name),
        ))
    return splits[0], splits[1], splits[2]


@dataclass(frozen=True)
class EvolutionRule:
    """One allowed directed value transition for an attribute."""

    attribute: str
    source: str
    target: str
    probability: float = 1.0


# the synthetic generator's config keys with their JSON types
SYNTH_TYPES = {
    "attributes": "list[str]", "vocabularies": "object", "size_a": "int", "size_b": "int",
    "duplicate_fraction": "float", "blocking_attribute": "str | None",
    "evolution_rules": "list", "typo_probability": "float", "missing_probability": "float",
}
SYNTH_REQUIRED = ("attributes", "vocabularies", "size_a", "size_b", "duplicate_fraction")
VOCAB_TYPES = {"prefix": "str", "count": "int"}  # both required
RULE_TYPES = {"attribute": "str", "from": "str", "to": "str", "probability": "float"}


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
        self.to_schema()  # the blocking attribute must be one of the attributes
        if not 0.0 <= self.typo_probability <= 1.0:
            raise ConfigError("typo_probability: must be in [0, 1]")
        if not 0.0 <= self.missing_probability <= 1.0:
            raise ConfigError("missing_probability: must be in [0, 1]")

    def to_schema(self) -> Schema:
        return Schema.named(self.attributes, self.blocking_attribute)

    @classmethod
    def from_dict(cls, raw, where: str = "") -> "SynthConfig":
        """A config from parsed JSON; any malformed value raises ConfigError
        naming ``where`` and its key."""
        raw = read_object(raw, where, SYNTH_TYPES, SYNTH_REQUIRED)
        prefix = f"{where}." if where else ""
        vocabularies = {}
        for name, entry in raw["vocabularies"].items():
            where_entry = f"{prefix}vocabularies.{name}"
            if isinstance(entry, Mapping):
                entry = read_object(entry, where_entry, VOCAB_TYPES, VOCAB_TYPES)
                entry = [f"{entry['prefix']}{i:03d}" for i in range(entry["count"])]
            elif not json_fits(entry, "list[str]"):
                raise ConfigError(f"{where_entry}: expected list[str] or object, got {entry!r}")
            vocabularies[name] = tuple(entry)
        rules = []
        for i, rule in enumerate(raw.get("evolution_rules", ())):
            where_rule = f"{prefix}evolution_rules.{i}"
            if not json_fits(rule, "object"):  # a list element reads as a value typed "object"
                raise ConfigError(f"{where_rule}: expected object, got {rule!r}")
            rule = read_object(rule, where_rule, RULE_TYPES, ("attribute", "from", "to"))
            rules.append(EvolutionRule(
                rule["attribute"], rule["from"], rule["to"], float(rule.get("probability", 1.0))
            ))
        return build(cls, where, **{
            **raw,
            "attributes": tuple(raw["attributes"]),
            "vocabularies": vocabularies,
            "evolution_rules": tuple(rules),
        })

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        return cls.from_dict(read_json(path))


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

    # B rows (-1 = missing): first the duplicates of dup_sources, then fresh draws
    b_rows: list[list[int]] = []
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
        b_rows.append(values)

    for _ in range(config.size_b - n_dup):
        b_rows.append(draw_values())

    b_order = rng.permutation(len(b_rows))
    # B row i takes the id at its place in b_order; dup_sources ascends, so the links do
    dup_b_ids = config.size_a + np.argsort(b_order)[:n_dup]
    b_ids = range(config.size_a, config.size_a + config.size_b)
    return Split(
        RecordSet.from_columns(schema, dictionary, range(config.size_a), a_rows),
        RecordSet.from_columns(schema, dictionary, b_ids, np.array(b_rows)[b_order]),
        LinkedPairSet(np.column_stack((dup_sources, dup_b_ids)), "generated"),
    )
