"""The id files (links, pairs and predictions) and the text format they
share with the records file.

An id file holds rows of two entity ids; a predictions row also holds its
decision. ``read_id_rows`` reads all three kinds, ``write_predictions``
writes the predictions file, header and rows, and ``id_ranks`` looks ids
up in a sorted set. Of the package this module imports only ``errors``, so
``evaluate`` runs on it and ``candidates`` alone.
"""

from __future__ import annotations

import csv
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, LoadError

if TYPE_CHECKING:
    from .candidates import Candidates
    from .ingest import RecordSet

DEFAULT_NULL_MARKERS = ("", "illegible", "NA")
# the encoding of every records and id file, read or written
ENCODING = "utf-8"


def standardize(text: str) -> str:
    """Trim, collapse internal whitespace, and case-fold. Idempotent."""
    return " ".join(text.split()).casefold()


@dataclass(frozen=True)
class TextFormat:
    """The settable layout of delimited text files: the delimiter, and the
    cells that mark a missing value. The encoding is always ``ENCODING``."""

    delimiter: str = ";"
    null_markers: tuple[str, ...] = DEFAULT_NULL_MARKERS

    def __post_init__(self):
        # a line end would split every row, so no file could match its header
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ConfigError(
                f"delimiter: must be one character other than CR or LF, got {self.delimiter!r}"
            )

    @cached_property
    def standardized_nulls(self) -> frozenset[str]:
        return frozenset(standardize(m) for m in self.null_markers)


# the CLI's comma format: the id files' default, and that of the records
# files ``predict`` reads
CSV_FORMAT = TextFormat(delimiter=",")


# A direct table over a range of keys is used while it has at most this many
# slots per key it serves; past that, sorting or searching the keys is cheaper.
TABLE_SLOTS_PER_KEY = 4


def dense_table(size: int, n_keys: int) -> bool:
    """Whether a table of ``size`` slots costs no more than sorting ``n_keys`` keys."""
    return size <= TABLE_SLOTS_PER_KEY * n_keys


# Row indices below this many rows fit in int32, half the bytes of int64
INT32_ROWS = 1 << 31


def row_dtype(n: int) -> type[np.signedinteger]:
    """The dtype of indices into ``n`` rows, or of positions among ``n``
    pairs: int32 below 2^31, int64 from there on. Every maker of row arrays
    (blocking, ``RecordSet.find``) takes its dtype from here; a key that
    multiplies rows widens them to int64 first."""
    return np.int32 if n < INT32_ROWS else np.int64


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
    if dense_table(span, len(ids)):
        table = np.zeros(span, dtype=np.int64)
        table[known - low] = np.arange(len(known))
        offset = ids - low  # wraps out of [0, span) for ids far outside it
        inside = (offset >= 0) & (offset < span)
        pos = table[np.where(inside, offset, 0)]
        return pos, inside & (known[pos] == ids)
    pos = np.minimum(np.searchsorted(known, ids), len(known) - 1)
    return pos, known[pos] == ids


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d int array ``keys``, ascending: a plain
    ``np.unique``'s result, without the ``numpy.ma`` import that it costs
    each process on numpy 2."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


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


def _text(raw: bytes, path: Path) -> str:
    """The bytes of the file at ``path`` as text, less a leading byte-order
    mark (U+FEFF), which is not data; bytes that are not ``ENCODING`` text
    raise a LoadError naming their line."""
    try:
        return raw.decode(ENCODING).removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        raise LoadError(f"{path}: line {line}: not {ENCODING} text") from None


# The header of a predictions file, and a row's decision, indexed by whether
# the pair is a match.
PREDICTION_COLUMNS = ("a_id", "b_id", "g", "P", "decision")
DECISIONS = ("non-match", "match")
DECISION_COLUMN = PREDICTION_COLUMNS.index("decision")
# One predictions row: ids, then g and P at full precision (repr), then the decision.
PREDICTION_ROW = "%d,%d,%r,%r,%s\n"
# a row's last field, with the comma before it, indexed by its decision
DECISION_TEXT = np.array([f",{decision}\n".encode() for decision in DECISIONS])
# Per kind of id file: the fewest and most columns a row may have (None: no
# limit), and the message for a row outside them.
ID_FILES = {
    "links": (2, 2, "expected 2 columns"),
    "pairs": (2, None, "expected two id columns"),
    "predictions": (len(PREDICTION_COLUMNS), None, f"expected {len(PREDICTION_COLUMNS)} columns"),
}
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
    decision = cells[DECISION_COLUMN] if kind == "predictions" else DECISIONS[True]
    if decision not in DECISIONS:
        return f"unknown decision {decision!r}"
    return a_id, b_id, decision == DECISIONS[True]


def _strict_rows(path: Path, kind: str, fmt: TextFormat) -> IdRows:
    """Read an id file line by line: the rules of ``read_id_rows``, for any
    file ``_loadtxt_rows`` does not read."""
    text = _text(path.read_bytes(), path)
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
        not data.isascii()
        # loadtxt also ends a line at a CR that no LF follows
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    n_lines = data.count(b"\n") + (data[-1:] not in (b"", b"\n"))  # the last LF is optional
    end = data.find(b"\n")
    first_line = data[:end if end >= 0 else None].decode()
    header = int(_parse_line(first_line, kind, fmt.delimiter) == BAD_ID)
    # loadtxt skips a header unread, so only the rows' bytes need to be plain
    rows_start = end + 1 if header else 0
    lax = LAX_BYTES.replace(fmt.delimiter.encode(), b"")
    if any(data.find(byte, rows_start) >= 0 for byte in lax):
        return None
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
        except (ValueError, Warning):
            return None
    if len(table) != n_lines - header:  # loadtxt skipped blank lines
        return None
    matches = None
    if kind == "predictions":
        matches = table["decision"] == DECISIONS[True].encode()
        if not (matches | (table["decision"] == DECISIONS[False].encode())).all():
            return None
    return IdRows(table["a"].copy(), table["b"].copy(), matches, 1 + header)


def read_id_rows(path: str | Path, kind: str, fmt: TextFormat = CSV_FORMAT) -> IdRows:
    """Read a links, pairs or predictions file (``kind``) whole.

    Each line is a row of ``fmt.delimiter``-separated fields, ended by LF or
    CR LF (or by the end of the file); fields are not quoted. The first two
    fields are ids, ASCII ``-?[0-9]+`` within int64; a predictions row's fifth
    field is one of ``DECISIONS``. A first line whose ids do not parse is
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
    path: str | Path, fmt: TextFormat = CSV_FORMAT, provenance: str = "train"
) -> LinkedPairSet:
    """Read a two-column file of (a_entity_id, b_entity_id) pairs with
    ``read_id_rows``, comma-separated by default as ``write_links_csv``
    writes them; a non-numeric first row is a header and is skipped."""
    rows = read_id_rows(path, "links", fmt)
    return LinkedPairSet(np.column_stack((rows.a_ids, rows.b_ids)), provenance)


@contextmanager
def whole_file(path: str | Path, mode: str = "w", **open_args) -> Iterator[IO]:
    """A file opened with ``mode`` beside ``path``, as ``.<name>.<pid>.partial``,
    and renamed over ``path`` once the block ends: ``path`` is never a prefix
    of what is written. If the block raises, the partial file is removed, so
    ``path`` keeps what it held, or stays absent. The partial files of
    ``path`` that writers no longer running left, killed before they could
    remove theirs, are removed first."""
    path = Path(path)
    _remove_stale_partials(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, mode, **open_args) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _remove_stale_partials(path: Path) -> None:
    """Remove each ``.<name>.<pid>.partial`` beside ``path`` whose pid is not
    a running process; a running writer's partial file stays. Only on
    POSIX: elsewhere ``os.kill(pid, 0)`` does not test a pid."""
    prefix, suffix = f".{path.name}.", ".partial"
    try:
        names = os.listdir(path.parent) if os.name == "posix" else []
    except OSError:  # opening the partial file reports it
        return
    for name in names:
        pid = name[len(prefix) : -len(suffix)]
        if name.startswith(prefix) and name.endswith(suffix) and re.fullmatch("[0-9]+", pid):
            try:
                os.kill(int(pid), 0)  # signal 0 sends nothing; it tests the pid
            except (ProcessLookupError, OverflowError):  # no such process; beyond any pid
                (path.parent / name).unlink(missing_ok=True)
            except PermissionError:  # another user's process
                pass


def _id_text(records: RecordSet) -> np.ndarray:
    """Each record's "<id>," as a NUL-padded ``S`` array."""
    return np.array([b"%d," % i for i in records.id_array.tolist()], dtype=np.bytes_)


def _byte_columns(text: np.ndarray) -> np.ndarray:
    """An ``S`` array as a (rows, itemsize) uint8 matrix."""
    return text.view(np.uint8).reshape(len(text), text.dtype.itemsize)


def write_predictions(
    fh, chunks: Iterable[Candidates], records_a: RecordSet, records_b: RecordSet, tau: float
) -> None:
    """Write the predictions file to the binary file ``fh``: the
    ``PREDICTION_COLUMNS`` header, then each scored chunk, one
    ``PREDICTION_ROW`` line per pair.

    Each chunk is laid into one byte matrix, a column block per field: the
    ids, each record's formatted once as "<id>," and gathered by the pairs'
    row arrays; g and P as ``floattext.repr_rows`` renders them; the
    decision with its comma and newline. The fields' NUL padding is dropped
    from the matrix's bytes in one ``bytes.translate``. No field ever needs
    quoting, so these are the bytes csv.writer would write. The matrix is
    made once, for the first chunk, and reused: a chunk then allocates only
    its rendering's temporaries, few enough that glibc's heap keeps and
    reuses their pages instead of returning and refaulting them every chunk.
    """
    from .candidates import classify
    from .floattext import WIDTH, repr_rows

    fh.write(",".join(PREDICTION_COLUMNS).encode() + b"\n")
    a_text, b_text = _id_text(records_a), _id_text(records_b)
    widths = (a_text.dtype.itemsize, b_text.dtype.itemsize, WIDTH, 1, WIDTH,
              DECISION_TEXT.dtype.itemsize)
    a_ids, b_ids, g, comma, p, decision = (
        slice(end - width, end) for width, end in zip(widths, np.cumsum(widths).tolist())
    )
    matrix = np.empty((0, sum(widths)), dtype=np.uint8)
    for scored in chunks:
        if len(scored) > len(matrix):
            matrix = np.empty((len(scored), sum(widths)), dtype=np.uint8)
            matrix[:, comma] = ord(",")
        rows = matrix[: len(scored)]
        rows[:, a_ids] = _byte_columns(a_text[scored.a])
        rows[:, b_ids] = _byte_columns(b_text[scored.b])
        rows[:, g] = repr_rows(scored.score)
        rows[:, p] = repr_rows(scored.probability)
        rows[:, decision] = _byte_columns(
            DECISION_TEXT[classify(scored.probability, tau).view(np.uint8)]
        )
        fh.write(rows.tobytes().translate(None, b"\0"))


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header``, then ``rows``, as ``ENCODING`` CSV with LF line ends,
    whole or not at all (``whole_file``)."""
    with whole_file(path, newline="\n", encoding=ENCODING) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_links_csv(links: LinkedPairSet, path: str | Path) -> None:
    """Write links as CSV with an ``a_id,b_id`` header row."""
    write_csv(path, ["a_id", "b_id"], zip(links.a_ids.tolist(), links.b_ids.tolist()))
