"""The links, pairs and predictions CSVs: one reader, checked against the
per-row ``csv.reader`` loops it replaced, its ``np.loadtxt`` path against its
line loop, and through the CLI."""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from evolink import idfiles
from evolink.candidates import truth_labels
from evolink.cli import main
from evolink.errors import LoadError
from evolink.idfiles import LinkedPairSet, TextFormat, load_links, read_id_rows

SYNTH = {
    "attributes": ["given_name", "surname2", "status"],
    "blocking_attribute": "surname2",
    "vocabularies": {
        "given_name": {"prefix": "gn", "count": 30},
        "surname2": {"prefix": "fam", "count": 6},
        "status": ["single", "married"],
    },
    "size_a": 40,
    "size_b": 40,
    "duplicate_fraction": 0.5,
    "evolution_rules": [{"attribute": "status", "from": "single", "to": "married"}],
}
EXPERIMENT = {
    "source": {"kind": "files", "attributes": SYNTH["attributes"], "blocking_attribute": "surname2"},
    "ratios": [0.6, 0.2, 0.2],
    "embed": {"dim": 4, "epochs": 5, "batch_size": 16},
    "rl": {"epochs": 5},
    "seed": 3,
}
ID_KINDS = ("links", "pairs", "predictions")
HEADERS = {"links": "a_id,b_id", "pairs": "a_id,b_id", "predictions": "a_id,b_id,g,P,decision"}
COLUMNS_MESSAGE = {
    "links": "expected 2 columns", "pairs": "expected two id columns", "predictions": "expected 5 columns",
}
ID = st.integers(-(2**63), 2**63 - 1)
CELL = st.text(alphabet="0123456789.-+eEnaif", max_size=8)  # g, P and extra columns
# one cell of text from outside: no delimiter or line break, and not an id
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\r\n"), max_size=6)
NOT_AN_ID = st.one_of(
    TEXT.filter(lambda t: not re.fullmatch(r"-?[0-9]+", t)),
    st.sampled_from(["+5", " 5", "5 ", "5_0", '"5"', "1.0", "-", "", "٣", "５", "0x5", "\x1c5", "5\x00"]),
)
TOO_BIG = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1)).map(str)


# -- the loops the reader replaced, kept as its oracle ---------------------
class OracleError(Exception):
    pass


def oracle_links(path):
    pairs = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if len(row) != 2:
                raise OracleError(lineno)
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError:
                if lineno == 1:
                    continue
                raise OracleError(lineno) from None
    return pairs, None


def oracle_pairs(path):
    pairs = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if len(row) < 2:
                raise OracleError(lineno)
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError:
                if lineno == 1:
                    continue
                raise OracleError(lineno) from None
    return pairs, None


def oracle_predictions(path):
    pairs, decisions = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if lineno == 1 and row and row[0] == "a_id":
                continue
            if len(row) < 5:
                raise OracleError(lineno)
            try:
                pairs.append((int(row[0]), int(row[1])))
            except ValueError:
                raise OracleError(lineno) from None
            if row[4] not in ("match", "non-match"):
                raise OracleError(lineno)
            decisions.append(row[4] == "match")
    return pairs, decisions


ORACLES = {"links": oracle_links, "pairs": oracle_pairs, "predictions": oracle_predictions}


# -- well-formed files ---------------------------------------------------------
@st.composite
def rows_of(draw, kind, pairs=st.lists(st.tuples(ID, ID), unique=True, max_size=12)):
    """The cells of each row of a well-formed ``kind`` file."""
    extra = {"links": 0, "pairs": draw(st.integers(0, 2)), "predictions": draw(st.integers(0, 1))}[kind]
    rows = []
    for a, b in draw(pairs):
        cells = [str(a), str(b)]
        if kind == "predictions":
            cells += [draw(CELL), draw(CELL), draw(st.sampled_from(["match", "non-match"]))]
        rows.append(cells + [draw(CELL) for _ in range(extra)])
    return rows


@st.composite
def layouts(draw, header=st.booleans()):
    """Whether there is a header, the line end, and whether the last line has one."""
    return draw(header), draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans())


def file_text(kind, rows, layout):
    header, newline, final = layout
    lines = ([HEADERS[kind]] if header else []) + [",".join(cells) for cells in rows]
    return newline.join(lines) + (newline if final and lines else "")


def write(directory, name, text):
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return path


def run_cli(argv):
    """Exit status and stderr of ``evolink argv``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("kind", ID_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_equals_the_csv_loops_on_well_formed_files(kind, data):
    rows = data.draw(rows_of(kind))
    layout = data.draw(layouts())
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "ids.csv", file_text(kind, rows, layout))
        pairs, decisions = ORACLES[kind](path)
        got = read_id_rows(path, kind)
    assert list(zip(got.a_ids.tolist(), got.b_ids.tolist())) == pairs
    assert got.a_ids.dtype == got.b_ids.dtype == np.int64
    assert got.first_line == 1 + layout[0]
    if kind == "predictions":
        assert got.matches.tolist() == decisions
    else:
        assert got.matches is None


# -- one corrupt cell or line ------------------------------------------------
@st.composite
def corruptions(draw, kind):
    """A well-formed file with a header, one data line of it broken, the
    broken line's number, and the message expected after ``line N: ``."""
    rows = draw(rows_of(kind, pairs=st.lists(
        st.tuples(st.integers(0, 39), st.integers(40, 79)), unique=True, min_size=1, max_size=8,
    )))
    r = draw(st.integers(0, len(rows) - 1))
    how = draw(st.sampled_from(
        ["id", "too big", "few columns", "blank"]
        + (["decision"] if kind == "predictions" else [])
        + (["many columns"] if kind == "links" else [])
        + (["repeat"] if r else [])
    ))
    cells = list(rows[r])
    if how in ("id", "too big"):
        cells[draw(st.integers(0, 1))] = draw(NOT_AN_ID if how == "id" else TOO_BIG)
        expected = "bad entity id" if how == "id" else "entity ids must fit in 64 bits"
    elif how == "decision":
        cells[4] = draw(TEXT.filter(lambda t: t not in ("match", "non-match")))
        expected = f"unknown decision {cells[4]!r}"
    elif how == "few columns":
        cells = cells[:draw(st.integers(1, 4 if kind == "predictions" else 1))]
        expected = COLUMNS_MESSAGE[kind]
    elif how == "many columns":
        cells.append(draw(CELL))
        expected = COLUMNS_MESSAGE[kind]
    elif how == "blank":
        cells = [""]
        expected = COLUMNS_MESSAGE[kind]
    else:
        earlier = draw(st.integers(0, r - 1))
        cells = list(rows[earlier])
        expected = f"pair {cells[0]},{cells[1]} repeats line {earlier + 2}"
    rows[r] = cells
    _, newline, final = draw(layouts())
    final |= how == "blank" and r == len(rows) - 1  # else the blank line is no line
    return file_text(kind, rows, (True, newline, final)), r + 2, expected


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """A generated data directory with a model trained on it."""
    root = tmp_path_factory.mktemp("ids")
    (root / "synth.json").write_text(json.dumps(SYNTH), encoding="utf-8")
    (root / "experiment.json").write_text(json.dumps(EXPERIMENT), encoding="utf-8")
    assert main(["generate", "--config", str(root / "synth.json"), "--seed", "1",
                 "--out", str(root / "data")]) == 0
    assert main(["train", str(root / "data"), "--config", str(root / "experiment.json"),
                 "--out", str(root / "run")]) == 0
    return root


def predict_pairs(model_dir, pairs_path, out):
    data = model_dir / "data"
    return run_cli(["predict", "--model", model_dir / "run" / "model.bin",
                    data / "A.csv", data / "B.csv", "--pairs", pairs_path, "--out", out])


PREDICTION = "0,40,0.0,0.5,match\n"
TRUTH = "a_id,b_id\n0,40\n"


@settings(max_examples=100, deadline=None)
@given(corruptions("predictions"))
def test_corrupt_predictions_line_exits_2_naming_it(case):
    text, line, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        pred = write(tmp, "preds.csv", text)
        code, err = run_cli(["evaluate", pred, write(tmp, "truth.csv", TRUTH)])
    assert code == 2
    assert f"error: {pred}: line {line}: {expected}\n" == err


@settings(max_examples=100, deadline=None)
@given(corruptions("links"))
def test_corrupt_truth_line_exits_2_naming_it(case):
    text, line, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        truth = write(tmp, "truth.csv", text)
        code, err = run_cli(["evaluate", write(tmp, "preds.csv", PREDICTION), truth])
    assert code == 2
    assert f"error: {truth}: line {line}: {expected}\n" == err


@settings(max_examples=60, deadline=None)
@given(case=corruptions("pairs"))
def test_corrupt_pairs_line_exits_2_naming_it(model_dir, case):
    text, line, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        pairs = write(tmp, "pairs.csv", text)
        code, err = predict_pairs(model_dir, pairs, Path(tmp) / "out.csv")
    assert code == 2
    assert f"error: {pairs}: line {line}: {expected}\n" == err


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predict_scores_the_pairs_the_csv_loop_reads(model_dir, data):
    rows = data.draw(rows_of("pairs", pairs=st.lists(
        st.tuples(st.integers(0, 39), st.integers(40, 79)), unique=True, max_size=10,
    )))
    with tempfile.TemporaryDirectory() as tmp:
        pairs = write(tmp, "pairs.csv", file_text("pairs", rows, data.draw(layouts())))
        out = Path(tmp) / "out.csv"
        assert predict_pairs(model_dir, pairs, out) == (0, "")
        with open(out, newline="", encoding="utf-8") as fh:
            scored = [(int(r[0]), int(r[1])) for r in list(csv.reader(fh))[1:]]
        assert scored == oracle_pairs(pairs)[0]


# -- the loadtxt path against the line loop --------------------------------------
# digits, the delimiter, the letters of the decisions, and what np.loadtxt is
# laxer about than the rules: signs, whitespace, NULs and line ends
ADVERSARIAL = "0123456789-+ \t\v\r\n\x00\xa0,matchno"


@st.composite
def adversarial_files(draw, kind):
    """A ``kind`` file with or without a header, with up to three runs of
    adversarial characters put in anywhere."""
    text = file_text(kind, draw(rows_of(kind)), draw(layouts()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(ADVERSARIAL, min_size=1, max_size=3)) + text[at:]
    return text


def outcome(path, kind):
    """The rows ``read_id_rows`` reads, or its LoadError's text."""
    try:
        got = read_id_rows(path, kind)
    except LoadError as exc:
        return str(exc)
    matches = None if got.matches is None else got.matches.tolist()
    ids = got.a_ids.tolist(), got.b_ids.tolist(), got.a_ids.dtype, got.b_ids.dtype
    return ids, matches, got.first_line


@pytest.mark.parametrize("kind", ID_KINDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loadtxt_path_equals_the_line_loop(kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "ids.csv", data.draw(adversarial_files(kind)))
        fast = idfiles._loadtxt_rows(path, kind, TextFormat(delimiter=","))
        event("line loop" if fast is None else "loadtxt path")
        got = outcome(path, kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(idfiles, "_loadtxt_rows", lambda *args: None)
            assert outcome(path, kind) == got


@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("layout", [(True, "\n", True), (False, "\r\n", False)])
def test_plain_ascii_files_take_the_loadtxt_path(tmp_path, kind, layout):
    """The line loop is about ten times slower: files as evolink writes them stay off it."""
    ids = [["-9223372036854775808", "9223372036854775807"], ["0", "00042"]]
    rest = {
        "links": [[], []],
        "pairs": [["x"], []],
        "predictions": [["-7.368213968170393", "1e-05", "match", "x"],
                        ["-0.5", "0.0006305962463817614", "non-match"]],
    }[kind]
    rows = [a + b for a, b in zip(ids, rest)]
    path = write(tmp_path, "ids.csv", file_text(kind, rows, layout))
    got = idfiles._loadtxt_rows(path, kind, TextFormat(delimiter=","))
    assert got is not None
    assert (got.a_ids.tolist(), got.b_ids.tolist()) == ([-(2**63), 0], [2**63 - 1, 42])


@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("lax", list(idfiles.LAX_BYTES.decode()))
def test_a_header_with_lax_bytes_takes_the_loadtxt_path(tmp_path, kind, lax):
    """loadtxt skips the header unread: only the rows' bytes must be plain."""
    header = HEADERS[kind].replace("_", lax)  # e.g. "a id,b id"
    rows = {"links": ["1,2", "-3,4"], "pairs": ["1,2,x", "-3,4"],
            "predictions": ["1,2,-1.5,0.25,match", "-3,4,nan,0.0,non-match"]}[kind]
    path = write(tmp_path, "ids.csv", "\n".join([header, *rows]) + "\n")
    fast = idfiles._loadtxt_rows(path, kind, TextFormat(delimiter=","))
    assert fast is not None
    slow = idfiles._strict_rows(path, kind, TextFormat(delimiter=","))
    assert fast.first_line == slow.first_line == 2
    for got, expected in zip(fast[:3], slow[:3]):
        assert np.array_equal(got, expected)
        assert got is None or got.dtype == expected.dtype


# -- examples --------------------------------------------------------------------
@pytest.mark.parametrize("kind", ID_KINDS)
@pytest.mark.parametrize("end", [None, "", "\n", "\r\n", "\r"])  # None: an empty file
def test_empty_and_header_only_files_have_no_rows(tmp_path, kind, end):
    text = "" if end is None else HEADERS[kind] + end
    got = read_id_rows(write(tmp_path, "ids.csv", text), kind)
    assert len(got.a_ids) == len(got.b_ids) == 0


def test_extreme_and_zero_padded_ids(tmp_path):
    path = write(tmp_path, "links.csv", (
        "-9223372036854775808,9223372036854775807\r\n"
        "-0,0000000000000000000000000000042\r\n"
        "-000000000000000000000000000000000000000000000000000001,1"
    ))
    got = read_id_rows(path, "links")
    assert got.a_ids.tolist() == [-(2**63), 0, -1]
    assert got.b_ids.tolist() == [2**63 - 1, 42, 1]
    assert got.first_line == 1


@pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809",
                                  "99999999999999999999", "000000000000000000000018446744073709551616",
                                  pytest.param("9" * 5000, id="5000-digits")])
def test_ids_outside_int64_name_the_line(tmp_path, cell):
    path = write(tmp_path, "links.csv", f"a_id,b_id\n1,2\n{cell},3\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: line 3: entity ids must fit in 64 bits$"):
        read_id_rows(path, "links")


@pytest.mark.parametrize("cell, value", [
    ("+5", 5), (" 5", 5), ("5 ", 5), ("5_0", 50), ('"5"', 5), ("５", 5),
    ("\t5", 5), ("\v5", 5), ("\f5", 5), ("\xa05", 5), ("5\u2003", 5),
])
def test_ids_that_int_accepted_are_now_refused(tmp_path, cell, value):
    path = write(tmp_path, "links.csv", f"a_id,b_id\n1,2\n{cell},3\n")
    assert oracle_links(path)[0] == [(1, 2), (value, 3)]
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: line 3: bad entity id$"):
        read_id_rows(path, "links")


@pytest.mark.parametrize("text, expected", [
    ("1,2\n\n3,4\n", "line 2: expected 2 columns"),  # loadtxt skips blank lines
    ("1,2\r\n\r\n3,4\r\n", "line 2: expected 2 columns"),
    ("a_id,b_id\n\n", "line 2: expected 2 columns"),  # and warns of a body without data
    ("1,2\r3,4\n", "line 1: expected 2 columns"),  # it ends a line at a bare CR
    ("a_id,b_id\n1,2\r\r\n", "line 2: bad entity id"),
    ("1,2\n3,4\r", ([1, 3], [2, 4])),  # a CR ending the file goes, as one before an LF
])
def test_lines_that_loadtxt_reads_otherwise_keep_the_rules(tmp_path, text, expected):
    path = write(tmp_path, "links.csv", text)
    if isinstance(expected, str):
        with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: {expected}$"):
            read_id_rows(path, "links")
    else:
        got = read_id_rows(path, "links")
        assert (got.a_ids.tolist(), got.b_ids.tolist()) == expected


def test_a_predictions_header_need_not_start_with_a_id(tmp_path):
    path = write(tmp_path, "preds.csv", "left,right,g,P,decision\n1,2,0,0.5,match\n")
    got = read_id_rows(path, "predictions")
    assert (got.a_ids.tolist(), got.matches.tolist(), got.first_line) == ([1], [True], 2)


@pytest.mark.parametrize("decision", [
    "xon-match", "Non-match", "non-matcH", "non_match", "nonmatch", "non-match ", " match",
    "matchx", "atch", "mat", "natch", "on-match", "no-match", "non-non-match",
    "match\x00", "non-match\x00", "\x00match", "match\r", "non-matchxy",
])
def test_near_miss_decisions_are_unknown(tmp_path, decision):
    path = write(tmp_path, "preds.csv", f"1,2,0,0.5,match\r\n3,4,0,0.5,{decision}\r\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: line 2: unknown decision "):
        read_id_rows(path, "predictions")


def test_only_the_first_line_can_be_a_header(tmp_path):
    path = write(tmp_path, "pairs.csv", "a_id,b_id\na_id,b_id\n")
    with pytest.raises(LoadError, match="line 2: bad entity id"):
        read_id_rows(path, "pairs")


def test_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "links.csv"
    path.write_bytes(b"a_id,b_id\n1,2\n3,\xff4\n")
    with pytest.raises(LoadError, match="links.csv: line 3: not utf-8 text"):
        load_links(path, TextFormat(delimiter=","))


def test_multibyte_delimiter_and_other_encoding(tmp_path):
    path = tmp_path / "links.csv"
    path.write_bytes("a_id☃b_id\n1☃2\n".encode("utf-8"))
    assert load_links(path, TextFormat(delimiter="☃")).pairs == ((1, 2),)
    # files are UTF-8: one in another encoding is refused, not read
    path.write_bytes("a_id§b_id\n1§2\n-3§4".encode("latin-1"))
    with pytest.raises(LoadError, match="links.csv: line 1: not utf-8 text"):
        load_links(path, TextFormat(delimiter="§"))


@pytest.mark.parametrize("earlier", [None, b"a_id,b_id\n1,2\n"])
def test_failed_write_csv_leaves_the_path_whole_or_absent(tmp_path, earlier):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / "links.csv"
    if earlier is not None:
        path.write_bytes(earlier)

    def rows():  # enough rows that the buffer reaches the file before the failure
        yield from ([i, i + 1] for i in range(20_000))
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space left on device"):
        idfiles.write_csv(path, ["a_id", "b_id"], rows())
    assert list(out_dir.iterdir()) == ([] if earlier is None else [path])
    if earlier is not None:
        assert path.read_bytes() == earlier

    idfiles.write_csv(path, ["a_id", "b_id"], [[3, 4]])
    assert list(out_dir.iterdir()) == [path]
    assert path.read_bytes() == b"a_id,b_id\n3,4\n"


def test_repeated_link_names_both_lines(tmp_path):
    path = write(tmp_path, "links.csv", "a_id,b_id\n0,10\n1,11\n0,10\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: line 4: pair 0,10 repeats line 2$"):
        load_links(path, TextFormat(delimiter=","))


def test_predict_refuses_repeated_pairs(model_dir, tmp_path):
    pairs = write(tmp_path, "pairs.csv", "a_id,b_id\n0,40\n0,40\n")
    code, err = predict_pairs(model_dir, pairs, tmp_path / "out.csv")
    assert code == 2
    assert f"{pairs}: line 3: pair 0,40 repeats line 2" in err


@pytest.mark.parametrize("row", ["999999,40", "0,999999", "999999,999999"])
def test_predict_names_the_line_of_an_unknown_id(model_dir, tmp_path, row):
    pairs = write(tmp_path, "pairs.csv", f"a_id,b_id\n0,40\n1,41\n{row}\n2,999998\n")
    code, err = predict_pairs(model_dir, pairs, tmp_path / "out.csv")
    assert code == 2
    assert f"{pairs}: line 4: unknown entity id 999999" in err


FAR = st.sampled_from([-(2**63), 2**63 - 1])  # ids whose offset from the truth's wraps


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 40)), unique=True, max_size=30),
    st.lists(st.tuples(st.integers(0, 40) | FAR, st.integers(-3, 40) | FAR), max_size=60),
    st.sampled_from([0, 2**40, -(2**63), 2**63 - 100]),
)
def test_truth_labels_equal_set_membership(truth, pairs, shift):
    """Dense and sparse ids: the direct table and the binary search."""
    def shifted(a):
        return a + shift if 0 <= a <= 40 else a

    truth = [(shifted(a), b) for a, b in truth]
    pairs = [(shifted(a), b) for a, b in pairs]
    a_ids = np.array([a for a, _ in pairs], dtype=np.int64)
    b_ids = np.array([b for _, b in pairs], dtype=np.int64)
    labels, lost, shared = truth_labels(a_ids, b_ids, LinkedPairSet(tuple(truth)))
    assert labels.tolist() == [p in set(truth) for p in pairs]
    assert lost == len(set(truth) - set(pairs))
    assert shared == any(
        a in {t[0] for t in truth} or b in {t[1] for t in truth} for a, b in pairs
    )
