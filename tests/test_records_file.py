"""Property tests at the records-CSV boundary: one bad line in a valid file.

A records file that is valid but for one line (a wrong column count, an id
that is not an integer, or an id an earlier line holds) makes ``load_records``
raise a LoadError that names the file and that line, and makes CLI ``train``
exit 2 with the same message.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink.cli import main
from evolink.errors import LoadError
from evolink.ingest import Schema, TextFormat, load_records

ATTRIBUTES = ("given_name", "surname2", "status")
SCHEMA = Schema(ATTRIBUTES)
CSV = TextFormat(delimiter=",")
CELL = st.text(alphabet="abz XY-.", max_size=6)  # no delimiter, quote or line end


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


NOT_AN_ID = st.text(alphabet="12ab._ +-x", max_size=5).filter(lambda t: not _is_int(t))


@st.composite
def one_bad_line(draw):
    """(valid file text, file text with one bad line, the bad line's number,
    the message that names it)."""
    n_rows = draw(st.integers(2, 8))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n_rows, max_size=n_rows, unique=True))
    id_col = draw(st.integers(0, len(ATTRIBUTES)))
    header = list(ATTRIBUTES)
    header.insert(id_col, "entity_id")
    rows = []
    for entity_id in ids:
        row = [draw(CELL) for _ in ATTRIBUTES]
        row.insert(id_col, str(entity_id))
        rows.append(row)

    k = draw(st.integers(0, n_rows - 1))  # the row made bad, on line k + 2
    kind = draw(st.sampled_from(["columns", "id", "repeat"]))
    if kind == "repeat" and k == 0:
        k = 1
    bad = list(rows[k])
    if kind == "columns":
        change = draw(st.sampled_from(["extra", "missing", "blank"]))
        bad = {"extra": bad + ["x"], "missing": bad[:-1], "blank": []}[change]
        message = f"expected {len(header)} columns, got {len(bad)}"
    elif kind == "id":
        bad[id_col] = draw(NOT_AN_ID)
        message = f"bad entity id {bad[id_col]!r}"
    else:
        earlier = draw(st.integers(0, k - 1))
        bad[id_col] = str(ids[earlier])
        message = f"entity id {ids[earlier]} repeats line {earlier + 2}"

    def text(lines):
        return "".join(",".join(line) + "\n" for line in [header, *lines])

    return text(rows), text(rows[:k] + [bad] + rows[k + 1:]), k + 2, message


EXPERIMENT = {
    "source": {"kind": "files", "attributes": list(ATTRIBUTES)},
    "embed": {"dim": 4, "epochs": 1},
    "rl": {"epochs": 1},
}


@settings(max_examples=60, deadline=None)
@given(case=one_bad_line(), side=st.sampled_from(["A.csv", "B.csv"]))
def test_one_bad_line_is_named_by_load_records_and_train(case, side):
    valid, broken, line, message = case
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp)
        good, bad = data / "good.csv", data / side
        good.write_text(valid, encoding="utf-8")
        bad.write_text(broken, encoding="utf-8")
        load_records(good, SCHEMA, CSV)  # the file before the change loads
        with pytest.raises(LoadError) as exc:
            load_records(bad, SCHEMA, CSV)
        assert str(exc.value) == f"{bad}: line {line}: {message}"

        other = data / ("B.csv" if side == "A.csv" else "A.csv")
        other.write_text(
            ",".join(["entity_id", *ATTRIBUTES]) + "\n" + "99999999,a,b,c\n", encoding="utf-8"
        )
        (data / "truth_links.csv").write_text("a_id,b_id\n1,2\n", encoding="utf-8")
        config = data / "experiment.json"
        config.write_text(json.dumps(EXPERIMENT), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", str(data), "--config", str(config), "--out", str(data / "run")])
        assert code == 2
        assert err.getvalue() == f"error: stage 'load' failed: {bad}: line {line}: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("+5", "bad entity id '+5'"),
    (" 6 ", "bad entity id ' 6 '"),
    ("٣", "bad entity id '٣'"),
    ("1_0", "bad entity id '1_0'"),
    ("0x1", "bad entity id '0x1'"),
    ("", "bad entity id ''"),
    (str(2**63), "entity ids must fit in 64 bits"),
    (str(-(2**63) - 1), "entity ids must fit in 64 bits"),
    ("1" * 5000, "entity ids must fit in 64 bits"),
])
def test_records_ids_follow_the_id_file_syntax(tmp_path, text, message):
    # the records id column reads ids as the links, pairs and predictions files do
    path = tmp_path / "records.csv"
    path.write_text(f"entity_id,{','.join(ATTRIBUTES)}\n7,a,b,c\n{text},a,b,c\n", encoding="utf-8")
    with pytest.raises(LoadError) as exc:
        load_records(path, SCHEMA, CSV)
    assert str(exc.value) == f"{path}: line 3: {message}"


@pytest.mark.parametrize("text, value", [
    ("-0", 0), ("007", 7), (str(2**63 - 1), 2**63 - 1), (str(-(2**63)), -(2**63)),
])
def test_records_ids_at_the_edges_of_the_syntax(tmp_path, text, value):
    path = tmp_path / "records.csv"
    path.write_text(f"entity_id,{','.join(ATTRIBUTES)}\n{text},a,b,c\n", encoding="utf-8")
    records, _ = load_records(path, SCHEMA, CSV)
    assert records.id_array.tolist() == [value]


@pytest.mark.parametrize("bad_line", [1, 3, 5000])
def test_records_not_in_utf8_name_the_line(tmp_path, bad_line):
    # the decoder reads the file in chunks, well past the line it fails on
    lines = [f"entity_id,{','.join(ATTRIBUTES)}"] + [f"{i},a,b,c" for i in range(6000)]
    lines[bad_line - 1] = lines[bad_line - 1].replace("a", "\xe9", 1)
    path = tmp_path / "records.csv"
    path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(LoadError) as exc:
        load_records(path, SCHEMA, CSV)
    assert str(exc.value) == f"{path}: line {bad_line}: not utf-8 text"
