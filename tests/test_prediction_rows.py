"""The predictions writer builds its rows column by column; its text must be
the ``PREDICTION_ROW`` lines, row for row, whatever the ids, the floats and
the way the pairs are cut into chunks and joined."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink import candidates as candidates_mod
from evolink import commands
from evolink.candidates import Candidates, pair_slices
from evolink.ingest import RecordSet, Schema, ValueDictionary

SCHEMA = Schema(("x",))
ID = st.integers(-(2**63), 2**63 - 1)
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1.7976931348623157e308,
    1e-15, 1 - 1e-15, 0.5, float("inf"), float("-inf"), float("nan"),
]
FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.floats(0.0, 1.0))


def records(ids):
    return RecordSet.from_columns(SCHEMA, ValueDictionary(1), ids, np.full((len(ids), 1), -1))


def expected_text(cands, tau):
    """The writer's text as one ``PREDICTION_ROW`` per pair."""
    rows = zip(cands.a_ids.tolist(), cands.b_ids.tolist(), cands.score.tolist(),
               cands.probability.tolist())
    return "".join(
        commands.PREDICTION_ROW % (a, b, g, p, "match" if p >= tau else "non-match")
        for a, b, g, p in rows
    )


@st.composite
def scored_pairs(draw):
    """Scored candidates over two record sets with any int64 ids; some pairs
    are undefined (g NaN, P 0.0), as ``score_pairs`` leaves them."""
    ids_a = draw(st.lists(ID, min_size=1, max_size=6, unique=True))
    ids_b = draw(st.lists(ID, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(2, 40))
    a = draw(st.lists(st.integers(0, len(ids_a) - 1), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, len(ids_b) - 1), min_size=n, max_size=n))
    score = np.array(draw(st.lists(FLOAT, min_size=n, max_size=n)))
    probability = np.array(draw(st.lists(FLOAT, min_size=n, max_size=n)))
    undefined = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    score[undefined], probability[undefined] = np.nan, 0.0
    return Candidates(records(ids_a), records(ids_b), np.array(a), np.array(b),
                      score=score, probability=probability)


@pytest.mark.parametrize("chunk", ("1", "7", "n-1"))
@settings(max_examples=100, deadline=None)
@given(cands=scored_pairs(), tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       write_rows=st.sampled_from([1, 3, commands.WRITE_ROWS]))
def test_writer_text_equals_the_row_format(chunk, cands, tau, write_rows):
    if cands.probability.size and 0 < cands.probability[0] < 1:
        tau = cands.probability[0]  # a P equal to tau is a match
    size = len(cands) - 1 if chunk == "n-1" else int(chunk)
    fh = io.BytesIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidates_mod, "PAIR_CHUNK", size)
        patch.setattr(commands, "WRITE_ROWS", write_rows)
        parts = pair_slices(len(cands))
        commands.write_predictions(fh, map(cands.take, parts), cands.records_a, cands.records_b, tau)
    assert len(parts) == -(-len(cands) // size)
    assert fh.getvalue() == expected_text(cands, tau).encode()


def test_both_decisions_and_the_float_edges():
    cands = Candidates(
        records([-(2**63), 2**63 - 1]), records([0, -1]),
        np.array([0, 1, 0, 1, 1]), np.array([1, 0, 0, 1, 0]),
        score=np.array([np.nan, -0.0, 5e-324, 1e16, -123.456]),
        probability=np.array([0.0, 0.5, 0.25, 1 - 1e-15, 1e-15]),
    )
    fh = io.BytesIO()
    commands.write_predictions(fh, [cands], cands.records_a, cands.records_b, 0.25)
    assert fh.getvalue() == (
        b"-9223372036854775808,-1,nan,0.0,non-match\n"
        b"9223372036854775807,0,-0.0,0.5,match\n"
        b"-9223372036854775808,0,5e-324,0.25,match\n"
        b"9223372036854775807,-1,1e+16,0.999999999999999,match\n"
        b"9223372036854775807,0,-123.456,1e-15,non-match\n"
    )
    assert fh.getvalue() == expected_text(cands, 0.25).encode()
