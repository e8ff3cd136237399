"""Working-memory budgets of the per-pair layers and the id-file reader.

tracemalloc sees every numpy buffer, and for fixed inputs its peak is the
same on every run, so these budgets are exact checks rather than timings.
Each budget is a cost per pair plus a constant: a layer that builds a
temporary per distinct value pair, or holds several id-sized columns of the
whole input at once, exceeds it at the sizes used here.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from evolink.embed import EmbeddingStore
from evolink.ingest import LinkedPairSet, RecordSet, Schema, ValueDictionary, read_id_rows
from evolink.pipeline import block_candidates, label_pairs
from evolink.weights import feature_matrix

MB = 1 << 20


def peak_above_start(fn):
    """``fn()`` and the most memory it held at once beyond what it returned into."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def wide_blocks():
    """About 250,000 blocked pairs of 2,000 x 2,000 records in 16 blocks; the
    two other attributes have 3,000 values a side, so almost every
    mismatching pair of values is a distinct one."""
    rng = np.random.default_rng(0)
    n, n_blocks, n_values = 2000, 16, 3000
    schema = Schema(("block", "x", "y"), blocking_attribute=0)
    d = ValueDictionary(3)
    blocks = np.array([d.intern(0, f"b{i}") for i in range(n_blocks)])
    vocab = [np.array([d.intern(attr, f"v{i}") for i in range(n_values)]) for attr in (1, 2)]

    def side(id_base):
        columns = [blocks[rng.integers(n_blocks, size=n)]]
        columns += [values[rng.integers(n_values, size=n)] for values in vocab]
        return RecordSet.from_columns(schema, d, id_base + np.arange(n), np.stack(columns, axis=1))

    records_a, records_b = side(0), side(10 * n)
    store = EmbeddingStore(rng.normal(size=(len(d), 50)), rng.normal(size=(3, 50)), 50)
    pairs = block_candidates(records_a, records_b, 0)
    truth = LinkedPairSet(np.stack([np.arange(n), 10 * n + rng.permutation(n)], axis=1))
    return records_a, records_b, store, pairs, truth


def test_feature_matrix_budget(wide_blocks):
    records_a, records_b, store, pairs, _ = wide_blocks
    (features, defined), peak = peak_above_start(
        lambda: feature_matrix(pairs, records_a, records_b, store)
    )
    assert len(pairs) > 200_000
    output = features.nbytes + defined.nbytes
    # per pair: the gathered columns and masks of one attribute, and np.unique's
    # sort of its mismatching value pairs; the constant covers one block of
    # (rows x dim) residuals
    assert peak <= output + 160 * len(pairs) + 8 * MB, (peak - output) / len(pairs)


def test_label_pairs_budget(wide_blocks):
    _, _, _, pairs, truth = wide_blocks
    labeled, peak = peak_above_start(lambda: label_pairs(pairs, truth))
    assert labeled.pairs.label.any()
    # per pair: the label itself; the constant covers one chunk's keys and lookups
    assert peak <= 2 * len(pairs) + 4 * MB, peak / len(pairs)


@pytest.fixture(scope="module")
def predictions_file(tmp_path_factory):
    """250,000 rows as ``predict`` writes them, about 60 bytes a row."""
    n = 250_000
    g = np.random.default_rng(0).normal(-5.0, 4.0, n)
    rows = zip((np.arange(n) // 50).tolist(), (10**6 + np.arange(n) % 50).tolist(),
               g.tolist(), (1 / (1 + np.exp(-g))).tolist())
    path = tmp_path_factory.mktemp("ids") / "predictions.csv"
    path.write_text("a_id,b_id,g,P,decision\n" + "".join(
        f"{a},{b},{gi!r},{p!r},{'match' if p >= 0.5 else 'non-match'}\n" for a, b, gi, p in rows
    ), encoding="utf-8")
    return path, n


def test_read_id_rows_budget(predictions_file):
    path, n = predictions_file
    rows, peak = peak_above_start(lambda: read_id_rows(path, "predictions"))
    assert len(rows.a_ids) == n and rows.matches.any()
    # per row: the file's bytes, read once to check them, and later loadtxt's
    # table and the columns taken from it; the two are never held together
    assert peak <= 100 * n + 4 * MB, peak / n
