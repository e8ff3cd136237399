"""Working-memory budgets of the per-pair layers and the id-file reader.

tracemalloc sees every numpy buffer, and for fixed inputs its peak is the
same on every run, so these budgets are exact checks rather than timings.
Each budget is a cost per pair plus a constant: a layer that builds a
temporary per distinct value pair, or holds several id-sized columns of the
whole input at once, exceeds it at the sizes used here.
"""

import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from evolink.candidates import PAIR_CHUNK, Candidates, block_candidates, label_pairs, pair_slices
from evolink.commands import write_predictions
from evolink.embed import EmbeddingStore
from evolink.idfiles import LinkedPairSet, read_id_rows
from evolink.ingest import RecordSet, Schema, ValueDictionary
from evolink import weights as weights_mod
from evolink.pipeline import _pick_threshold
from evolink.scoring import DISTANCE_BLOCK, feature_matrix, scored_chunks
from evolink.weights import RLHyperparams, WeightVector, train_weights

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


def blocked_pairs(n_values):
    """About 250,000 blocked pairs of 2,000 x 2,000 records in 16 blocks; the
    two other attributes have ``n_values`` values a side."""
    rng = np.random.default_rng(0)
    n, n_blocks = 2000, 16
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


@pytest.fixture(scope="module")
def wide_blocks():
    """3,000 values a side: almost every mismatching pair of values is a distinct one."""
    return blocked_pairs(3000)


@pytest.fixture(scope="module")
def shared_values():
    """300 values a side: the chunks share most of their value pairs."""
    return blocked_pairs(300)


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


def test_scored_chunks_budget(shared_values):
    records_a, records_b, store, pairs, _ = shared_values
    w = WeightVector(np.ones(3))
    half = pairs.take(slice(0, len(pairs) // 2))

    def score(cands):
        return lambda: sum(len(s) for s in scored_chunks(cands, store, w))

    score(pairs)()  # numpy imports some of its modules on first use
    n, peak = peak_above_start(score(pairs))
    n_half, half_peak = peak_above_start(score(half))
    assert n == len(pairs) > 200_000 and n_half == len(half)
    values = np.concatenate([records_a.value_matrix, records_b.value_matrix])
    slots = sum((len(np.unique(values[:, attr])) + 1) ** 2 for attr in range(3))
    assert slots < len(pairs)  # every attribute keeps its table
    # per attribute: a float per pair of its values, kept for the whole call;
    # per chunk: its columns, features and results, which the constant
    # covers. Nothing is kept per pair: twice the pairs cost less than even
    # an int32 column of the extra ones.
    assert peak <= 8 * slots + 8 * MB, peak
    assert peak - half_peak <= 4 * (n - n_half), (peak, half_peak)


def test_block_candidates_budget(wide_blocks):
    records_a, records_b, _, _, _ = wide_blocks
    pairs, peak = peak_above_start(lambda: block_candidates(records_a, records_b, 0))
    assert len(pairs) > 200_000 and pairs.a.dtype == pairs.b.dtype == np.int32
    # per pair: its two int32 rows, and one int32 position buffer, shifted in
    # place by a repeat of int32 shifts; the constant covers the per-record arrays
    assert peak <= 12 * len(pairs) + 1 * MB, peak / len(pairs)


def test_train_weights_budget(shared_values):
    records_a, records_b, store, pairs, truth = shared_values
    labeled = label_pairs(pairs, truth).pairs
    positives = labeled.take(labeled.label)
    half = labeled.take(slice(0, len(labeled) // 2))
    hp = RLHyperparams(epochs=3, seed=0)

    def train(negatives):
        return lambda: train_weights(positives, negatives, records_a, records_b, store, hp)

    train(half)()  # numpy imports some of its modules on first use
    (w, _), peak = peak_above_start(train(labeled))
    (half_w, _), half_peak = peak_above_start(train(half))
    assert len(positives) > 100 and len(labeled) - len(half) > 100_000
    assert np.array_equal(w.weights, half_w.weights)  # default settings never score a negative
    # the negatives are only counted, a chunk at a time, and the value-pair
    # tables are sized for the positives: twice the negatives, the same peak
    assert peak - half_peak <= 64 * 1024, (peak, half_peak)


def test_binding_train_weights_budget(shared_values, monkeypatch):
    records_a, records_b, store, pairs, truth = shared_values
    labeled = label_pairs(pairs, truth).pairs
    positives = labeled.take(labeled.label)
    # the as-written hinge binds on every negative from the first epoch
    hp = RLHyperparams(epochs=2, seed=0, loss_sign="as_written")
    alive = []

    class Scorer(weights_mod.ValuePairTerms):
        def __init__(self, *args):
            # the tables of the scorers made before are no longer held
            assert all(ref() is None for ref in alive)
            super().__init__(*args)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(weights_mod, "ValuePairTerms", Scorer)

    def train():
        return train_weights(positives, labeled, records_a, records_b, store, hp)

    train()  # numpy imports some of its modules on first use
    alive.clear()
    _, peak = peak_above_start(train)
    assert len(alive) == 2  # one scorer for the positives, one for the negatives
    n_neg = len(labeled) - len(positives)  # blocked pairs share attribute 0: all scorable
    assert len(positives) > 100 and n_neg > 200_000
    values = np.concatenate([records_a.value_matrix, records_b.value_matrix])
    distinct = [len(np.unique(values[:, attr])) for attr in range(3)]
    slots = sum((n + 1) ** 2 for n in distinct)
    assert slots <= 4 * n_neg  # the negatives' scorer keeps every attribute's table
    # the negatives' features, 8 bytes an attribute; their tables: a float a
    # slot, each trained value's head vector and each record's key; about 128
    # bytes a pair of one chunk (its rows, masks, keys and terms); three
    # (rows x dim) arrays of one block of distances; a constant for the
    # positives' features and an epoch's draw of 10 negatives each
    features = 8 * 3 * n_neg
    tables = 8 * slots + 8 * store.dim * sum(distinct) + 8 * 3 * len(values)
    temporaries = 128 * PAIR_CHUNK + 3 * 8 * store.dim * DISTANCE_BLOCK
    assert peak <= features + tables + temporaries + 1 * MB, (peak - features - tables)


def test_pick_threshold_budget(shared_values):
    records_a, records_b, store, pairs, truth = shared_values
    labeled = label_pairs(pairs, truth).pairs
    half = labeled.take(slice(0, len(labeled) // 2))
    w = WeightVector(-np.ones(3))

    def pick(cands):
        return lambda: _pick_threshold(cands, store, w, 2)

    pick(half)()  # numpy imports some of its modules on first use
    tau, peak = peak_above_start(pick(labeled))
    _, half_peak = peak_above_start(pick(half))
    assert labeled.label.any() and 0 < tau[0] < 1
    values = np.concatenate([records_a.value_matrix, records_b.value_matrix])
    slots = sum((len(np.unique(values[:, attr])) + 1) ** 2 for attr in range(3))
    # as scored_chunks: the tables and one chunk, and nothing per pair; the
    # confusion counts are a few hundred integers, not a float per pair
    assert peak <= 8 * slots + 8 * MB, peak
    assert peak - half_peak <= 64 * 1024, (peak, half_peak)


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


def test_write_predictions_budget(shared_values):
    records_a, records_b, _, pairs, _ = shared_values
    rng = np.random.default_rng(1)
    g = rng.normal(-8.0, 4.0, len(pairs))
    scored = Candidates(records_a, records_b, pairs.a, pairs.b, score=g,
                        probability=1 / (1 + np.exp(-g)))
    parts = pair_slices(len(scored))
    assert len(parts) >= 4

    def write(n_parts):
        chunks = [scored.take(part) for part in parts[:n_parts]]

        def run():
            with open(os.devnull, "wb") as fh:
                write_predictions(fh, chunks, records_a, records_b, 0.5)

        return run

    write(1)()  # the renderer builds its tables on first use
    _, peak = peak_above_start(write(len(parts)))
    _, one_chunk_peak = peak_above_start(write(1))
    # per row of one chunk: its byte matrix and that matrix's bytes, about
    # 120 each, and the renderer's uint64 temporaries; nothing is kept per
    # chunk or per pair
    assert peak <= 800 * PAIR_CHUNK + 1 * MB, peak / PAIR_CHUNK
    assert peak - one_chunk_peak <= 64 * 1024, (peak, one_chunk_peak)
