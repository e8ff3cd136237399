import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from evolink import idfiles, scoring
from evolink import weights as weights_mod
from evolink.embed import EmbeddingStore
from evolink.errors import ConfigError, TrainingError, UndefinedPairError
from evolink.ingest import Record, RecordSet, Schema, ValueDictionary
from evolink.candidates import PAIR_CHUNK, CandidatePair, Candidates, classify
from evolink.weights import (
    RLHyperparams,
    _epoch_loss_and_gradient,
    WeightVector,
    feature_matrix,
    g_score,
    link_probability,
    pair_loss,
    pair_terms,
    THRESHOLD_GRID,
    select_threshold,
    sigmoid,
    threshold_counts,
    threshold_from_counts,
    train_weights,
    weight_gradient_check,
)
from oracles import eager_weight_loop, left_to_right_scores, reference_select_threshold

# every τ of the grid, a float either side of it, 0.0, the clip floor and its
# mirror, NaN (never a match), and any probability
GRID_EDGES = st.one_of(
    st.sampled_from(THRESHOLD_GRID).flatmap(
        lambda tau: st.sampled_from([np.nextafter(tau, 0.0), tau, np.nextafter(tau, 1.0)])
    ).map(float),
    st.sampled_from([0.0, 1e-15, 1 - 1e-15, float("nan")]),
    st.floats(0.0, 1.0),
)


def two_attribute_setup():
    """Store engineered so mismatches score exactly -0.5 and -1.0."""
    schema = Schema(("first", "second"))
    d = ValueDictionary(2)
    a0v0, a0v1 = d.intern(0, "x"), d.intern(0, "y")
    a1v0, a1v1 = d.intern(1, "p"), d.intern(1, "q")
    vectors = np.zeros((4, 1))
    attributes = np.array([[0.5], [1.0]])
    store = EmbeddingStore(vectors, attributes, 1)
    head = Record(0, {0: a0v0, 1: a1v0})
    tail = Record(1, {0: a0v1, 1: a1v1})
    records_a = RecordSet(schema, d, (head,))
    records_b = RecordSet(schema, d, (tail, Record(2, {0: a0v0, 1: a1v0})))
    return store, records_a, records_b, head, tail


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_strictly_inside_unit_interval(self, g):
        p = sigmoid(g)
        assert 0.0 < p < 1.0


class TestGScore:
    def test_hand_computed(self):
        store, records_a, records_b, head, tail = two_attribute_setup()
        w = WeightVector(np.array([1.0, 2.0]))
        assert g_score(head, tail, store, w) == pytest.approx(-2.5, abs=1e-12)
        assert link_probability(head, tail, store, w) == pytest.approx(
            1.0 / (1.0 + np.exp(2.5)), rel=1e-12
        )
        # spot value quoted to three significant figures
        assert link_probability(head, tail, store, w) == pytest.approx(0.0759, abs=5e-4)

    def test_identical_records_score_zero(self):
        store, records_a, records_b, head, _ = two_attribute_setup()
        w = WeightVector(np.array([3.0, -1.0]))
        twin = Record(99, dict(head.values))
        assert g_score(head, twin, store, w) == 0.0
        assert link_probability(head, twin, store, w) == 0.5

    def test_zero_weights_zero_score(self):
        store, _, _, head, tail = two_attribute_setup()
        w = WeightVector(np.zeros(2))
        assert g_score(head, tail, store, w) == 0.0

    def test_no_shared_attributes_raises(self):
        store, *_ = two_attribute_setup()
        d = ValueDictionary(2)
        left = Record(0, {0: d.intern(0, "x")})
        right = Record(1, {1: d.intern(1, "p")})
        w = WeightVector.ones(2)
        with pytest.raises(UndefinedPairError):
            g_score(left, right, store, w)

    def test_missing_attributes_skipped(self):
        store, _, _, head, tail = two_attribute_setup()
        partial = Record(5, {0: tail.values[0]})  # second attribute absent
        w = WeightVector(np.array([1.0, 2.0]))
        assert g_score(head, partial, store, w) == pytest.approx(-0.5)

    def test_uniform_weights_equal_plain_sum(self, rng):
        # all-ones weights reduce to the unweighted sum of the terms
        store, records_a, records_b, head, tail = two_attribute_setup()
        from evolink.weights import pair_terms

        terms = pair_terms(head, tail, store)
        assert g_score(head, tail, store, WeightVector.ones(2)) == pytest.approx(
            float(terms.sum()), abs=1e-15
        )

    def test_more_negative_scores_never_raise_probability(self):
        store, _, _, head, tail = two_attribute_setup()
        w = WeightVector(np.array([1.0, 2.0]))
        base = link_probability(head, tail, store, w)
        store.attribute_vectors *= 2.0  # every mismatch strictly more implausible
        assert link_probability(head, tail, store, w) <= base

    def test_ranking_invariant_under_positive_scaling(self, rng):
        # nonpositive terms and nonnegative weights: scaling preserves order
        terms = -rng.uniform(0, 2, size=(30, 4))
        w = rng.uniform(0, 1.5, size=4)
        g = left_to_right_scores(terms, w)
        g_scaled = left_to_right_scores(terms, 3.7 * w)
        assert np.array_equal(np.argsort(g), np.argsort(g_scaled))


class TestFeatureMatrix:
    def test_matches_pairwise_scores(self):
        store, records_a, records_b, head, tail = two_attribute_setup()
        pairs = [CandidatePair(0, 1), CandidatePair(0, 2)]
        features, defined = feature_matrix(pairs, records_a, records_b, store)
        assert defined.all()
        np.testing.assert_allclose(features[0], [-0.5, -1.0])
        np.testing.assert_allclose(features[1], [0.0, 0.0])  # identical contents

    def test_unseen_values_get_worst_case_score(self):
        store, records_a, records_b, head, tail = two_attribute_setup()
        d = records_a.dictionary
        novel = d.intern(0, "brand-new")
        extended_b = RecordSet(
            records_b.schema, d,
            (*records_b.records, Record(3, {0: novel, 1: tail.values[1]})),
        )
        pairs = [CandidatePair(0, 3)]
        assert novel == store.value_vectors.shape[0]  # past the trained rows
        features, defined = feature_matrix(pairs, records_a, extended_b, store)
        assert defined.all()
        assert features[0, 0] == pytest.approx(-(2.0 + 0.5))


def separable_training_setup(seed=0):
    """One informative attribute, one empty of signal, linearly learnable."""
    rng = np.random.default_rng(seed)
    schema = Schema(("signal", "noise"))
    d = ValueDictionary(2)
    sig = [d.intern(0, f"s{i}") for i in range(6)]
    noi = [d.intern(1, f"n{i}") for i in range(40)]
    vectors = rng.normal(size=(len(sig) + len(noi), 8))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    # engineered geometry: signal mismatches of true pairs are near-translations
    attributes = np.vstack([rng.normal(size=8) * 0.2, rng.normal(size=8) * 0.2])
    for i in range(0, 6, 2):
        vectors[sig[i + 1]] = np.clip(vectors[sig[i]] + attributes[0], -1, 1)
        vectors[sig[i + 1]] /= max(1.0, np.linalg.norm(vectors[sig[i + 1]]))
    store = EmbeddingStore(vectors, attributes, 8)

    a_records, b_records, pos, neg = [], [], [], []
    next_b = 1000
    for i in range(360):
        src = 2 * int(rng.integers(3))
        a = Record(i, {0: sig[src], 1: noi[int(rng.integers(40))]})
        a_records.append(a)
        is_true = i < 120
        if is_true:
            b_vals = {0: sig[src + 1], 1: noi[int(rng.integers(40))]}
        else:
            other = sig[(src + 2 + 2 * int(rng.integers(2))) % 6]
            b_vals = {0: other, 1: noi[int(rng.integers(40))]}
        b = Record(next_b, b_vals)
        next_b += 1
        b_records.append(b)
        (pos if is_true else neg).append(CandidatePair(a.entity_id, b.entity_id))
    records_a = RecordSet(schema, d, tuple(a_records))
    records_b = RecordSet(schema, d, tuple(b_records))
    return store, records_a, records_b, pos, neg


class TestTrainWeights:
    def test_inactive_hinges_leave_weights_unchanged(self):
        # positives identical (P=0.5 >= margin), negatives far below 1-margin
        schema = Schema(("only",))
        d = ValueDictionary(1)
        x, y = d.intern(0, "x"), d.intern(0, "y")
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]])  # mismatch distance 5 -> P ~ 0.007
        store = EmbeddingStore(vectors, np.zeros((1, 2)), 2)
        records_a = RecordSet(schema, d, (Record(0, {0: x}),))
        records_b = RecordSet(schema, d, (Record(1, {0: x}), Record(2, {0: y})))
        w, history = train_weights(
            [CandidatePair(0, 1)], [CandidatePair(0, 2)],
            records_a, records_b, store,
            RLHyperparams(margin=0.3, epochs=50, seed=0),
        )
        assert np.array_equal(w.weights, np.ones(1))
        assert history == [0.0] * 50

    def test_learns_to_downweight_noise(self):
        store, records_a, records_b, pos, neg = separable_training_setup()
        half = len(pos) // 2
        hp = RLHyperparams(margin=0.3, learning_rate=0.5, epochs=300, seed=1)
        w, history = train_weights(pos[:half], neg[: 10 * half], records_a, records_b, store, hp)
        assert abs(w.weights[0]) > abs(w.weights[1])
        assert history[-1] <= history[0]

    def test_improves_over_uniform_weights(self):
        from evolink.pipeline import score_pairs

        store, records_a, records_b, pos, neg = separable_training_setup()
        train_pos, val_pos = pos[:60], pos[60:]
        train_neg, val_neg = neg[:120], neg[120:]
        hp = RLHyperparams(margin=0.3, learning_rate=0.5, epochs=300, seed=1)
        learned, _ = train_weights(train_pos, train_neg, records_a, records_b, store, hp)

        val = [p for p in val_pos] + [q for q in val_neg]
        labels = [True] * len(val_pos) + [False] * len(val_neg)

        def best_f(w):
            scored = score_pairs(val, records_a, records_b, store, w)
            return select_threshold([p.probability for p in scored], labels)[1]

        assert best_f(learned) >= best_f(WeightVector.ones(2))

    def test_embeddings_frozen(self):
        store, records_a, records_b, pos, neg = separable_training_setup()
        before_values = store.value_vectors.tobytes()
        before_attrs = store.attribute_vectors.tobytes()
        train_weights(
            pos[:50], neg[:200], records_a, records_b, store,
            RLHyperparams(epochs=40, seed=3),
        )
        assert store.value_vectors.tobytes() == before_values
        assert store.attribute_vectors.tobytes() == before_attrs

    def test_nonnegative_clamp(self):
        store, records_a, records_b, pos, neg = separable_training_setup()
        hp = RLHyperparams(
            margin=0.3, learning_rate=2.0, epochs=200, seed=1, nonnegative=True
        )
        w, _ = train_weights(pos[:60], neg[:300], records_a, records_b, store, hp)
        assert (w.weights >= 0).all()

    def test_deterministic(self):
        store, records_a, records_b, pos, neg = separable_training_setup()
        hp = RLHyperparams(epochs=60, seed=5)
        one, h1 = train_weights(pos[:40], neg[:200], records_a, records_b, store, hp)
        two, h2 = train_weights(pos[:40], neg[:200], records_a, records_b, store, hp)
        assert np.array_equal(one.weights, two.weights)
        assert h1 == h2

    @pytest.mark.parametrize("loss_sign", ["corrected", "as_written"])
    def test_packs_each_record_sets_presence_once(self, monkeypatch, loss_sign):
        # the positives' features come from the negatives' ValuePairTerms;
        # as_written's negatives bind, so their features are built too
        store, records_a, records_b, pos, neg = separable_training_setup()
        packed = []
        packbits = np.packbits

        def counting(*args, **kwargs):
            packed.append(args[0].shape)
            return packbits(*args, **kwargs)

        monkeypatch.setattr(np, "packbits", counting)
        hp = RLHyperparams(epochs=5, seed=2, loss_sign=loss_sign)
        train_weights(pos[:40], neg[:200], records_a, records_b, store, hp)
        assert packed == [records_a.value_matrix.shape, records_b.value_matrix.shape]

    def test_empty_side_rejected(self):
        store, records_a, records_b, pos, neg = separable_training_setup()
        from evolink.errors import TrainingError

        with pytest.raises(TrainingError):
            train_weights([], neg, records_a, records_b, store, RLHyperparams())

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("negative_ratio", math.nan), ("negative_ratio", math.inf),
    ])
    def test_non_finite_setting_refused_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be finite and > 0"):
            RLHyperparams(**{field: value})

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            RLHyperparams(margin=0.0)
        with pytest.raises(ConfigError):
            RLHyperparams(loss_sign="mystery")


def eager_train_weights(t_plus, t_minus, records_a, records_b, store, hp, p=2):
    """Reference for ``train_weights``: ``oracles.eager_weight_loop`` over
    the scorable pairs' ``feature_matrix`` rows."""
    feats_pos, defined_pos = feature_matrix(t_plus, records_a, records_b, store, p)
    feats_neg, defined_neg = feature_matrix(t_minus, records_a, records_b, store, p)
    return eager_weight_loop(feats_pos[defined_pos], feats_neg[defined_neg], hp)


def with_near_duplicate_negatives(seed=0):
    """The separable setup plus negatives that match on the signal attribute,
    so their P sits near 0.5 and a margin above 0.5 makes them bind. The B
    records of ten negatives have no value at all, so those ten are not
    scorable."""
    store, records_a, records_b, pos, neg = separable_training_setup(seed)
    rows = records_b.value_matrix.copy()
    rows[120:130] = -1
    twins = records_a.value_matrix[: len(rows) // 4]
    rows[-len(twins):, 0] = twins[:, 0]
    b_ids = records_b.id_array.copy()
    records_b = RecordSet.from_columns(records_a.schema, records_a.dictionary, b_ids, rows)
    neg = neg + [
        CandidatePair(int(a_id), int(b_id))
        for a_id, b_id in zip(records_a.id_array[: len(twins)], b_ids[-len(twins):])
    ]
    return store, records_a, records_b, pos, neg


# (hyperparameters, whether some epoch's negatives bind)
NEGATIVE_CASES = [
    (RLHyperparams(loss_sign="as_written", epochs=60, seed=4, negative_ratio=1.0), True),
    (RLHyperparams(loss_sign="as_written", epochs=30, seed=4, negative_ratio=None), True),
    (RLHyperparams(margin=0.6, epochs=60, seed=2, negative_ratio=1.0), True),
    (RLHyperparams(learning_rate=30.0, epochs=60, seed=9, negative_ratio=1.0), True),
    (
        RLHyperparams(learning_rate=30.0, epochs=60, seed=9, negative_ratio=1.0,
                      nonnegative=True),
        False,
    ),
    (RLHyperparams(epochs=60, seed=1, negative_ratio=1.0), False),
    # at margin 0.5 every positive binds, which drives a weight below 0
    (RLHyperparams(margin=0.5, epochs=60, seed=1, negative_ratio=0.5), True),
]


class TestLazyNegatives:
    """``train_weights`` skips negatives only where they add exactly 0."""

    @pytest.mark.parametrize("hp, binds", NEGATIVE_CASES)
    def test_equals_the_eager_reference_bit_for_bit(self, hp, binds):
        store, records_a, records_b, pos, neg = with_near_duplicate_negatives()
        args = (pos[:60], neg, records_a, records_b, store, hp)
        w, history = train_weights(*args)
        ref_w, ref_history, active = eager_train_weights(*args)
        assert w.weights.tobytes() == ref_w.tobytes()
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()
        assert (active > 0) == binds

    @pytest.mark.parametrize("hp", [hp for hp, _ in NEGATIVE_CASES])
    def test_a_labelled_split_trains_on_its_negatives_alone(self, hp):
        store, records_a, records_b, pos, neg = with_near_duplicate_negatives()
        # the matches shuffled in among the negatives, as blocking leaves them
        labelled = [replace(p, label=True) for p in pos] + [replace(p, label=False) for p in neg]
        order = np.random.default_rng(0).permutation(len(labelled))
        split = Candidates.of([labelled[i] for i in order], records_a, records_b)
        args = (records_a, records_b, store, hp)
        w, history = train_weights(pos[:60], split, *args)
        ref_w, ref_history = train_weights(pos[:60], split.take(~split.label), *args)
        assert w.weights.tobytes() == ref_w.weights.tobytes()
        assert np.array(history).tobytes() == np.array(ref_history).tobytes()

    @pytest.mark.parametrize("hp", [hp for hp, binds in NEGATIVE_CASES if binds])
    def test_negatives_built_in_chunks_equal_one_chunk(self, hp, monkeypatch):
        store, records_a, records_b, pos, neg = with_near_duplicate_negatives()
        args = (pos[:60], neg, records_a, records_b, store, hp)
        w, history = train_weights(*args)
        import evolink.candidates as candidates_mod

        # chunks of 7 negatives, some holding an unscorable one
        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", 7)
        chunked_w, chunked_history = train_weights(*args)
        assert chunked_w.weights.tobytes() == w.weights.tobytes()
        assert np.array(chunked_history).tobytes() == np.array(history).tobytes()

    def test_weights_below_zero_turn_the_negatives_on(self):
        store, records_a, records_b, pos, neg = with_near_duplicate_negatives()
        hp = RLHyperparams(learning_rate=30.0, epochs=60, seed=9, negative_ratio=1.0)
        seen = []

        def counting(pairs, *args, **kwargs):
            seen.append(len(pairs))
            return feature_matrix(pairs, *args, **kwargs)

        import evolink.weights as weights_mod

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights_mod, "feature_matrix", counting)
            w, _ = train_weights(pos[:60], neg, records_a, records_b, store, hp)
        assert w.weights.min() < 0
        assert seen == [60, len(neg) - 10]

    def test_default_config_never_builds_negative_features(self, monkeypatch):
        import evolink.weights as weights_mod

        store, records_a, records_b, pos, neg = with_near_duplicate_negatives()
        seen = []

        def counting(pairs, *args, **kwargs):
            seen.append(len(pairs))
            return feature_matrix(pairs, *args, **kwargs)

        monkeypatch.setattr(weights_mod, "feature_matrix", counting)
        _, history = train_weights(
            pos[:60], neg, records_a, records_b, store, RLHyperparams(seed=3)
        )
        assert seen == [60]
        assert len(history) == RLHyperparams().epochs

    def test_mean_counts_the_skipped_negatives(self):
        # only the positives' hinges count, but the mean is over the positives
        # plus the capped number of negatives
        store, records_a, records_b, pos, neg = with_near_duplicate_negatives()
        hp = RLHyperparams(epochs=1, seed=0, negative_ratio=2.0)
        _, history = train_weights(pos[:5], neg, records_a, records_b, store, hp)
        feats, _ = feature_matrix(pos[:5], records_a, records_b, store)
        p_pos = 1.0 / (1.0 + np.exp(-left_to_right_scores(feats, np.ones(2))))
        assert history == [float(np.maximum(0.0, hp.margin - p_pos).sum()) / (5 + 10)]

    def test_negatives_without_a_shared_attribute_are_unscorable(self):
        from evolink.errors import TrainingError

        schema = Schema(("first", "second"))
        d = ValueDictionary(2)
        x, y = d.intern(0, "x"), d.intern(1, "y")
        store = EmbeddingStore(np.zeros((2, 1)), np.zeros((2, 1)), 1)
        records_a = RecordSet(schema, d, (Record(0, {0: x}), Record(1, {0: x, 1: y})))
        records_b = RecordSet(schema, d, (Record(2, {1: y}), Record(3, {0: x})))
        with pytest.raises(TrainingError, match="no scorable pairs"):
            train_weights(
                [CandidatePair(1, 3)], [CandidatePair(0, 2)],
                records_a, records_b, store, RLHyperparams(),
            )
        with pytest.raises(TrainingError, match="no scorable pairs"):
            train_weights(
                [CandidatePair(0, 2)], [CandidatePair(1, 3)],
                records_a, records_b, store, RLHyperparams(),
            )


def nonpositive_features(n_rows, n_attr):
    return st.lists(
        st.lists(st.floats(-1e100, 0.0), min_size=n_attr, max_size=n_attr),
        min_size=n_rows, max_size=n_rows,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(n_rows, n_attr))


@st.composite
def inert_negative_epochs(draw):
    n_attr = draw(st.integers(1, 5))
    pos = draw(nonpositive_features(draw(st.integers(0, 6)), n_attr))
    neg = draw(nonpositive_features(draw(st.integers(1, 8)), n_attr))
    w = np.array(draw(st.lists(st.floats(0.0, 1e100), min_size=n_attr, max_size=n_attr)))
    margin = draw(st.floats(0.0, 0.5, exclude_min=True))
    return pos, neg, w, margin


class TestInertNegatives:
    @given(inert_negative_epochs())
    def test_negatives_add_exactly_nothing(self, epoch):
        """Features <= 0, weights >= 0 and a corrected margin <= 0.5: the
        negatives change neither the loss nor the gradient, in any bit."""
        pos, neg, w, margin = epoch
        hp = RLHyperparams(margin=margin)
        total, grad = _epoch_loss_and_gradient(pos, neg, w, hp)
        bare_total, bare_grad = _epoch_loss_and_gradient(pos, np.zeros((0, len(w))), w, hp)
        assert np.float64(total).tobytes() == np.float64(bare_total).tobytes()
        assert grad.tobytes() == bare_grad.tobytes()


def reference_epoch_loss_and_gradient(features_pos, features_neg, w, hp):
    """Reference for ``_epoch_loss_and_gradient``: each loss mode's hinges
    written out in a branch of their own, independent of ``weights.HINGES``."""
    g_pos = left_to_right_scores(features_pos, w)
    g_neg = left_to_right_scores(features_neg, w)
    with np.errstate(over="ignore"):
        p_pos = 1.0 / (1.0 + np.exp(-g_pos))
        p_neg = 1.0 / (1.0 + np.exp(-g_neg))
    grad = np.zeros_like(w)

    if hp.loss_sign == "corrected":
        loss_pos = np.maximum(0.0, hp.margin - p_pos)
        act = loss_pos > 0
        if act.any():
            grad -= ((p_pos * (1 - p_pos))[act, None] * features_pos[act]).sum(axis=0)
        loss_neg = np.maximum(0.0, p_neg - (1.0 - hp.margin))
        act = loss_neg > 0
        if act.any():
            grad += ((p_neg * (1 - p_neg))[act, None] * features_neg[act]).sum(axis=0)
    else:
        loss_pos = np.maximum(0.0, hp.margin + p_pos)
        act = loss_pos > 0
        if act.any():
            grad += ((p_pos * (1 - p_pos))[act, None] * features_pos[act]).sum(axis=0)
        loss_neg = np.maximum(0.0, hp.margin - p_neg)
        act = loss_neg > 0
        if act.any():
            grad -= ((p_neg * (1 - p_neg))[act, None] * features_neg[act]).sum(axis=0)

    total = float(loss_pos.sum() + loss_neg.sum())
    return total, grad


def reference_pair_loss(terms, positive, w, hp):
    """Reference for ``pair_loss``, one branch per loss mode and side."""
    prob = sigmoid(float(left_to_right_scores([terms], w)[0]))
    if hp.loss_sign == "corrected":
        if positive:
            return max(0.0, hp.margin - prob)
        return max(0.0, prob - (1.0 - hp.margin))
    if positive:
        return max(0.0, hp.margin + prob)
    return max(0.0, hp.margin - prob)


def any_features(n_rows, n_attr):
    # |feature * weight| <= 1e200, so g reaches far past exp's overflow at
    # about 709 without a sum ever overflowing to inf
    return st.lists(
        st.lists(st.floats(-1e100, 1e100), min_size=n_attr, max_size=n_attr),
        min_size=n_rows, max_size=n_rows,
    ).map(lambda rows: np.array(rows, dtype=float).reshape(n_rows, n_attr))


margins = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
loss_signs = st.sampled_from(sorted(weights_mod.HINGES))


@st.composite
def hinge_epochs(draw):
    n_attr = draw(st.integers(1, 4))
    pos = draw(any_features(draw(st.integers(0, 6)), n_attr))
    neg = draw(any_features(draw(st.integers(0, 6)), n_attr))
    w = np.array(draw(st.lists(st.floats(-1e100, 1e100), min_size=n_attr, max_size=n_attr)))
    hp = RLHyperparams(margin=draw(margins), loss_sign=draw(loss_signs))
    return pos, neg, w, hp


class TestHingeTable:
    """Every reader of ``weights.HINGES`` gives the floats of the branches it
    replaced, bit for bit. Swapping the negatives' sign of either mode in the
    table, for one, fails both tests here."""

    @settings(max_examples=300, deadline=None)
    @given(hinge_epochs())
    def test_epoch_loss_and_pair_loss_equal_the_branches(self, epoch):
        pos, neg, w, hp = epoch
        total, grad = _epoch_loss_and_gradient(pos, neg, w, hp)
        ref_total, ref_grad = reference_epoch_loss_and_gradient(pos, neg, w, hp)
        assert np.float64(total).tobytes() == np.float64(ref_total).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        g = left_to_right_scores(np.concatenate((pos, neg)), w)
        event("g overflows" if np.abs(g).max(initial=0) > 709 else "g finite")
        for positive, rows in ((True, pos), (False, neg)):
            for terms in rows:
                assert np.float64(pair_loss(terms, positive, w, hp)).tobytes() == (
                    np.float64(reference_pair_loss(terms, positive, w, hp)).tobytes()
                )

    @given(margins, loss_signs)
    @example(0.5, "corrected")
    @example(math.nextafter(0.5, 0.0), "corrected")
    @example(math.nextafter(0.5, 1.0), "corrected")
    def test_negatives_skip_exactly_under_corrected_margins_up_to_half(self, margin, loss_sign):
        hp = RLHyperparams(margin=margin, loss_sign=loss_sign)
        assert weights_mod._inert_negatives(hp) == (loss_sign == "corrected" and margin <= 0.5)


class TestWeightGradientCheck:
    def test_active_hinges_match_finite_differences(self, rng):
        worst = 0.0
        hp = RLHyperparams(margin=0.4)
        checked = 0
        while checked < 40:
            terms = -rng.uniform(0.0, 3.0, size=5) * (rng.random(5) > 0.3)
            w = rng.uniform(0.2, 1.5, size=5)
            positive = bool(rng.integers(2))
            result = weight_gradient_check(terms, positive, w, hp, epsilon=1e-5)
            if result.checked:
                checked += 1
                worst = max(worst, result.max_relative_error)
        assert worst <= 1e-4

    def test_as_written_mode_checks_too(self, rng):
        hp = RLHyperparams(margin=0.4, loss_sign="as_written")
        terms = np.array([-1.0, -0.5, 0.0])
        w = np.array([1.0, 1.0, 1.0])
        result = weight_gradient_check(terms, True, w, hp, epsilon=1e-5)
        assert result.checked == 3
        assert result.max_relative_error <= 1e-4

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("loss_sign", ["corrected", "as_written"])
    def test_checks_the_gradient_training_steps_along(self, monkeypatch, positive, loss_sign):
        # the check compares training's own gradient, so doubling it must show
        hp = RLHyperparams(margin=0.4, loss_sign=loss_sign)
        terms, w = np.array([-1.0, -0.5, 0.0]), np.array([1.0, -0.5, 1.0])
        # with g = -0.75 (P = 0.32) each of these hinges is active
        active = {("corrected", True), ("as_written", True), ("as_written", False)}
        if (loss_sign, positive) not in active:
            w = np.array([-4.0, -4.0, 1.0])  # g = 6: P near 1, so the negative's hinge binds
        result = weight_gradient_check(terms, positive, w, hp)
        assert result.checked == 3 and result.max_relative_error <= 1e-4
        epoch = weights_mod._epoch_loss_and_gradient

        def doubled(*args):
            loss, grad = epoch(*args)
            return loss, 2.0 * grad

        monkeypatch.setattr(weights_mod, "_epoch_loss_and_gradient", doubled)
        assert weight_gradient_check(terms, positive, w, hp).max_relative_error >= 0.3


class TestClassifyAndThreshold:
    def test_boundary_inclusive(self):
        assert classify(0.5, 0.5) is True
        assert classify(0.4999, 0.5) is False

    def test_tau_validated(self):
        with pytest.raises(ConfigError):
            classify(0.5, 1.5)

    def test_identical_probabilities_pick_largest_grid_point_below(self):
        probs = [0.37] * 10
        labels = [True] * 4 + [False] * 6
        tau, f = select_threshold(probs, labels)
        assert tau == 0.37
        assert f == pytest.approx(2 * 0.4 / 1.4)

    def test_clean_separation_selects_inside_gap(self):
        # negatives at/below 0.2, positives from 0.32 to 0.38
        probs = [0.1, 0.15, 0.2, 0.05] * 10 + [0.32, 0.35, 0.38] * 5
        labels = [False] * 40 + [True] * 15
        tau, f = select_threshold(probs, labels)
        assert f == 1.0
        assert 0.2 < tau < 0.4

    def test_ties_break_toward_larger_tau(self):
        probs = [0.9, 0.9, 0.1]
        labels = [True, True, False]
        tau, f = select_threshold(probs, labels)
        assert f == 1.0
        assert tau == 0.9

    @pytest.mark.parametrize("labels", [[], [False, False, False]])
    def test_labels_without_a_true_pair_are_refused(self, labels):
        with pytest.raises(TrainingError, match="no true pair among the labels"):
            select_threshold([0.2, 0.5, 0.9][: len(labels)], labels)

    @settings(max_examples=400, deadline=None)
    @example(pairs=[(0.5, True)])  # a single true pair
    @example(pairs=[(0.9, True), (0.9, True), (0.1, False)])  # F ties from 0.11 to 0.9
    @example(pairs=[(0.0, True), (1e-15, False), (float("nan"), True)])
    @given(pairs=st.lists(st.tuples(GRID_EDGES, st.booleans()), min_size=1, max_size=60))
    def test_counts_sweep_equals_the_pass_per_tau(self, pairs):
        probs, labels = (list(column) for column in zip(*pairs))
        if not any(labels):
            with pytest.raises(TrainingError, match="no true pair among the labels"):
                select_threshold(probs, labels)
            return
        tau, f = select_threshold(probs, labels)
        assert (tau, f) == reference_select_threshold(probs, labels)
        assert tau in THRESHOLD_GRID

    @pytest.mark.parametrize("chunk", [1, 3, PAIR_CHUNK])
    def test_streamed_counts_equal_select_threshold(self, chunk):
        rng = np.random.default_rng(chunk)
        n = 3 * PAIR_CHUNK + 5
        grid = np.array(THRESHOLD_GRID)
        # grid values and their neighbours, the clip floor, 0.0 and NaN among uniform draws
        edges = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
                                [0.0, 1e-15, 1 - 1e-15, np.nan]])
        probs = np.where(rng.random(n) < 0.5, rng.choice(edges, n), rng.random(n))
        labels = rng.random(n) < probs
        parts = [slice(start, start + chunk) for start in range(0, n, chunk)]
        counts = threshold_counts((probs[part], labels[part]) for part in parts)
        assert np.array_equal(counts, threshold_counts([(probs, labels)]))
        assert counts.sum() == n
        assert threshold_from_counts(counts) == select_threshold(probs, labels)
        streamed = select_threshold((probs[part], labels[part]) for part in parts)
        assert streamed == select_threshold(probs, labels)
        assert select_threshold(probs, labels) == reference_select_threshold(probs, labels)


def mixed_value_setup(rng):
    """Every A x B pair of two small record sets over three attributes, with
    missing values and values beyond the first ``n_known`` (never trained)."""
    schema = Schema(("a", "b", "c"))
    d = ValueDictionary(3)
    vocab = [[d.intern(attr, f"v{i}") for i in range(6)] for attr in range(3)]
    n_known = len(d)
    novel = [[d.intern(attr, f"new{i}") for i in range(2)] for attr in range(3)]
    store = EmbeddingStore(
        rng.normal(size=(len(d), 5)), rng.normal(size=(3, 5)), 5
    )

    def build(n, id_base):
        records = []
        for i in range(n):
            values = {}
            for attr in range(3):
                draw = rng.random()
                if draw < 0.2:
                    continue  # missing
                pool = novel[attr] if draw < 0.3 else vocab[attr]
                values[attr] = pool[int(rng.integers(len(pool)))]
            records.append(Record(id_base + 7 * i, values))
        return RecordSet(schema, d, tuple(rng.permutation(records).tolist()))

    records_a, records_b = build(30, 0), build(25, 5000)
    pairs = [CandidatePair(ra.entity_id, rb.entity_id) for ra in records_a for rb in records_b]
    return store, records_a, records_b, pairs, n_known


def trained_rows(store, n_known):
    """The store of the first ``n_known`` value rows: values past them are untrained."""
    return EmbeddingStore(store.value_vectors[:n_known], store.attribute_vectors, store.dim)


class TestFeatureMatrixEquivalence:
    @pytest.mark.parametrize("p", (1, 2))
    def test_rows_match_pair_terms_with_unknown_values(self, p):
        rng = np.random.default_rng(17 + p)
        store, records_a, records_b, pairs, n_known = mixed_value_setup(rng)
        trained = trained_rows(store, n_known)
        features, defined = feature_matrix(pairs, records_a, records_b, trained, p)
        bound = np.sqrt(5) if p == 1 else 1.0
        unknown_checked = 0
        for i, pair in enumerate(pairs):
            head, tail = records_a.get(pair.a_entity), records_b.get(pair.b_entity)
            terms = pair_terms(head, tail, store, p)
            assert defined[i] == (terms is not None)
            if terms is None:
                assert not features[i].any()
                continue
            for attr in range(3):
                v, u = head.values.get(attr), tail.values.get(attr)
                if v is not None and u is not None and v != u and max(v, u) >= n_known:
                    attr_norm = np.linalg.norm(store.attribute_vectors[attr], ord=p)
                    assert features[i, attr] == pytest.approx(-(2 * bound + attr_norm))
                    unknown_checked += 1
                else:
                    assert features[i, attr] == terms[attr]
        assert unknown_checked > 0

    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("block", (1, 3))
    def test_distance_blocks_keep_every_bit(self, p, block, monkeypatch):
        store, records_a, records_b, pairs, n_known = mixed_value_setup(
            np.random.default_rng(23 + p)
        )
        trained = trained_rows(store, n_known)
        whole, whole_defined = feature_matrix(pairs, records_a, records_b, trained, p)
        monkeypatch.setattr(scoring, "DISTANCE_BLOCK", block)
        features, defined = feature_matrix(pairs, records_a, records_b, trained, p)
        assert features.tobytes() == whole.tobytes()
        assert np.array_equal(defined, whole_defined)
        known_checked = 0
        for i, pair in enumerate(pairs):
            head, tail = records_a.get(pair.a_entity), records_b.get(pair.b_entity)
            terms = pair_terms(head, tail, store, p)
            assert defined[i] == (terms is not None)
            for attr in range(3):
                v, u = head.values.get(attr), tail.values.get(attr)
                if v is None or u is None or max(v, u) < n_known:
                    assert features[i, attr] == (0.0 if terms is None else terms[attr])
                    known_checked += v is not None and u is not None and v != u
        assert known_checked > 0

    def test_accepts_id_tuples_and_rejects_unknown_ids(self):
        from evolink.errors import LoadError

        store, records_a, records_b, *_ = two_attribute_setup()
        by_pair, _ = feature_matrix([CandidatePair(0, 1)], records_a, records_b, store)
        by_tuple, _ = feature_matrix([(0, 1)], records_a, records_b, store)
        assert np.array_equal(by_pair, by_tuple)
        with pytest.raises(LoadError, match="unknown entity id 99"):
            feature_matrix([(0, 99)], records_a, records_b, store)


def value_pair_setup(rng, n_a, n_b, n_values, n_novel, missing):
    """Every A x B pair of two record sets over three attributes with domains
    of ``n_values`` trained values plus ``n_novel`` untrained ones each, as
    Candidates; returns (store, candidates, n_known)."""
    schema = Schema(("a", "b", "c"))
    d = ValueDictionary(3)
    vocab = [[d.intern(attr, f"v{i}") for i in range(n)] for attr, n in enumerate(n_values)]
    n_known = len(d)
    pools = [np.array(vocab[attr] + [d.intern(attr, f"new{i}") for i in range(n_novel)])
             for attr in range(3)]
    store = EmbeddingStore(rng.normal(size=(len(d), 4)), rng.normal(size=(3, 4)), 4)

    def side(n, id_base):
        matrix = np.stack([pool[rng.integers(len(pool), size=n)] for pool in pools], axis=1)
        matrix[rng.random((n, 3)) < missing] = -1
        return RecordSet.from_columns(schema, d, id_base + 3 * np.arange(n), matrix)

    records_a, records_b = side(n_a, 0), side(n_b, 10_000)
    a, b = np.divmod(np.arange(n_a * n_b), n_b)
    return store, Candidates(records_a, records_b, a, b), n_known


def assert_rows_are_pair_terms(features, defined, cands, store, p, n_known):
    bound = math.sqrt(store.dim) if p == 1 else 1.0
    for i, pair in enumerate(cands):
        head, tail = cands.records_a.get(pair.a_entity), cands.records_b.get(pair.b_entity)
        terms = pair_terms(head, tail, store, p)
        assert defined[i] == (terms is not None)
        for attr in range(3):
            v, u = head.values.get(attr), tail.values.get(attr)
            if v is not None and u is not None and v != u and max(v, u) >= n_known:
                attr_norm = np.linalg.norm(store.attribute_vectors[attr], ord=p)
                assert features[i, attr] == pytest.approx(-(2 * bound + attr_norm))
            else:
                assert features[i, attr] == (0.0 if terms is None else terms[attr])


class TestValuePairTables:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(1, 14), st.integers(1, 14)),
        n_values=st.tuples(*[st.integers(1, 40)] * 3),
        n_novel=st.integers(0, 3),
        missing=st.sampled_from([0.0, 0.3]),
        p=st.sampled_from([1, 2]),
        chunk=st.integers(1, 50),
    )
    def test_rank_tables_equal_pair_terms_and_the_unique_path(
        self, seed, sizes, n_values, n_novel, missing, p, chunk
    ):
        store, cands, n_known = value_pair_setup(
            np.random.default_rng(seed), *sizes, n_values, n_novel, missing
        )
        a, b = cands.records_a, cands.records_b
        trained = trained_rows(store, n_known)
        features, defined = feature_matrix(cands, a, b, trained, p)
        assert_rows_are_pair_terms(features, defined, cands, store, p, n_known)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(idfiles, "TABLE_SLOTS_PER_KEY", 0)  # np.unique everywhere
            sorted_features, sorted_defined = feature_matrix(cands, a, b, trained, p)
        assert sorted_features.tobytes() == features.tobytes()
        assert np.array_equal(sorted_defined, defined)

        # consecutive chunks sharing one set of tables: the same bits, and each
        # distinct known mismatch's distance computed once where a table is kept
        terms = weights_mod.ValuePairTerms(cands, trained, p)
        computed = {attr: [] for attr in range(3)}
        compute = terms._distances

        def counting(attr, table, pairs):
            computed[attr] += pairs.tolist()
            return compute(attr, table, pairs)

        terms._distances = counting
        chunks = [
            feature_matrix(cands.take(slice(start, start + chunk)), a, b, trained, p, terms=terms)
            for start in range(0, len(cands), chunk)
        ]
        assert np.concatenate([f for f, _ in chunks]).tobytes() == features.tobytes()
        assert np.array_equal(np.concatenate([d for _, d in chunks]), defined)
        for attr in range(3):
            dense = terms._tables[attr].terms is not None
            event("table" if dense else "np.unique fallback")
            v, u = a.value_matrix[cands.a, attr], b.value_matrix[cands.b, attr]
            known = (v >= 0) & (u >= 0) & (v != u) & (v < n_known) & (u < n_known)
            distinct = len(set(zip(v[known].tolist(), u[known].tolist())))
            if dense:
                assert len(computed[attr]) == len(set(computed[attr])) == distinct
            else:
                assert len(set(computed[attr])) == distinct

    @pytest.mark.parametrize("p", (1, 2))
    def test_a_domain_past_the_table_rule_sorts_instead(self, p):
        store, cands, n_known = value_pair_setup(
            np.random.default_rng(p), 1, 20, (60, 60, 2), 2, 0.1
        )
        trained = trained_rows(store, n_known)
        terms = weights_mod.ValuePairTerms(cands, trained, p)
        assert terms._tables[0].terms is None and terms._tables[1].terms is None
        assert terms._tables[2].terms is not None
        features, defined = feature_matrix(
            cands, cands.records_a, cands.records_b, trained, p, terms=terms
        )
        assert_rows_are_pair_terms(features, defined, cands, store, p, n_known)
        # a scorer made for one pair keeps the form that count gives its
        # tables, however many pairs it then scores
        few = weights_mod.ValuePairTerms(cands.take(slice(0, 1)), trained, p)
        chunks = [few.features(chunk) for chunk in cands.chunks()]
        assert all(table.terms is None for table in few._tables)
        assert np.concatenate([f for f, _ in chunks]).tobytes() == features.tobytes()


class TestOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_negative_score_clips_without_warning(self):
        assert sigmoid(-1000.0) == 1e-15
        assert sigmoid(np.array([-1000.0, 0.0, 1000.0])).tolist() == [1e-15, 0.5, 1 - 1e-15]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_epoch_loss_does_not_warn_on_overflow(self):
        from evolink.weights import _epoch_loss_and_gradient

        features = np.array([[-1000.0, 0.0], [-0.5, -0.2]])
        total, grad = _epoch_loss_and_gradient(features, features, np.ones(2), RLHyperparams())
        assert np.isfinite(total) and np.isfinite(grad).all()
