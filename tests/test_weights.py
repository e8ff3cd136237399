import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolink.embed import EmbeddingStore
from evolink.errors import ConfigError, UndefinedPairError
from evolink.ingest import Record, RecordSet, Schema, ValueDictionary
from evolink.pipeline import CandidatePair
from evolink.weights import (
    RLHyperparams,
    WeightVector,
    classify,
    feature_matrix,
    g_score,
    link_probability,
    mismatch_indicator,
    pair_terms,
    select_threshold,
    sigmoid,
    train_weights,
    weight_gradient_check,
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


class TestMismatchIndicator:
    def test_equal_is_zero(self):
        assert mismatch_indicator(7, 7) == 0

    def test_different_is_one(self):
        assert mismatch_indicator(7, 9) == 1

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_symmetric(self, v, u):
        assert mismatch_indicator(v, u) == mismatch_indicator(u, v)


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
        g = terms @ w
        g_scaled = terms @ (3.7 * w)
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
        features, defined = feature_matrix(
            pairs, records_a, extended_b, store, n_known_values=4
        )
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

    def test_empty_side_rejected(self):
        store, records_a, records_b, pos, neg = separable_training_setup()
        from evolink.errors import TrainingError

        with pytest.raises(TrainingError):
            train_weights([], neg, records_a, records_b, store, RLHyperparams())

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            RLHyperparams(margin=0.0)
        with pytest.raises(ConfigError):
            RLHyperparams(loss_sign="mystery")


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


class TestFeatureMatrixEquivalence:
    @pytest.mark.parametrize("p", (1, 2))
    def test_rows_match_pair_terms_with_unknown_values(self, p):
        rng = np.random.default_rng(17 + p)
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
        features, defined = feature_matrix(pairs, records_a, records_b, store, p, n_known)
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

    def test_accepts_id_tuples_and_rejects_unknown_ids(self):
        from evolink.errors import LoadError

        store, records_a, records_b, *_ = two_attribute_setup()
        by_pair, _ = feature_matrix([CandidatePair(0, 1)], records_a, records_b, store)
        by_tuple, _ = feature_matrix([(0, 1)], records_a, records_b, store)
        assert np.array_equal(by_pair, by_tuple)
        with pytest.raises(LoadError, match="unknown entity id 99"):
            feature_matrix([(0, 99)], records_a, records_b, store)


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
