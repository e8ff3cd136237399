import math

import numpy as np
import pytest

from evolink.ekg import AttributeTriple, EvolutionKG, EvolutionTriple, NegativeSampler
from evolink.embed import (
    EmbedHyperparams,
    EmbeddingStore,
    ea_score,
    gradient_check,
    init_embeddings,
    margin_loss,
    scatter_rows,
    train_embeddings,
)
from evolink.errors import ConfigError, DomainError, TrainingError
from evolink.ingest import ValueDictionary
from oracles import observed_tails, values_of

TOY_HP = EmbedHyperparams(
    dim=16, margin=0.5, learning_rate=0.1, epochs=300, batch_size=4, negatives=2, seed=0
)


def table2_scale_kg():
    """6 attributes x 582 values = 3,492 values, mirroring a census-scale graph."""
    d = ValueDictionary(6)
    entities = []
    triples = []
    for attr in range(6):
        for i in range(582):
            vid = d.intern(attr, f"a{attr}v{i}")
            eid = attr * 1000 + i
            entities.append(eid)
            triples.append(AttributeTriple(eid, vid, attr))
    return EvolutionKG.from_triples(
        entities=set(entities), values=d, attribute_triples=[], evolution=[]
    )


class TestInit:
    def test_census_scale_allocation(self):
        kg = table2_scale_kg()
        store = init_embeddings(kg, EmbedHyperparams(dim=50))
        assert store.value_vectors.shape == (3492, 50)
        assert store.attribute_vectors.shape == (6, 50)

    def test_value_vectors_unit_norm(self, civil_toy):
        store = init_embeddings(civil_toy["kg"], EmbedHyperparams(dim=4, seed=9))
        norms = np.linalg.norm(store.value_vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_same_seed_identical(self, civil_toy):
        hp = EmbedHyperparams(dim=8, seed=21)
        one = init_embeddings(civil_toy["kg"], hp)
        two = init_embeddings(civil_toy["kg"], hp)
        assert np.array_equal(one.value_vectors, two.value_vectors)
        assert np.array_equal(one.attribute_vectors, two.attribute_vectors)

    def test_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            EmbedHyperparams(dim=0)
        with pytest.raises(ConfigError):
            EmbedHyperparams(norm=3)
        with pytest.raises(ConfigError):
            EmbedHyperparams(margin=0.0)

    @pytest.mark.parametrize("field, value", [
        ("margin", math.nan), ("margin", math.inf),
        ("learning_rate", math.nan), ("learning_rate", math.inf),
    ])
    def test_non_finite_setting_refused_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: must be finite and > 0$"):
            EmbedHyperparams(**{field: value})


def store_with(vectors, attributes):
    value_vectors = np.array(vectors, dtype=float)
    attribute_vectors = np.array(attributes, dtype=float)
    return EmbeddingStore(value_vectors, attribute_vectors, value_vectors.shape[1])


class TestEaScore:
    def test_perfect_translation_scores_zero(self):
        store = store_with([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]])
        assert ea_score(0, 1, 0, store) == 0.0

    def test_identity_with_zero_attribute(self):
        store = store_with([[0.3, -0.4]], [[0.0, 0.0]])
        assert ea_score(0, 0, 0, store) == 0.0

    def test_hand_computed_distance(self):
        # v=(1,0), a=(0,1), u=(0,0) -> -sqrt(2)
        store = store_with([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]])
        assert ea_score(0, 1, 0, store, p=2) == pytest.approx(-np.sqrt(2), abs=1e-12)
        assert ea_score(0, 1, 0, store, p=1) == pytest.approx(-2.0, abs=1e-12)

    def test_self_score_is_attribute_norm(self, rng):
        vectors = rng.uniform(-1, 1, size=(3, 5))
        attributes = rng.uniform(-1, 1, size=(2, 5))
        store = EmbeddingStore(vectors, attributes, 5)
        for a in range(2):
            expected = -np.linalg.norm(attributes[a])
            assert ea_score(1, 1, a, store) == pytest.approx(expected, rel=1e-12)

    def test_domain_check_uses_dictionary(self, civil_toy):
        store = init_embeddings(civil_toy["kg"], EmbedHyperparams(dim=4))
        d = civil_toy["dictionary"]
        ids = civil_toy["ids"]
        with pytest.raises(DomainError):
            ea_score(ids["s"], ids["m"], 1, store, dictionary=d)


class TestTraining:
    def test_zero_epochs_returns_initialized_store(self, civil_toy):
        hp = EmbedHyperparams(dim=8, epochs=0, seed=4)
        store, history = train_embeddings(civil_toy["kg"], hp)
        fresh = init_embeddings(civil_toy["kg"], hp)
        assert history == []
        assert np.array_equal(store.value_vectors, fresh.value_vectors)
        assert np.array_equal(store.attribute_vectors, fresh.attribute_vectors)

    def test_toy_ranking_property(self, civil_toy):
        ids = civil_toy["ids"]
        s, m, w = ids["s"], ids["m"], ids["w"]
        store, _ = train_embeddings(civil_toy["kg"], TOY_HP)
        assert ea_score(s, m, 0, store) > ea_score(s, s, 0, store)
        assert ea_score(s, m, 0, store) > ea_score(s, w, 0, store)
        assert ea_score(m, w, 0, store) > ea_score(m, m, 0, store)
        assert ea_score(m, w, 0, store) > ea_score(m, s, 0, store)

    def test_loss_mostly_non_increasing_early(self, civil_toy):
        _, history = train_embeddings(civil_toy["kg"], TOY_HP)
        first = history[:10]
        increases = [
            (later - earlier) / earlier
            for earlier, later in zip(first, first[1:])
            if later > earlier
        ]
        assert len(increases) <= 1
        assert all(jump < 0.05 for jump in increases)

    def test_norm_constraint_after_training(self, civil_toy):
        store, _ = train_embeddings(civil_toy["kg"], TOY_HP)
        assert np.linalg.norm(store.value_vectors, axis=1).max() <= 1.0 + 1e-9

    def test_bitwise_determinism(self, civil_toy):
        one, h1 = train_embeddings(civil_toy["kg"], TOY_HP)
        two, h2 = train_embeddings(civil_toy["kg"], TOY_HP)
        assert h1 == h2
        assert np.array_equal(one.value_vectors, two.value_vectors)
        assert np.array_equal(one.attribute_vectors, two.attribute_vectors)

    def test_empty_evolution_set_rejected(self):
        d = ValueDictionary(1)
        x = d.intern(0, "x")
        kg = EvolutionKG.from_triples(
            entities=[1], values=d,
            attribute_triples=[AttributeTriple(1, x, 0)], evolution=[],
        )
        with pytest.raises(TrainingError):
            train_embeddings(kg, EmbedHyperparams(dim=4, epochs=1))

    def test_divergence_aborts_with_diagnostic(self, civil_toy):
        hp = EmbedHyperparams(dim=8, learning_rate=1e160, epochs=5, batch_size=1, seed=0)
        with pytest.raises(TrainingError, match="learning rate"):
            train_embeddings(civil_toy["kg"], hp)


def active_pair(rng, dim=8, margin=1.0, p=2):
    """Random store and triple pair with a strictly active hinge."""
    while True:
        vectors = rng.uniform(-1, 1, size=(6, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        attributes = rng.uniform(-0.8, 0.8, size=(2, dim))
        store = EmbeddingStore(vectors, attributes, dim)
        ids = rng.choice(6, size=3, replace=False)
        pos = EvolutionTriple(int(ids[0]), int(ids[1]), 0)
        neg = EvolutionTriple(int(ids[0]), int(ids[2]), 0)
        if margin_loss(store, pos, neg, margin, p) > 0.05:
            return store, pos, neg


class TestScatterRows:
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_add_at_bit_for_bit(self, seed):
        # three blocks, as in training: indices repeat inside and across them
        rng = np.random.default_rng(seed)
        blocks = [rng.integers(0, 9, size=n) for n in (17, 17, 34)]
        grads = [rng.normal(size=(len(b), 5)) * 10.0 ** rng.integers(-8, 8, size=(len(b), 1))
                 for b in blocks]
        grads[1] = -grads[1]
        index, rows = np.concatenate(blocks), np.concatenate(grads)
        expected = np.zeros((9, 5))
        for b, g in zip(blocks, grads):
            np.add.at(expected, b, g)
        distinct, summed = scatter_rows(index, rows)
        np.testing.assert_array_equal(distinct, np.unique(index))
        assert summed.tobytes() == expected[distinct].tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_zero_rows_change_no_sum(self, seed):
        # training leaves out the ±0.0 rows of inactive hinges: wherever they
        # sit, the sum of every index that carries a nonzero row keeps its bits
        rng = np.random.default_rng(seed)
        index = rng.integers(0, 9, size=40)
        rows = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-8, 8, size=(40, 1))
        n_zero = int(rng.integers(1, 60))
        zeros = np.where(rng.random((n_zero, 5)) < 0.5, -0.0, 0.0)
        zero_index = rng.integers(0, 12, size=n_zero)  # 9-11 carry only zeros
        at = np.sort(rng.integers(0, 41, size=n_zero))
        distinct, summed = scatter_rows(index, rows)
        with_zeros = scatter_rows(
            np.insert(index, at, zero_index), np.insert(rows, at, zeros, axis=0)
        )
        np.testing.assert_array_equal(with_zeros[0], np.union1d(index, zero_index))
        carried = np.searchsorted(with_zeros[0], distinct)
        assert with_zeros[1][carried].tobytes() == summed.tobytes()
        only_zeros = np.setdiff1d(zero_index, index)
        only = with_zeros[1][np.searchsorted(with_zeros[0], only_zeros)]
        assert only.tobytes() == np.zeros_like(only).tobytes()  # +0.0, never -0.0


class TestGradientCheck:
    def test_inactive_hinge_grads_vanish(self, rng):
        # negative far away: hinge is comfortably inactive
        vectors = np.eye(4)
        attributes = np.zeros((1, 4))
        vectors[1] = vectors[0]  # positive at distance 0
        store = EmbeddingStore(vectors, attributes, 4)
        pos = EvolutionTriple(0, 1, 0)
        neg = EvolutionTriple(0, 2, 0)
        assert margin_loss(store, pos, neg, margin=1.0) == 0.0
        result = gradient_check(store, pos, neg, margin=1.0, epsilon=1e-5)
        assert result.max_relative_error == 0.0
        assert result.checked > 0

    def test_random_active_points_match_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            store, pos, neg = active_pair(rng)
            result = gradient_check(store, pos, neg, margin=1.0, epsilon=1e-5)
            worst = max(worst, result.max_relative_error)
        assert worst <= 1e-4

    def test_p1_coordinate_tie_skipped(self):
        # positive residual (0.0, 1.4) has an exact zero coordinate under p=1,
        # and the nearby negative keeps the hinge strictly active
        vectors = np.array([[0.5, 0.5], [0.5, -0.5], [0.4, 0.5]])
        attributes = np.array([[0.0, 0.4]])
        store = EmbeddingStore(vectors, attributes, 2)
        pos = EvolutionTriple(0, 1, 0)
        neg = EvolutionTriple(0, 2, 0)
        assert margin_loss(store, pos, neg, margin=1.0, p=1) > 0
        result = gradient_check(store, pos, neg, margin=1.0, p=1, epsilon=1e-5)
        assert result.skipped > 0
        assert result.max_relative_error <= 1e-4

    def test_epsilon_validated(self, rng):
        store, pos, neg = active_pair(rng)
        with pytest.raises(ConfigError):
            gradient_check(store, pos, neg, margin=1.0, epsilon=1e-2)


def random_graph(rng, identity=True):
    """60 evolution triples over three attributes with domains of 3, 6 and 25
    values, interleaved ids; with identity triples, one head's pool is empty."""
    d = ValueDictionary(3)
    sizes = (3, 6, 25)
    for i in range(max(sizes)):
        for attr, size in enumerate(sizes):
            if i < size:
                d.intern(attr, f"a{attr}v{i}")
    domains = [values_of(d, attr) for attr in range(3)]
    evolution = set()
    if identity:  # the first value of attribute 0 evolves into every value
        evolution = {EvolutionTriple(domains[0][0], tail, 0) for tail in domains[0]}
    while len(evolution) < 60:
        attr = int(rng.choice(3, p=[0.15, 0.25, 0.6]))
        head, tail = rng.choice(domains[attr], size=2, replace=not identity)
        evolution.add(EvolutionTriple(int(head), int(tail), attr))
    return EvolutionKG.from_triples(
        entities=[], values=d, attribute_triples=[], evolution=evolution
    )


class TestEpochDraw:
    """Training draws an epoch's negatives in one call; these pin that it is
    the stream of one draw per batch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_one_integers_call_equals_consecutive_calls(self, seed):
        rng = np.random.default_rng(seed)
        parts = [
            rng.integers(1, high, size=int(rng.integers(0, 40)))
            for high in (2, 50, 2**31, 2**32 + 1, 2**40, 2**62)  # below and above 2**32
        ]
        parts += [np.concatenate(parts[:3])[::-1], np.concatenate(parts[2:])]  # mixed
        rng.shuffle(parts)
        one, many = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        drawn = one.integers(0, np.concatenate(parts))
        expected = np.concatenate([many.integers(0, bounds) for bounds in parts])
        assert drawn.tolist() == expected.tolist()
        assert one.bit_generator.state == many.bit_generator.state
        assert one.integers(0, 2**40, size=3).tolist() == many.integers(0, 2**40, size=3).tolist()

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_epoch_draw_equals_per_batch_draws(self, k):
        for seed in range(10):
            kg = random_graph(np.random.default_rng(seed))
            sampler = NegativeSampler(kg)
            rows = np.flatnonzero(sampler.pool_sizes)
            rows = np.random.default_rng(seed).permutation(np.repeat(rows, 2))
            assert sampler.pool_sizes[rows].min() < k or k == 1  # some rows draw with replacement
            for batch in (1, 7, 16, len(rows) - 1, len(rows), len(rows) + 5):
                one, many = np.random.default_rng(seed), np.random.default_rng(seed)
                epoch = sampler.draw(rows, k, one, batch)
                batches = [
                    sampler.draw(rows[start : start + batch], k, many)
                    for start in range(0, len(rows), batch)
                ]
                np.testing.assert_array_equal(epoch, np.concatenate(batches))
                assert one.bit_generator.state == many.bit_generator.state


def frozen_train(ekg, hp):
    """The batch loop that train_embeddings ran before it drew once per epoch
    and took gradients only from active hinges, kept as its oracle: per batch,
    one rank draw per column from list pools, every row's gradient (zeroed
    where the hinge is inactive), an ``np.unique`` scatter, then every
    touched value projected with ``np.linalg.norm``."""
    def distances(residual):
        if hp.norm == 1:
            return np.abs(residual).sum(axis=1)
        return np.sqrt((residual * residual).sum(axis=1))

    def unit_gradients(residual, distance):
        if hp.norm == 1:
            return np.sign(residual)
        grad = residual / np.maximum(distance, 1e-12)[:, None]
        grad[distance < 1e-12] = 0.0
        return grad

    def scatter(index, rows):
        distinct, inverse = np.unique(index, return_inverse=True)
        summed = np.zeros((len(distinct), rows.shape[1]))
        np.add.at(summed, inverse.ravel(), rows)
        return distinct, summed

    domains = [values_of(ekg.values, attr) for attr in range(ekg.values.n_attributes)]
    columns = ekg.heads.tolist(), ekg.tails.tolist(), ekg.attributes.tolist()
    pools = [
        [v for v in domains[a] if v not in observed_tails(ekg, a, h)] for h, _, a in zip(*columns)
    ]
    kept = [row for row, pool in enumerate(pools) if pool]
    if not kept:
        raise TrainingError("every evolution triple has an empty negative pool")
    pools = [pools[row] for row in kept]
    heads, tails, attrs = ekg.heads[kept], ekg.tails[kept], ekg.attributes[kept]
    store = init_embeddings(ekg, hp)
    values, attributes = store.value_vectors, store.attribute_vectors
    rng = np.random.default_rng([hp.seed or 0, 1])
    n, k = len(kept), hp.negatives
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, hp.batch_size):
                batch = perm[start : start + hp.batch_size]
                sizes = np.array([len(pools[row]) for row in batch])
                distinct = sizes >= k
                ranks = np.empty((len(batch), k), dtype=np.int64)
                for i in range(k):
                    r = rng.integers(0, np.where(distinct, sizes - i, sizes))
                    for c in np.sort(ranks[:, :i], axis=1).T:
                        r += distinct & (r >= c)
                    ranks[:, i] = r
                neg_tails = np.array(
                    [pools[row][r] for row, rs in zip(batch, ranks.tolist()) for r in rs]
                )
                reps = np.repeat(batch, k)
                h, t, a = heads[reps], tails[reps], attrs[reps]

                r_pos = values[h] + attributes[a] - values[t]
                r_neg = values[h] + attributes[a] - values[neg_tails]
                d_pos, d_neg = distances(r_pos), distances(r_neg)
                violation = hp.margin + d_pos - d_neg
                total += float(np.maximum(violation, 0.0).sum())
                active = violation > 0.0
                if not active.any():
                    continue
                g_pos, g_neg = unit_gradients(r_pos, d_pos), unit_gradients(r_neg, d_neg)
                g_pos[~active] = 0.0
                g_neg[~active] = 0.0
                diff = g_pos - g_neg
                touched, value_grad = scatter(
                    np.concatenate([h, t, neg_tails]), np.concatenate([diff, -g_pos, g_neg])
                )
                touched_attrs, attr_grad = scatter(a, diff)
                values[touched] -= hp.learning_rate * value_grad
                attributes[touched_attrs] -= hp.learning_rate * attr_grad
                norms = np.linalg.norm(values[touched], axis=1)
                over = norms > 1.0
                if over.any():
                    values[touched[over]] /= norms[over, None]
            mean_loss = total / (n * k)
            if not math.isfinite(mean_loss):
                raise TrainingError("non-finite embedding loss")
            history.append(mean_loss)
    return store, history


class TestTrainingOracle:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("norm", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 7])  # 7 does not divide the 57 kept rows
    def test_equals_frozen_loop_bit_for_bit(self, k, norm, batch_size):
        for seed, (learning_rate, margin) in enumerate([(0.05, 1.0), (0.5, 2.0), (3.0, 0.1)]):
            kg = random_graph(np.random.default_rng(seed))
            hp = EmbedHyperparams(
                dim=6, margin=margin, learning_rate=learning_rate, epochs=12,
                batch_size=batch_size, negatives=k, norm=norm, seed=seed,
            )
            store, history = train_embeddings(kg, hp)
            expected, expected_history = frozen_train(kg, hp)
            assert history == expected_history
            assert store.value_vectors.tobytes() == expected.value_vectors.tobytes()
            assert store.attribute_vectors.tobytes() == expected.attribute_vectors.tobytes()

    def test_equal_once_few_hinges_bind(self):
        # late epochs, where the loss is small, are where most rows are left out
        kg = random_graph(np.random.default_rng(5), identity=False)
        hp = EmbedHyperparams(
            dim=32, margin=0.3, learning_rate=0.1, epochs=150, batch_size=16, negatives=2, seed=3
        )
        store, history = train_embeddings(kg, hp)
        expected, expected_history = frozen_train(kg, hp)
        assert history == expected_history and history[-1] < 0.3 * history[0]
        assert store.value_vectors.tobytes() == expected.value_vectors.tobytes()
        assert store.attribute_vectors.tobytes() == expected.attribute_vectors.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    def test_divergence_raises_in_both(self, k):
        kg = random_graph(np.random.default_rng(1))
        hp = EmbedHyperparams(dim=6, learning_rate=1e160, epochs=6, batch_size=5, negatives=k)
        with pytest.raises(TrainingError):
            frozen_train(kg, hp)
        with pytest.raises(TrainingError, match="learning rate"):
            train_embeddings(kg, hp)
