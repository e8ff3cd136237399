import numpy as np
import pytest

from evolink.ekg import AttributeTriple, EvolutionKG, EvolutionTriple
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
