import json

import numpy as np
import pytest

from evolink.embed import EmbedHyperparams, init_embeddings
from evolink.errors import LoadError
from evolink.model_io import EMBED_KEYS, HEADER_KEYS, ModelBundle, load_model, save_model
from evolink.weights import WeightVector


def toy_bundle(civil_toy, with_weights=True):
    hp = EmbedHyperparams(dim=6, seed=13)
    store = init_embeddings(civil_toy["kg"], hp)
    weights = WeightVector(np.array([0.75])) if with_weights else None
    return ModelBundle(
        schema=civil_toy["schema"],
        dictionary=civil_toy["dictionary"],
        store=store,
        embed_hp=hp,
        weights=weights,
        rl_margin=0.3 if with_weights else None,
        loss_sign="corrected" if with_weights else None,
        tau=0.31 if with_weights else None,
    )


class TestRoundTrip:
    def test_write_read_write_is_byte_identical(self, civil_toy, tmp_path):
        bundle = toy_bundle(civil_toy)
        first = tmp_path / "model.bin"
        second = tmp_path / "model2.bin"
        save_model(first, bundle)
        save_model(second, load_model(first))
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_contents_match(self, civil_toy, tmp_path):
        bundle = toy_bundle(civil_toy)
        path = tmp_path / "model.bin"
        save_model(path, bundle)
        loaded = load_model(path)
        assert loaded.schema.attributes == bundle.schema.attributes
        assert np.array_equal(loaded.store.value_vectors, bundle.store.value_vectors)
        assert np.array_equal(
            loaded.store.attribute_vectors, bundle.store.attribute_vectors
        )
        assert loaded.embed_hp == bundle.embed_hp
        assert np.array_equal(loaded.weights.weights, bundle.weights.weights)
        assert loaded.tau == bundle.tau
        assert loaded.loss_sign == "corrected"
        # dictionary ids preserved
        for vid, attr, text in bundle.dictionary.entries():
            assert loaded.dictionary.lookup(attr, text) == vid

    def test_weights_optional(self, civil_toy, tmp_path):
        bundle = toy_bundle(civil_toy, with_weights=False)
        path = tmp_path / "model.bin"
        save_model(path, bundle)
        loaded = load_model(path)
        assert loaded.weights is None
        assert loaded.tau is None


class TestErrors:
    def test_not_a_model(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b'{"format":"something-else"}\n')
        with pytest.raises(LoadError, match="not a model file"):
            load_model(path)

    def test_truncated_payload(self, civil_toy, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, toy_bundle(civil_toy))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(LoadError, match="payload"):
            load_model(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"no newline here")
        with pytest.raises(LoadError, match="header"):
            load_model(path)

    @pytest.mark.parametrize(
        "key", [*HEADER_KEYS, *(f"embed.{k}" for k in EMBED_KEYS)]
    )
    def test_missing_header_key_named(self, civil_toy, tmp_path, key):
        path = tmp_path / "model.bin"
        save_model(path, toy_bundle(civil_toy))
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        *parents, last = key.split(".")
        node = header
        for part in parents:
            node = node[part]
        del node[last]
        path.write_bytes(json.dumps(header).encode() + raw[newline:])
        with pytest.raises(LoadError, match=f"lacks key '{key}'"):
            load_model(path)
