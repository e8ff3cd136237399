import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolink.embed import EmbeddingStore, EmbedHyperparams, init_embeddings
from evolink.errors import LoadError
from evolink.ingest import Schema, ValueDictionary
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
        with pytest.raises(LoadError, match=re.escape(f": {key}: required")):
            load_model(path)

    def test_repeated_key_in_a_nested_object_named(self, civil_toy, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, toy_bundle(civil_toy))
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = raw[:newline].replace(b'"embed":{', b'"embed":{"dim":1,', 1)
        path.write_bytes(header + raw[newline:])
        with pytest.raises(LoadError, match=re.escape("bad model header (repeated key 'dim')")):
            load_model(path)


def rewrite_header(path, key, value):
    """Set one header key, ``embed.dim`` style, of the model file at ``path``."""
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    *parents, last = key.split(".")
    node = header
    for part in parents:
        node = node[part]
    node[last] = value
    path.write_bytes(json.dumps(header).encode() + raw[newline:])


class TestHeaderValues:
    @pytest.mark.parametrize("key, value, message", [
        ("embed.dim", "50", "embed.dim: expected int, got '50'"),
        ("embed.norm", 3, "embed.norm: must be 1 or 2"),
        ("embed.depth", 3, "embed.depth: unknown key"),
        ("weights", "abc", "weights: expected list[float] | None, got 'abc'"),
        ("weights", [0.5, 0.5], "weights: expected 1 values, got 2"),
        ("values", 5, "values: expected list, got 5"),
        ("attributes", 5, "attributes: expected list[str], got 5"),
        ("attributes", ["civil_status", "Civil_Status"], "attributes: names must be unique"),
        ("blocking_attribute", 1, "blocking_attribute: id 1 out of range"),
        ("tau", "x", "tau: expected float | None, got 'x'"),
        ("tau", 7.0, "tau: must be in (0, 1), got 7.0"),
        ("tau", 0, "tau: must be in (0, 1), got 0"),
        ("tau", 1.0, "tau: must be in (0, 1), got 1.0"),
        ("depth", 3, "depth: unknown key"),
        ("embed.dim", 7, "embed.dim: 7 does not match dim 6"),
        ("rl_margin", 7.0, "rl_margin: must be in (0, 1), got 7.0"),
        ("rl_margin", 0, "rl_margin: must be in (0, 1), got 0"),
        ("loss_sign", "bogus", "loss_sign: unknown mode 'bogus'"),
    ])
    def test_malformed_value_named(self, civil_toy, tmp_path, key, value, message):
        path = tmp_path / "model.bin"
        save_model(path, toy_bundle(civil_toy))
        rewrite_header(path, key, value)
        with pytest.raises(LoadError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("column", [0, -1])
    def test_non_finite_payload_named(self, civil_toy, tmp_path, column):
        path = tmp_path / "model.bin"
        save_model(path, toy_bundle(civil_toy))
        head, payload = path.read_bytes().split(b"\n", 1)
        vectors = np.frombuffer(payload, dtype="<f8").copy()
        vectors[column] = np.inf if column else np.nan  # a value or an attribute vector
        path.write_bytes(head + b"\n" + vectors.tobytes())
        with pytest.raises(LoadError, match=re.escape(
            f"{path}: payload: non-finite embedding entries"
        )):
            load_model(path)

    @pytest.mark.parametrize("entry", [
        [1, "single"], [-1, "single"], [0, 5], ["0", "single"], [True, "single"], [0], 5,
    ])
    def test_malformed_value_entry_named(self, civil_toy, tmp_path, entry):
        path = tmp_path / "model.bin"
        save_model(path, toy_bundle(civil_toy))
        values = json.loads(path.read_bytes().split(b"\n", 1)[0])["values"]
        rewrite_header(path, "values", [values[0], entry, *values[2:]])
        with pytest.raises(LoadError, match=re.escape("values.1: expected [attribute id, text]")):
            load_model(path)


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """A small model file: one attribute of three values, two dimensions."""
    dictionary = ValueDictionary(1)
    for text in ("single", "married", "widowed"):
        dictionary.intern(0, text)
    bundle = ModelBundle(
        schema=Schema(("civil_status",), 0),
        dictionary=dictionary,
        store=EmbeddingStore(np.arange(6.0).reshape(3, 2), np.ones((1, 2)), 2),
        embed_hp=EmbedHyperparams(dim=2, seed=3),
        weights=WeightVector(np.array([0.75])),
        rl_margin=0.3,
        loss_sign="corrected",
        tau=0.31,
    )
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(path, bundle)
    return path


@given(
    st.sampled_from(["format", *HEADER_KEYS, *(f"embed.{k}" for k in EMBED_KEYS)]),
    JSON_VALUES,
)
def test_any_one_header_value_loads_or_raises_load_error(saved_model, key, value):
    path = saved_model.with_name("changed.bin")
    path.write_bytes(saved_model.read_bytes())
    rewrite_header(path, key, value)
    try:
        bundle = load_model(path)
    except LoadError:
        return
    assert isinstance(bundle, ModelBundle)
