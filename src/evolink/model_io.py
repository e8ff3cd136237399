"""Single-file model persistence: JSON header line + raw float64 payload.

The header carries the schema, the full value dictionary, the embedding
hyperparameters, and (once weight training ran) the attribute weights,
probability-margin, loss mode, and selected decision threshold. The payload
is the value matrix followed by the attribute matrix, little-endian float64,
C order. A write -> read -> write cycle is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .candidates import check_threshold
from .embed import EmbeddingStore, EmbedHyperparams
from .errors import ConfigError, LoadError, TrainingError
from .idfiles import whole_file
from .ingest import Schema, ValueDictionary, json_fits, read_fields, read_object
from .weights import WeightVector, check_loss_sign, check_margin

FORMAT_TAG = "evolink-model/1"
# the header's keys besides "format", with their JSON types; "embed" holds EmbedHyperparams
HEADER_TYPES = {
    "dim": "int", "attributes": "list[str]", "blocking_attribute": "int | None",
    "values": "list", "embed": None, "weights": "list[float] | None",
    "rl_margin": "float | None", "loss_sign": "str | None", "tau": "float | None",
}
HEADER_KEYS = tuple(HEADER_TYPES)
EMBED_KEYS = tuple(f.name for f in fields(EmbedHyperparams))


@dataclass
class ModelBundle:
    schema: Schema
    dictionary: ValueDictionary
    store: EmbeddingStore
    embed_hp: EmbedHyperparams
    weights: WeightVector | None = None
    rl_margin: float | None = None
    loss_sign: str | None = None
    tau: float | None = None


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    header = {
        "format": FORMAT_TAG,
        "dim": bundle.store.dim,
        "attributes": list(bundle.schema.attributes),
        "blocking_attribute": bundle.schema.blocking_attribute,
        "values": [[attr, text] for _, attr, text in bundle.dictionary.entries()],
        "embed": asdict(bundle.embed_hp),
        "weights": None
        if bundle.weights is None
        else [float(w) for w in bundle.weights.weights],
        "rl_margin": bundle.rl_margin,
        "loss_sign": bundle.loss_sign,
        "tau": bundle.tau,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    values = np.ascontiguousarray(bundle.store.value_vectors, dtype="<f8")
    attrs = np.ascontiguousarray(bundle.store.attribute_vectors, dtype="<f8")
    with whole_file(path, "wb") as fh:
        fh.write(header_bytes)
        fh.write(b"\n")
        fh.write(values.tobytes())
        fh.write(attrs.tobytes())


def load_model(path: str | Path) -> ModelBundle:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise LoadError(f"{path}: missing model header")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LoadError(f"{path}: bad model header ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
        found = header.get("format") if isinstance(header, dict) else None
        raise LoadError(f"{path}: not a model file (format {found!r})")
    try:
        header = read_object(header, "", {"format": "str", **HEADER_TYPES}, HEADER_KEYS)
        embed_hp = read_fields(EmbedHyperparams, header["embed"], "embed", EMBED_KEYS)
        schema = Schema(tuple(header["attributes"]), header["blocking_attribute"])
        check_threshold(header["tau"])
        if header["rl_margin"] is not None:
            check_margin(header["rl_margin"], "rl_margin")
        if header["loss_sign"] is not None:
            check_loss_sign(header["loss_sign"])
    except ConfigError as exc:
        raise LoadError(f"{path}: {exc}") from None
    n_attrs = schema.n_attributes
    weights = header["weights"]
    if weights is not None and len(weights) != n_attrs:
        raise LoadError(f"{path}: weights: expected {n_attrs} values, got {len(weights)}")

    dictionary = ValueDictionary(n_attrs)
    for i, entry in enumerate(header["values"]):
        if not (
            json_fits(entry, "list") and len(entry) == 2 and json_fits(entry[0], "int")
            and 0 <= entry[0] < n_attrs and json_fits(entry[1], "str")
        ):
            raise LoadError(f"{path}: values.{i}: expected [attribute id, text], got {entry!r}")
        dictionary.intern(*entry)
    if len(dictionary) != len(header["values"]):
        raise LoadError(f"{path}: value dictionary entries are not unique")

    dim = header["dim"]
    if embed_hp.dim != dim:
        raise LoadError(f"{path}: embed.dim: {embed_hp.dim} does not match dim {dim}")
    n_values = len(header["values"])
    payload = raw[newline + 1 :]
    expected = (n_values + n_attrs) * dim * 8
    if len(payload) != expected:
        raise LoadError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    value_vectors = flat[: n_values * dim].reshape(n_values, dim).copy()
    attribute_vectors = flat[n_values * dim :].reshape(n_attrs, dim).copy()
    try:
        store = EmbeddingStore(value_vectors, attribute_vectors, dim)
    except TrainingError as exc:
        raise LoadError(f"{path}: payload: {exc}") from None

    if weights is not None:
        weights = WeightVector(np.array(weights, dtype=float))
    return ModelBundle(
        schema=schema,
        dictionary=dictionary,
        store=store,
        embed_hp=embed_hp,
        weights=weights,
        rl_margin=header["rl_margin"],
        loss_sign=header["loss_sign"],
        tau=header["tau"],
    )
