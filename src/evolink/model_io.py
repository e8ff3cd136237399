"""Single-file model persistence: JSON header line + raw float64 payload.

The header carries the schema, the full value dictionary, the embedding
hyperparameters, and (once weight training ran) the attribute weights,
probability-margin, loss mode, and selected decision threshold. The payload
is the value matrix followed by the attribute matrix, little-endian float64,
C order. A write -> read -> write cycle is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import EmbeddingStore, EmbedHyperparams
from .errors import LoadError
from .ingest import Schema, ValueDictionary
from .weights import WeightVector

FORMAT_TAG = "evolink-model/1"
HEADER_KEYS = (
    "dim", "attributes", "blocking_attribute", "values", "embed", "weights",
    "rl_margin", "loss_sign", "tau",
)
EMBED_KEYS = (
    "dim", "margin", "learning_rate", "epochs", "batch_size", "negatives", "norm", "seed",
)


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
        "embed": {
            "dim": bundle.embed_hp.dim,
            "margin": bundle.embed_hp.margin,
            "learning_rate": bundle.embed_hp.learning_rate,
            "epochs": bundle.embed_hp.epochs,
            "batch_size": bundle.embed_hp.batch_size,
            "negatives": bundle.embed_hp.negatives,
            "norm": bundle.embed_hp.norm,
            "seed": bundle.embed_hp.seed,
        },
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
    with open(path, "wb") as fh:
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
    embed = header.get("embed")
    missing = [k for k in HEADER_KEYS if k not in header]
    missing += [
        f"embed.{k}" for k in EMBED_KEYS if not isinstance(embed, dict) or k not in embed
    ]
    if missing:
        raise LoadError(f"{path}: model header lacks key {missing[0]!r}")

    schema = Schema(tuple(header["attributes"]), header["blocking_attribute"])
    dictionary = ValueDictionary(schema.n_attributes)
    for attr, text in header["values"]:
        dictionary.intern(attr, text)
    if len(dictionary) != len(header["values"]):
        raise LoadError(f"{path}: value dictionary entries are not unique")

    dim = header["dim"]
    n_values = len(header["values"])
    n_attrs = schema.n_attributes
    payload = raw[newline + 1 :]
    expected = (n_values + n_attrs) * dim * 8
    if len(payload) != expected:
        raise LoadError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    value_vectors = flat[: n_values * dim].reshape(n_values, dim).copy()
    attribute_vectors = flat[n_values * dim :].reshape(n_attrs, dim).copy()

    embed_hp = EmbedHyperparams(**{k: embed[k] for k in EMBED_KEYS})
    weights = (
        None
        if header["weights"] is None
        else WeightVector(np.array(header["weights"], dtype=float))
    )
    return ModelBundle(
        schema=schema,
        dictionary=dictionary,
        store=EmbeddingStore(value_vectors, attribute_vectors, dim),
        embed_hp=embed_hp,
        weights=weights,
        rl_margin=header["rl_margin"],
        loss_sign=header["loss_sign"],
        tau=header["tau"],
    )
