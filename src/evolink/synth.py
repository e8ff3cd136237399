"""The synthetic generator: two record sets with a controlled overlap of
true duplicates, and the config that describes them."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .idfiles import LinkedPairSet, standardize
from .ingest import (
    RecordSet,
    Schema,
    Split,
    ValueDictionary,
    build,
    json_fits,
    read_json,
    read_object,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class EvolutionRule:
    """One allowed directed value transition for an attribute."""

    attribute: str
    source: str
    target: str
    probability: float = 1.0


# the synthetic generator's config keys with their JSON types
SYNTH_TYPES = {
    "attributes": "list[str]", "vocabularies": "object", "size_a": "int", "size_b": "int",
    "duplicate_fraction": "float", "blocking_attribute": "str | None",
    "evolution_rules": "list", "typo_probability": "float", "missing_probability": "float",
}
SYNTH_REQUIRED = ("attributes", "vocabularies", "size_a", "size_b", "duplicate_fraction")
VOCAB_TYPES = {"prefix": "str", "count": "int"}  # both required
RULE_TYPES = {"attribute": "str", "from": "str", "to": "str", "probability": "float"}


@dataclass(frozen=True)
class SynthConfig:
    """Everything the synthetic generator needs; loadable from JSON.

    ``vocabularies`` maps each attribute name to its value list. In JSON a
    vocabulary may instead be written as {"prefix": "occ", "count": 40} and
    is expanded to occ000..occ039.
    """

    attributes: tuple[str, ...]
    vocabularies: Mapping[str, tuple[str, ...]]
    size_a: int
    size_b: int
    duplicate_fraction: float
    blocking_attribute: str | None = None
    evolution_rules: tuple[EvolutionRule, ...] = ()
    typo_probability: float = 0.015
    missing_probability: float = 0.01

    def __post_init__(self):
        if self.size_a < 1 or self.size_b < 1:
            raise ConfigError("size_a/size_b: must be positive")
        if not 0.0 <= self.duplicate_fraction <= 1.0:
            raise ConfigError("duplicate_fraction: must be in [0, 1]")
        n_dup = round(self.duplicate_fraction * self.size_a)
        if n_dup > self.size_b:
            raise ConfigError(
                "duplicate_fraction: more duplicates than dataset B can hold"
            )
        for name in self.attributes:
            if name not in self.vocabularies:
                raise ConfigError(f"vocabularies: missing entry for {name!r}")
            if not self.vocabularies[name]:
                raise ConfigError(f"vocabularies: empty vocabulary for {name!r}")
        for rule in self.evolution_rules:
            if rule.attribute not in self.attributes:
                raise ConfigError(
                    f"evolution_rules: unknown attribute {rule.attribute!r}"
                )
            vocab = {standardize(v) for v in self.vocabularies[rule.attribute]}
            for val in (rule.source, rule.target):
                if standardize(val) not in vocab:
                    raise ConfigError(
                        f"evolution_rules: value {val!r} not in the "
                        f"{rule.attribute!r} vocabulary"
                    )
            if not 0.0 <= rule.probability <= 1.0:
                raise ConfigError("evolution_rules: probability must be in [0, 1]")
        self.to_schema()  # the blocking attribute must be one of the attributes
        if not 0.0 <= self.typo_probability <= 1.0:
            raise ConfigError("typo_probability: must be in [0, 1]")
        if not 0.0 <= self.missing_probability <= 1.0:
            raise ConfigError("missing_probability: must be in [0, 1]")

    def to_schema(self) -> Schema:
        return Schema.named(self.attributes, self.blocking_attribute)

    @classmethod
    def from_dict(cls, raw, where: str = "") -> "SynthConfig":
        """A config from parsed JSON; any malformed value raises ConfigError
        naming ``where`` and its key."""
        raw = read_object(raw, where, SYNTH_TYPES, SYNTH_REQUIRED)
        prefix = f"{where}." if where else ""
        vocabularies = {}
        for name, entry in raw["vocabularies"].items():
            where_entry = f"{prefix}vocabularies.{name}"
            if isinstance(entry, Mapping):
                entry = read_object(entry, where_entry, VOCAB_TYPES, VOCAB_TYPES)
                entry = [f"{entry['prefix']}{i:03d}" for i in range(entry["count"])]
            elif not json_fits(entry, "list[str]"):
                raise ConfigError(f"{where_entry}: expected list[str] or object, got {entry!r}")
            vocabularies[name] = tuple(entry)
        rules = []
        for i, rule in enumerate(raw.get("evolution_rules", ())):
            where_rule = f"{prefix}evolution_rules.{i}"
            if not json_fits(rule, "object"):  # a list element reads as a value typed "object"
                raise ConfigError(f"{where_rule}: expected object, got {rule!r}")
            rule = read_object(rule, where_rule, RULE_TYPES, ("attribute", "from", "to"))
            rules.append(EvolutionRule(
                rule["attribute"], rule["from"], rule["to"], float(rule.get("probability", 1.0))
            ))
        return build(cls, where, **{
            **raw,
            "attributes": tuple(raw["attributes"]),
            "vocabularies": vocabularies,
            "evolution_rules": tuple(rules),
        })

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        return cls.from_dict(read_json(path))


def _typo(text: str, rng: np.random.Generator) -> str:
    if not text:
        return _LETTERS[int(rng.integers(len(_LETTERS)))]
    i = int(rng.integers(len(text)))
    pool = _LETTERS.replace(text[i], "") if text[i] in _LETTERS else _LETTERS
    return text[:i] + pool[int(rng.integers(len(pool)))] + text[i + 1 :]


def generate_synthetic(config: SynthConfig, seed: int) -> Split:
    """Generate two record sets with a controlled overlap of true duplicates.

    Each duplicate is the A record pushed through the evolution rule table
    (first applicable rule wins, fired with its own probability), then typo
    and missing-value noise. Every A record has at most one duplicate in B.
    """
    rng = np.random.default_rng(seed)
    schema = config.to_schema()
    dictionary = ValueDictionary(schema.n_attributes)

    vocab_ids: list[list[int]] = []
    for attr, name in enumerate(config.attributes):
        vocab_ids.append([dictionary.intern(attr, v) for v in config.vocabularies[name]])

    rules_by_attr: dict[int, list[tuple[int, int, float]]] = {}
    for rule in config.evolution_rules:
        attr = config.attributes.index(rule.attribute)
        src = dictionary.lookup(attr, rule.source)
        dst = dictionary.lookup(attr, rule.target)
        rules_by_attr.setdefault(attr, []).append((src, dst, rule.probability))

    def draw_values() -> list[int]:
        return [ids[int(rng.integers(len(ids)))] for ids in vocab_ids]

    a_rows = [draw_values() for _ in range(config.size_a)]

    n_dup = round(config.duplicate_fraction * config.size_a)
    dup_sources = sorted(int(i) for i in rng.choice(config.size_a, n_dup, replace=False))

    # B rows (-1 = missing): first the duplicates of dup_sources, then fresh draws
    b_rows: list[list[int]] = []
    for a_idx in dup_sources:
        values = list(a_rows[a_idx])
        for attr, current in enumerate(a_rows[a_idx]):
            for src, dst, prob in rules_by_attr.get(attr, ()):
                if src == current:
                    if rng.random() < prob:
                        values[attr] = dst
                    break
        for attr in range(schema.n_attributes):
            if rng.random() < config.typo_probability:
                mutated = _typo(dictionary.value_string(values[attr]), rng)
                values[attr] = dictionary.intern(attr, mutated)
            if rng.random() < config.missing_probability:
                values[attr] = -1
        b_rows.append(values)

    for _ in range(config.size_b - n_dup):
        b_rows.append(draw_values())

    b_order = rng.permutation(len(b_rows))
    # B row i takes the id at its place in b_order; dup_sources ascends, so the links do
    dup_b_ids = config.size_a + np.argsort(b_order)[:n_dup]
    b_ids = range(config.size_a, config.size_a + config.size_b)
    return Split(
        RecordSet.from_columns(schema, dictionary, range(config.size_a), a_rows),
        RecordSet.from_columns(schema, dictionary, b_ids, np.array(b_rows)[b_order]),
        LinkedPairSet(np.column_stack((dup_sources, dup_b_ids)), "generated"),
    )
