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

    The records are drawn by column, yet from the stream that a scalar draw
    per cell, row by row, would use: ``rng.integers`` over an array of
    bounds draws one element at a time, in order, and the duplicates' noise
    is drawn as ``_add_noise`` says. A seed gives the same records as the
    row loop kept in ``tests/oracles.py``.
    """
    rng = np.random.default_rng(seed)
    schema = config.to_schema()
    n_attr = schema.n_attributes
    dictionary = ValueDictionary(n_attr)

    vocab_ids = [[dictionary.intern(attr, v) for v in config.vocabularies[name]]
                 for attr, name in enumerate(config.attributes)]
    sizes = np.array([len(ids) for ids in vocab_ids], dtype=np.int64)
    vocab = np.zeros((n_attr, max(sizes, default=0)), dtype=np.int64)  # by attribute and draw
    for attr, ids in enumerate(vocab_ids):
        vocab[attr, : len(ids)] = ids

    def draw(n_rows: int) -> np.ndarray:
        picks = rng.integers(np.tile(sizes, n_rows)).reshape(n_rows, n_attr)
        return vocab[np.arange(n_attr), picks]

    # by value id: whether a rule leaves it, and the first such rule's target and probability
    ruled = np.zeros(len(dictionary), dtype=bool)
    target = np.arange(len(dictionary))
    chance = np.zeros(len(dictionary))
    for rule in reversed(config.evolution_rules):  # so that the first rule is set last
        attr = config.attributes.index(rule.attribute)
        src = dictionary.lookup(attr, rule.source)
        ruled[src], chance[src] = True, rule.probability
        target[src] = dictionary.lookup(attr, rule.target)

    a_values = draw(config.size_a)
    n_dup = round(config.duplicate_fraction * config.size_a)
    dup_sources = np.sort(rng.choice(config.size_a, n_dup, replace=False))
    # B rows (-1 = missing): first the duplicates of dup_sources, then fresh draws
    duplicates = a_values[dup_sources]
    _add_noise(duplicates, config, dictionary, (ruled, target, chance), rng)
    b_values = np.concatenate((duplicates, draw(config.size_b - n_dup)))

    b_order = rng.permutation(config.size_b)
    # B row i takes the id at its place in b_order; dup_sources ascends, so the links do
    dup_b_ids = config.size_a + np.argsort(b_order)[:n_dup]
    b_ids = range(config.size_a, config.size_a + config.size_b)
    return Split(
        RecordSet.from_columns(schema, dictionary, range(config.size_a), a_values),
        RecordSet.from_columns(schema, dictionary, b_ids, b_values[b_order]),
        LinkedPairSet(np.column_stack((dup_sources, dup_b_ids)), "generated"),
    )


# the most duplicates whose noise is drawn in one call
NOISE_BLOCK = 1 << 12


def _add_noise(values: np.ndarray, config: SynthConfig, dictionary: ValueDictionary,
               rules: tuple[np.ndarray, np.ndarray, np.ndarray], rng: np.random.Generator) -> None:
    """Put each row of ``values`` (A values, none missing) through the
    evolution rules, then typo and missing-value noise, in place.

    A row draws, in order: a double for each attribute whose value a rule
    leaves; then per attribute a typo double, ``_typo``'s integers if the
    typo fires, and a missing double. A block of rows draws its doubles in
    one ``rng.random`` call, as if no typo fired. The rows before the
    block's first typo keep them; the generator is then set back and draws
    again up to that row, which makes its draws one at a time, so that
    ``_typo`` and ``dictionary.intern`` see what they would row by row.
    """
    ruled, target, chance = rules
    n_rows, n_attr = values.shape
    # about twice the rows expected up to the first typo
    typo_rows = 1.0 - (1.0 - config.typo_probability) ** n_attr
    block = int(min(NOISE_BLOCK, 2.0 / typo_rows)) if typo_rows > 0.0 else NOISE_BLOCK
    row = 0
    while row < n_rows:
        rows = values[row : row + block]
        has_rule = ruled[rows]
        # a row's draws: the rule doubles by attribute, then typo and missing by attribute
        slots = np.concatenate((has_rule, np.ones((len(rows), 2 * n_attr), dtype=bool)), axis=1)
        drawn = np.zeros(slots.shape)
        state = rng.bit_generator.state
        drawn[slots] = rng.random(np.count_nonzero(slots))
        typo_at = np.flatnonzero((drawn[:, n_attr::2] < config.typo_probability).any(axis=1))
        clean = int(typo_at[0]) if len(typo_at) else len(rows)
        done, drawn = rows[:clean], drawn[:clean]
        fired = has_rule[:clean] & (drawn[:, :n_attr] < chance[done])
        done[fired] = target[done[fired]]
        done[drawn[:, n_attr + 1 :: 2] < config.missing_probability] = -1
        if clean < len(rows):
            rng.bit_generator.state = state
            rng.random(np.count_nonzero(slots[:clean]))
            cells = rows[clean].tolist()
            for attr, current in enumerate(cells):
                if ruled[current] and rng.random() < chance[current]:
                    cells[attr] = int(target[current])
            for attr in range(n_attr):
                if rng.random() < config.typo_probability:
                    mutated = _typo(dictionary.value_string(cells[attr]), rng)
                    cells[attr] = dictionary.intern(attr, mutated)
                if rng.random() < config.missing_probability:
                    cells[attr] = -1
            rows[clean] = cells
            clean += 1
        row += clean
