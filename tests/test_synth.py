"""The column generator and records writer against their record-at-a-time
references in ``oracles``: the same records, dictionary and links for a
seed, and the same file bytes."""

import csv
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from evolink import ingest
from evolink.idfiles import standardize
from evolink.ingest import RecordSet, Schema, ValueDictionary, write_records_csv
from evolink.synth import EvolutionRule, SynthConfig, generate_synthetic
from oracles import reference_generate, reference_records_csv

# texts that standardize alike ("x", " X"), to one letter, or to ""
WORDS = ["x", " X", "y", "yy", "z z", "Z  z", "é", "", " ", "ab,c"]
CHANCES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


def assert_same_split(got, want):
    for one, other in ((got.records_a, want.records_a), (got.records_b, want.records_b)):
        assert one.id_array.tolist() == other.id_array.tolist()
        assert one.value_matrix.tolist() == other.value_matrix.tolist()
    assert got.records_a.dictionary is got.records_b.dictionary
    assert list(got.records_a.dictionary.entries()) == list(want.records_a.dictionary.entries())
    assert got.links.pairs == want.links.pairs


@st.composite
def synth_configs(draw):
    n_attributes = draw(st.integers(1, 5))
    attributes = tuple(f"a{i}" for i in range(n_attributes))
    vocabularies = {
        name: tuple(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6)))
        for name in attributes
    }
    # sources drawn from small vocabularies repeat
    rules = draw(st.lists(
        st.sampled_from(attributes).flatmap(lambda name: st.builds(
            EvolutionRule, st.just(name), st.sampled_from(vocabularies[name]),
            st.sampled_from(vocabularies[name]), CHANCES,
        )),
        max_size=6,
    ))
    size_a = draw(st.integers(1, 60))
    fraction = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    n_dup = round(fraction * size_a)
    size_b = n_dup + draw(st.integers(0 if n_dup else 1, 20))  # n_dup == size_b, too
    return SynthConfig(
        attributes=attributes, vocabularies=vocabularies, size_a=size_a, size_b=size_b,
        duplicate_fraction=fraction, evolution_rules=tuple(rules),
        typo_probability=draw(CHANCES), missing_probability=draw(CHANCES),
    )


@settings(max_examples=300, deadline=None)
@given(synth_configs(), st.integers(0, 2**32 - 1))
def test_generator_draws_the_reference_stream(config, seed):
    assert_same_split(generate_synthetic(config, seed), reference_generate(config, seed))


def test_generator_over_many_noise_blocks():
    """Thousands of duplicates: blocks cut short by a typo, and, with no
    typos, blocks of the most rows."""
    config = SynthConfig(
        attributes=("given", "family", "status", "year"),
        vocabularies={
            "given": tuple(f"gn{i:03d}" for i in range(120)),
            "family": tuple(f"fam{i:03d}" for i in range(280)),
            "status": ("single", "married", "widowed"),
            "year": tuple(str(y) for y in range(1850, 1921)),
        },
        size_a=6000, size_b=7000, duplicate_fraction=0.9,
        evolution_rules=(
            EvolutionRule("status", "single", "married", 0.35),
            EvolutionRule("status", "married", "widowed", 0.15),
        ),
    )
    for typo in (0.0, 0.015):
        noisy = replace(config, typo_probability=typo)
        assert_same_split(generate_synthetic(noisy, 3), reference_generate(noisy, 3))


# field text that csv quotes or passes through: delimiters, quotes, NUL,
# non-ASCII, and what standardizes to ""
FIELD_TEXT = st.text(st.sampled_from(',"\0 aé漢\x7f'), max_size=6)


@st.composite
def record_sets(draw):
    n_attributes = draw(st.integers(0, 4))
    schema = Schema(tuple(draw(st.lists(
        st.text(st.sampled_from(',"a b'), min_size=1, max_size=4),
        min_size=n_attributes, max_size=n_attributes, unique_by=standardize,
    ))))
    dictionary = ValueDictionary(n_attributes)
    domains = [
        [dictionary.intern(attr, text)
         for text in draw(st.lists(FIELD_TEXT, min_size=1, max_size=5))]
        for attr in range(n_attributes)
    ]
    n_rows = draw(st.integers(0, 40))
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n_rows, max_size=n_rows,
                        unique=True))
    matrix = np.array([[draw(st.sampled_from([-1, *domain])) for domain in domains]
                       for _ in range(n_rows)], dtype=np.int64).reshape(n_rows, n_attributes)
    return RecordSet.from_columns(schema, dictionary, ids, matrix)


def outcome(write):
    try:
        return write()
    except csv.Error:  # a field csv will not write; both writers must refuse it
        return csv.Error


@settings(max_examples=300, deadline=None)
@given(record_sets(), st.sampled_from([1, 100, ingest.WRITE_BYTES]))
def test_records_writer_writes_csv_writers_bytes(tmp_path_factory, records, block_bytes):
    """In blocks of one row, of a few rows, and of all of them."""
    path = tmp_path_factory.mktemp("records") / "records.csv"

    def written():
        with mock.patch.object(ingest, "WRITE_BYTES", block_bytes):
            write_records_csv(records, path)
        return path.read_bytes()

    assert outcome(written) == outcome(lambda: reference_records_csv(records))
