import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolink.errors import ConfigError, LoadError, SchemaMismatchError
from evolink.ingest import (
    LinkedPairSet,
    Schema,
    SynthConfig,
    TextFormat,
    ValueDictionary,
    generate_synthetic,
    load_links,
    load_records,
    partition,
    standardize,
    write_links_csv,
    write_records_csv,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


THREE_COL = Schema(("name", "birth_year", "civil_status"))


class TestStandardize:
    def test_trims_folds_collapses(self):
        assert standardize("  Maria   Puig ") == "maria puig"

    @given(st.text(max_size=40))
    def test_idempotent(self, s):
        assert standardize(standardize(s)) == standardize(s)


class TestValueDictionary:
    def test_interning_idempotent(self):
        d = ValueDictionary(2)
        first = d.intern(0, "Maria ")
        assert d.intern(0, "maria") == first
        assert d.intern(0, standardize("  MARIA")) == first

    def test_domains_disjoint(self):
        # the same string under two attributes gets two ids
        d = ValueDictionary(2)
        a = d.intern(0, "1901")
        b = d.intern(1, "1901")
        assert a != b
        assert d.attribute_of(a) == 0 and d.attribute_of(b) == 1
        assert d.values_of(0) == (a,) and d.values_of(1) == (b,)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            Schema(("name", "Name"))

    def test_blocking_out_of_range(self):
        with pytest.raises(ConfigError):
            Schema(("name",), blocking_attribute=3)

    def test_attribute_id_case_insensitive(self):
        assert THREE_COL.attribute_id("Birth_Year") == 1


class TestLoadRecords:
    def test_full_row(self, tmp_path):
        path = write(tmp_path, "a.csv", "name;birth_year;civil_status\nmaria;1867;single\n")
        records, d = load_records(path, THREE_COL)
        (rec,) = records
        assert len(rec.values) == 3
        assert d.value_string(rec.values[1]) == "1867"

    def test_empty_cell_missing(self, tmp_path):
        path = write(tmp_path, "a.csv", "name;birth_year;civil_status\nmaria;;single\n")
        records, _ = load_records(path, THREE_COL)
        (rec,) = records
        assert 1 not in rec.values
        assert set(rec.values) == {0, 2}

    def test_standardized_interning(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "name;birth_year;civil_status\nMaria ;1867;single\nmaria;1902;single\n",
        )
        records, _ = load_records(path, THREE_COL)
        assert records.records[0].values[0] == records.records[1].values[0]

    def test_null_markers(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "name;birth_year;civil_status\nmaria;Illegible;NA\n",
        )
        records, _ = load_records(path, THREE_COL)
        (rec,) = records
        assert set(rec.values) == {0}

    def test_repeated_cells_keep_first_seen_ids(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "name;birth_year;civil_status\n"
            "Maria;1867; NA\n"
            "jose;1867;single\n"
            "maria ;na;Single\n"
            "Maria;;single\n",
        )
        records, d = load_records(path, THREE_COL)
        assert [dict(r.values) for r in records] == [
            {0: 0, 1: 1}, {0: 2, 1: 1, 2: 3}, {0: 0, 2: 3}, {0: 0, 2: 3},
        ]
        assert [text for _, _, text in d.entries()] == ["maria", "1867", "jose", "single"]

    def test_wrong_column_count_names_line(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "name;birth_year;civil_status\nmaria;1867;single\noops;1\n",
        )
        with pytest.raises(LoadError, match="line 3"):
            load_records(path, THREE_COL)

    def test_unknown_header_attribute(self, tmp_path):
        path = write(tmp_path, "a.csv", "name;height;civil_status\nmaria;12;single\n")
        with pytest.raises(SchemaMismatchError, match="height"):
            load_records(path, THREE_COL)

    def test_header_case_insensitive_with_id_column(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "Entity_ID;NAME;Birth_Year;Civil_Status\n17;maria;1867;single\n",
        )
        records, _ = load_records(path, THREE_COL)
        assert records.records[0].entity_id == 17

    def test_shared_dictionary_across_files(self, tmp_path):
        a = write(tmp_path, "a.csv", "name;birth_year;civil_status\nmaria;1867;single\n")
        b = write(tmp_path, "b.csv", "name;birth_year;civil_status\nmaria;1901;married\n")
        records_a, d = load_records(a, THREE_COL)
        records_b, _ = load_records(b, THREE_COL, dictionary=d, start_entity_id=100)
        assert records_a.records[0].values[0] == records_b.records[0].values[0]
        assert records_b.records[0].entity_id == 100


class TestLinksRoundTrip:
    def test_write_then_load(self, tmp_path):
        links = LinkedPairSet(((0, 10), (1, 11)), "train")
        path = tmp_path / "links.csv"
        write_links_csv(links, path)
        loaded = load_links(path, TextFormat(delimiter=","))
        assert loaded.pairs == links.pairs

    def test_duplicates_rejected(self):
        with pytest.raises(LoadError):
            LinkedPairSet(((0, 1), (0, 1)), "train")


def _synthetic_universe(n_pairs=100, extra=20, seed=3):
    # key space large enough that clean records never collide by chance
    config = SynthConfig(
        attributes=("name", "token", "status"),
        vocabularies={
            "name": tuple(f"n{i}" for i in range(2000)),
            "token": tuple(f"t{i}" for i in range(100)),
            "status": ("single", "married"),
        },
        size_a=n_pairs + extra,
        size_b=n_pairs + extra,
        duplicate_fraction=n_pairs / (n_pairs + extra),
        typo_probability=0.0,
        missing_probability=0.0,
    )
    return generate_synthetic(config, seed)


class TestPartition:
    def test_ratio_validation(self, civil_toy):
        with pytest.raises(ConfigError):
            partition(
                civil_toy["records_a"], civil_toy["records_b"], civil_toy["links"],
                (0.5, 0.2, 0.2), seed=0,
            )

    def test_empty_links(self, civil_toy):
        with pytest.raises(ConfigError):
            partition(
                civil_toy["records_a"], civil_toy["records_b"],
                LinkedPairSet((), "train"), (1.0, 0.0, 0.0), seed=0,
            )

    def test_all_in_train(self, civil_toy):
        train, val, test = partition(
            civil_toy["records_a"], civil_toy["records_b"], civil_toy["links"],
            (1.0, 0.0, 0.0), seed=0,
        )
        assert len(train.links) == 2
        assert len(val.links) == 0 and len(test.links) == 0
        assert len(val.records_a) == 0 and len(test.records_b) == 0

    def test_exact_counts_and_determinism(self):
        data = _synthetic_universe(n_pairs=100, extra=20)
        first = partition(data.records_a, data.records_b, data.links, (0.6, 0.2, 0.2), seed=7)
        again = partition(data.records_a, data.records_b, data.links, (0.6, 0.2, 0.2), seed=7)
        assert [len(s.links) for s in first] == [60, 20, 20]
        for one, two in zip(first, again):
            assert one.links.pairs == two.links.pairs
            assert [r.entity_id for r in one.records_a] == [r.entity_id for r in two.records_a]
            assert [r.entity_id for r in one.records_b] == [r.entity_id for r in two.records_b]

    def test_pairs_never_straddle_splits(self):
        data = _synthetic_universe(n_pairs=50, extra=10)
        splits = partition(data.records_a, data.records_b, data.links, (0.5, 0.3, 0.2), seed=1)
        seen = set()
        for split in splits:
            for a, b in split.links:
                assert (a, b) not in seen
                seen.add((a, b))
                assert a in split.records_a
                assert b in split.records_b
        assert seen == set(data.links.pairs)


class TestGenerateSynthetic:
    def test_identity_rules_zero_corruption(self):
        config = SynthConfig(
            attributes=("name", "status"),
            vocabularies={"name": tuple(f"n{i}" for i in range(500)),
                          "status": ("single", "married")},
            size_a=50,
            size_b=50,
            duplicate_fraction=1.0,
            evolution_rules=(),
            typo_probability=0.0,
            missing_probability=0.0,
        )
        data = generate_synthetic(config, seed=5)
        assert len(data.links) == 50
        for a_id, b_id in data.links:
            assert data.records_a.get(a_id).values == data.records_b.get(b_id).values

    def test_forced_transition(self):
        from evolink.ingest import EvolutionRule

        config = SynthConfig(
            attributes=("status",),
            vocabularies={"status": ("single", "married")},
            size_a=40,
            size_b=40,
            duplicate_fraction=1.0,
            evolution_rules=(EvolutionRule("status", "single", "married", 1.0),),
            typo_probability=0.0,
            missing_probability=0.0,
        )
        data = generate_synthetic(config, seed=11)
        d = data.records_a.dictionary
        for a_id, b_id in data.links:
            if d.value_string(data.records_a.get(a_id).values[0]) == "single":
                assert d.value_string(data.records_b.get(b_id).values[0]) == "married"

    def test_febrl_test_split_shape(self):
        # 500 + 500 records with 340 true links
        config = SynthConfig(
            attributes=("name", "status"),
            vocabularies={"name": tuple(f"n{i}" for i in range(200)),
                          "status": ("single", "married")},
            size_a=500,
            size_b=500,
            duplicate_fraction=0.68,
        )
        data = generate_synthetic(config, seed=0)
        assert len(data.records_a) == 500
        assert len(data.records_b) == 500
        assert len(data.links) == 340

    def test_exact_match_linker_is_perfect_on_clean_data(self):
        data = _synthetic_universe(n_pairs=80, extra=40, seed=9)
        truth = set(data.links.pairs)
        found = {
            (a.entity_id, b.entity_id)
            for a in data.records_a
            for b in data.records_b
            if a.values == b.values
        }
        tp = len(found & truth)
        precision = tp / len(found)
        recall = tp / len(truth)
        f = 2 * precision * recall / (precision + recall)
        assert f == 1.0

    def test_rule_with_unknown_value(self):
        from evolink.ingest import EvolutionRule

        with pytest.raises(ConfigError, match="widowed"):
            SynthConfig(
                attributes=("status",),
                vocabularies={"status": ("single", "married")},
                size_a=10,
                size_b=10,
                duplicate_fraction=0.5,
                evolution_rules=(EvolutionRule("status", "single", "widowed"),),
            )

    def test_config_from_json_missing_key(self, tmp_path):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"attributes": ["a"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="vocabularies"):
            SynthConfig.from_json(path)

    def test_records_csv_round_trip(self, tmp_path):
        data = _synthetic_universe(n_pairs=20, extra=5, seed=2)
        path = tmp_path / "a.csv"
        write_records_csv(data.records_a, path)
        loaded, _ = load_records(
            path, data.records_a.schema, TextFormat(delimiter=","),
            dictionary=data.records_a.dictionary,
        )
        assert [r.entity_id for r in loaded] == [r.entity_id for r in data.records_a]
        assert [r.values for r in loaded] == [r.values for r in data.records_a]
