import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolink.errors import ConfigError, DomainError, LoadError, SchemaMismatchError
from evolink.ingest import (
    LinkedPairSet,
    Record,
    RecordSet,
    Schema,
    SynthConfig,
    TextFormat,
    ValueDictionary,
    generate_synthetic,
    id_ranks,
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

    def test_repeated_entity_id_names_both_lines(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "entity_id;name;birth_year;civil_status\n"
            "7;maria;1867;single\n"
            "-3;jose;1870;single\n"
            "9;anna;1871;married\n"
            "-3;pere;1869;single\n"
            "7;joan;1868;single\n",
        )
        with pytest.raises(LoadError) as exc:
            load_records(path, THREE_COL)
        assert str(exc.value) == f"{path}: line 5: entity id -3 repeats line 3"

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
        records_b, _ = load_records(b, THREE_COL, dictionary=d)
        assert records_a.records[0].values[0] == records_b.records[0].values[0]
        assert records_b.records[0].entity_id == 0


def random_records(rng, n=30, n_values=(3, 5, 2), missing=0.3):
    """Records with missing values, shuffled ids, and their dictionary."""
    d = ValueDictionary(len(n_values))
    vocab = [[d.intern(attr, f"v{i}") for i in range(k)] for attr, k in enumerate(n_values)]
    records = [
        Record(entity_id, {
            attr: vocab[attr][int(rng.integers(len(vocab[attr])))]
            for attr in range(len(n_values))
            if rng.random() >= missing
        })
        for entity_id in (5 + 3 * rng.permutation(n)).tolist()
    ]
    return records, d


class TestRecordSet:
    SCHEMA = Schema(("x", "y", "z"))

    def test_columns_and_records_agree(self):
        records, d = random_records(np.random.default_rng(1))
        from_records = RecordSet(self.SCHEMA, d, records)
        assert from_records.id_array.tolist() == [r.entity_id for r in records]
        for rec, row in zip(records, from_records.value_matrix.tolist()):
            assert {a: v for a, v in enumerate(row) if v >= 0} == rec.values
        from_columns = RecordSet.from_columns(
            self.SCHEMA, d, from_records.id_array, from_records.value_matrix
        )
        np.testing.assert_array_equal(from_columns.value_matrix, from_records.value_matrix)
        for made in (from_records, from_columns):
            assert made.records == tuple(records)
            assert list(made) == records
            assert [made.get(r.entity_id) for r in records] == records
            assert len(made) == len(records)

    def test_empty(self):
        d = ValueDictionary(3)
        empty_columns = RecordSet.from_columns(self.SCHEMA, d, [], np.zeros((0, 3)))
        for made in (RecordSet(self.SCHEMA, d, ()), empty_columns):
            assert len(made) == 0 and made.value_matrix.shape == (0, 3)
            assert made.records == ()

    @pytest.mark.parametrize("vid, attr", [(-1, 0), (-5, 0), (99, 0), (1, 0), (0, 3)])
    def test_bad_cells_rejected_by_both_constructors(self, vid, attr):
        d = ValueDictionary(3)
        d.intern(0, "a")
        d.intern(1, "b")  # id 1 belongs to attribute 1, not 0
        with pytest.raises(DomainError, match=f"record 7: value id {vid} "):
            RecordSet(self.SCHEMA, d, [Record(7, {attr: vid})])
        if vid != -1 and attr < 3:  # -1 is the matrix's missing marker
            matrix = np.full((1, 3), -1)
            matrix[0, attr] = vid
            with pytest.raises(DomainError, match=f"record 7: value id {vid} "):
                RecordSet.from_columns(self.SCHEMA, d, [7], matrix)

    def test_duplicate_and_oversized_ids_rejected_by_both_constructors(self):
        d = ValueDictionary(3)
        with pytest.raises(LoadError, match="duplicate entity id 4"):
            RecordSet(self.SCHEMA, d, [Record(3, {}), Record(4, {}), Record(4, {})])
        with pytest.raises(LoadError, match="duplicate entity id 4"):
            RecordSet.from_columns(self.SCHEMA, d, [3, 4, 4], np.full((3, 3), -1))
        with pytest.raises(LoadError, match="64 bits"):
            RecordSet(self.SCHEMA, d, [Record(2**64, {})])
        with pytest.raises(LoadError, match="64 bits"):
            RecordSet.from_columns(self.SCHEMA, d, [2**64], np.full((1, 3), -1))

    def test_matrix_shape_checked(self):
        with pytest.raises(DomainError, match="shape"):
            RecordSet.from_columns(self.SCHEMA, ValueDictionary(3), [1, 2], np.full((2, 2), -1))

    def test_unknown_entity_id(self):
        records, d = random_records(np.random.default_rng(2))
        made = RecordSet(self.SCHEMA, d, records)
        assert 4 not in made
        with pytest.raises(LoadError, match="unknown entity id 4"):
            made.get(4)
        with pytest.raises(LoadError, match="unknown entity id 4"):
            made.rows([records[0].entity_id, 4])

    def test_take_keeps_the_rows(self):
        records, d = random_records(np.random.default_rng(3))
        made = RecordSet(self.SCHEMA, d, records)
        rows = np.array([4, 0, 17])
        subset = made.take(rows)
        assert subset.records == tuple(records[i] for i in rows)
        assert subset.dictionary is d


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# ids from anywhere in int64, with both ends likely, or packed near one point
# (dense, so that the lookup takes its direct table)
ANY_ID = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(INT64_MIN, INT64_MAX),
)
ID_SETS = st.one_of(
    st.lists(ANY_ID, unique=True, max_size=30),
    st.tuples(
        st.sampled_from([INT64_MIN, -20, INT64_MAX - 40]),
        st.lists(st.integers(0, 40), unique=True, max_size=30),
    ).map(lambda base_offsets: [base_offsets[0] + k for k in base_offsets[1]]),
)


class TestIdLookup:
    @given(ids=ID_SETS, data=st.data())
    def test_lookup_equals_a_dict(self, ids, data):
        """find, rows, get and ``in`` of a record set against a dict from id to
        row, over known and unknown ids; an empty set knows no id."""
        # known ids, their neighbours (just outside a dense table too) and any id
        near = [i + d for i in ids for d in (-1, 1) if INT64_MIN <= i + d <= INT64_MAX]
        queries = data.draw(st.lists(
            st.one_of(st.sampled_from(ids + near), ANY_ID) if ids else ANY_ID, max_size=40
        ))
        schema = Schema(("x",))
        made = RecordSet.from_columns(schema, ValueDictionary(1), ids, np.full((len(ids), 1), -1))
        row_of = dict(zip(ids, range(len(ids))))

        rows, found = made.find(queries)
        assert found.tolist() == [q in row_of for q in queries]
        assert rows[found].tolist() == [row_of[q] for q in queries if q in row_of]
        assert [q in made for q in queries] == [q in row_of for q in queries]
        known = [q for q in queries if q in row_of]
        assert made.rows(known).tolist() == [row_of[q] for q in known]
        for q in known[:3]:
            assert made.get(q).entity_id == q
        unknown = [q for q in queries if q not in row_of]
        if unknown:
            with pytest.raises(LoadError, match=f"^unknown entity id {unknown[0]}$"):
                made.rows(queries)

        # the lookup itself: a position in the sorted ids wherever an id is there
        known_ids = np.array(sorted(ids), dtype=np.int64)
        pos, there = id_ranks(queries, known_ids)
        assert there.tolist() == found.tolist()
        assert pos[there].tolist() == [sorted(ids).index(q) for q in known]
        assert ((pos >= 0) & (pos < max(len(ids), 1))).all()

    # a dense set (direct table) and one spread over int64 (binary search)
    @pytest.mark.parametrize("ids", [[-2, 0, 1, 5], [INT64_MIN, 0, INT64_MAX]])
    @pytest.mark.parametrize("beyond", [2**63, 2**64, INT64_MIN - 1, -(2**70)])
    def test_ids_beyond_int64_are_unknown(self, ids, beyond):
        made = RecordSet.from_columns(
            Schema(("x",)), ValueDictionary(1), ids, np.full((len(ids), 1), -1)
        )
        assert beyond not in made
        rows, found = made.find([ids[1], beyond, ids[0]])
        assert found.tolist() == [True, False, True]
        assert rows[[0, 2]].tolist() == [1, 0]
        pos, there = id_ranks([beyond, ids[-1]], np.array(ids, dtype=np.int64))
        assert there.tolist() == [False, True] and pos[1] == len(ids) - 1
        with pytest.raises(LoadError, match=f"^unknown entity id {beyond}$"):
            made.rows([ids[0], beyond])
        with pytest.raises(LoadError, match=f"^unknown entity id {beyond}$"):
            made.get(beyond)


class TestLinkedPairSet:
    def test_columns_and_pairs_view(self):
        links = LinkedPairSet(((3, 10), (-1, 2**63 - 1), (3, 9)), "loaded")
        assert links.a_ids.dtype == links.b_ids.dtype == np.int64
        assert links.a_ids.tolist() == [3, -1, 3]
        assert links.b_ids.tolist() == [10, 2**63 - 1, 9]
        assert links.pairs == ((3, 10), (-1, 2**63 - 1), (3, 9))
        assert list(links) == list(links.pairs) and len(links) == 3
        assert links.provenance == "loaded"
        again = LinkedPairSet(np.column_stack((links.a_ids, links.b_ids)))
        assert again.pairs == links.pairs and again.provenance == "train"

    def test_empty(self):
        for links in (LinkedPairSet(), LinkedPairSet(np.zeros((0, 2), dtype=np.int64))):
            assert len(links) == 0 and links.pairs == ()
            assert links.a_ids.dtype == np.int64

    def test_repeats_and_oversized_ids_rejected(self):
        with pytest.raises(LoadError, match="duplicate linked pairs"):
            LinkedPairSet(np.array([[5, 6], [1, 2], [5, 6]]))
        with pytest.raises(LoadError, match="64 bits"):
            LinkedPairSet(((0, 2**63),))


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

    def test_split_columns_are_parent_rows(self):
        data = generate_synthetic(
            SynthConfig(
                attributes=("name", "token", "status"),
                vocabularies={
                    "name": tuple(f"n{i}" for i in range(50)),
                    "token": tuple(f"t{i}" for i in range(10)),
                    "status": ("single", "married"),
                },
                size_a=90, size_b=80, duplicate_fraction=0.7, missing_probability=0.3,
            ),
            seed=4,
        )
        # shuffled rows, so that row order and id order differ
        rng = np.random.default_rng(6)
        records_a, records_b = (
            records.take(rng.permutation(len(records)))
            for records in (data.records_a, data.records_b)
        )
        assert (records_b.value_matrix == -1).any()
        splits = partition(records_a, records_b, data.links, (0.5, 0.3, 0.2), seed=2)
        for parent, side in ((records_a, 0), (records_b, 1)):
            ids = []
            for split in splits:
                child = split[side]
                assert child.id_array.tolist() == sorted(child.id_array.tolist())
                rows = parent.rows(child.id_array.tolist())
                np.testing.assert_array_equal(child.value_matrix, parent.value_matrix[rows])
                assert list(child) == [parent.get(i) for i in child.id_array.tolist()]
                ids += child.id_array.tolist()
            assert sorted(ids) == sorted(parent.id_array.tolist())

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


def set_based_partition(records_a, records_b, links, ratios, seed):
    """The set-based partition the column version replaced, kept as a reference."""
    rng = np.random.default_rng(seed)

    def spread(items):
        perm = rng.permutation(len(items))
        n = len(items)
        base = [math.floor(r * n) for r in ratios]
        order = sorted(range(3), key=lambda i: (-(ratios[i] * n - base[i]), i))
        for i in order[:n - sum(base)]:
            base[i] += 1
        bounds = np.cumsum([0, *base])
        return [[items[i] for i in perm[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]

    split_pairs = spread(list(links.pairs))
    linked_a = {a for a, _ in links}
    linked_b = {b for _, b in links}
    free_a = spread([i for i in records_a.id_array.tolist() if i not in linked_a])
    free_b = spread([i for i in records_b.id_array.tolist() if i not in linked_b])
    splits = []
    for k, name in enumerate(("train", "validation", "test")):
        a_ids = sorted({a for a, _ in split_pairs[k]} | set(free_a[k]))
        b_ids = sorted({b for _, b in split_pairs[k]} | set(free_b[k]))
        splits.append((
            records_a.take(records_a.rows(a_ids)),
            records_b.take(records_b.rows(b_ids)),
            LinkedPairSet(tuple(sorted(split_pairs[k])), name),
        ))
    return splits


class TestPartitionEqualsSetBased:
    @pytest.mark.parametrize("ratios", [
        (0.6, 0.3, 0.1), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0), (0.0, 0.7, 0.3),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_same_splits(self, seed, ratios):
        rng = np.random.default_rng(seed)
        schema = Schema(("x", "y"))
        d = ValueDictionary(2)
        vocab = [[d.intern(attr, f"v{i}") for i in range(5)] for attr in range(2)]

        def records(n, low):
            # shuffled, non-contiguous ids, some far apart
            ids = rng.choice(np.arange(low, low + 50 * n, 7), size=n, replace=False)
            ids[0] = low - 2**40
            matrix = np.array([[rng.choice(vocab[attr]) for attr in range(2)] for _ in range(n)])
            matrix[rng.random(matrix.shape) < 0.2] = -1
            return RecordSet.from_columns(schema, d, ids, matrix)

        a, b = records(int(rng.integers(20, 60)), 1000), records(int(rng.integers(20, 60)), -500)
        # random links: some records in several links, some (free) in none
        pairs = {
            (int(rng.choice(a.id_array[: len(a) * 2 // 3])), int(rng.choice(b.id_array[: len(b) * 2 // 3])))
            for _ in range(int(rng.integers(1, 50)))
        }
        links = LinkedPairSet(tuple(rng.permutation(sorted(pairs)).tolist()), "loaded")
        got = partition(a, b, links, ratios, seed)
        expected = set_based_partition(a, b, links, ratios, seed)
        for split, (ref_a, ref_b, ref_links) in zip(got, expected):
            for child, ref in ((split.records_a, ref_a), (split.records_b, ref_b)):
                np.testing.assert_array_equal(child.id_array, ref.id_array)
                np.testing.assert_array_equal(child.value_matrix, ref.value_matrix)
            assert split.links.pairs == ref_links.pairs
            assert split.links.provenance == ref_links.provenance

    @pytest.mark.parametrize("links, message", [
        (((0, 10), (17, 200)), "links: a id 17 of link (17, 200) is not an A record"),
        (((0, 10), (1, 200), (17, 11)), "links: b id 200 of link (1, 200) is not a B record"),
    ])
    def test_unknown_link_endpoint_names_side_and_link(self, civil_toy, links, message):
        with pytest.raises(LoadError) as exc:
            partition(
                civil_toy["records_a"], civil_toy["records_b"], LinkedPairSet(links),
                (0.6, 0.2, 0.2), seed=0,
            )
        assert str(exc.value) == message


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
