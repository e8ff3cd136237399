import numpy as np
import pytest

from evolink.ekg import (
    AttributeTriple,
    EvolutionKG,
    EvolutionTriple,
    NegativeSampler,
    build_ekg,
    sample_negatives,
)
from evolink.errors import DomainError, LoadError
from evolink.ingest import LinkedPairSet, Record, RecordSet, Schema, ValueDictionary
from oracles import observed_tails, reference_evolution, values_of


def single_attribute_kg(n_values, evolution):
    """A graph over one attribute whose domain has n_values values."""
    d = ValueDictionary(1)
    ids = [d.intern(0, f"v{i}") for i in range(n_values)]
    ats = [AttributeTriple(100 + i, vid, 0) for i, vid in enumerate(ids)]
    return (
        EvolutionKG.from_triples(
            entities=[100 + i for i in range(n_values)],
            values=d,
            attribute_triples=ats,
            evolution=[EvolutionTriple(ids[i], ids[j], 0) for i, j in evolution],
        ),
        ids,
    )


class TestBuild:
    def test_evolution_triple_from_changed_value(self, civil_toy):
        ids = civil_toy["ids"]
        assert EvolutionTriple(ids["s"], ids["m"], 0) in civil_toy["kg"].evolution
        assert EvolutionTriple(ids["m"], ids["w"], 0) in civil_toy["kg"].evolution
        assert len(civil_toy["kg"].evolution) == 2

    def test_identity_suppressed_by_default(self):
        schema = Schema(("surname",))
        d = ValueDictionary(1)
        puig = d.intern(0, "puig")
        a = RecordSet(schema, d, (Record(0, {0: puig}),))
        b = RecordSet(schema, d, (Record(1, {0: puig}),))
        links = LinkedPairSet(((0, 1),), "train")
        kg = build_ekg(a, b, links)
        assert len(kg.evolution) == 0
        kg_id = build_ekg(a, b, links, er=True)
        assert EvolutionTriple(puig, puig, 0) in kg_id.evolution

    def test_reverse_triples_flag(self, civil_toy):
        ids = civil_toy["ids"]
        kg = build_ekg(
            civil_toy["records_a"], civil_toy["records_b"], civil_toy["links"], er=True
        )
        assert EvolutionTriple(ids["m"], ids["s"], 0) in kg.evolution
        assert len(kg.evolution) == 4

    def test_missing_link_endpoint_names_entity(self, civil_toy):
        links = LinkedPairSet(((0, 10), (99, 11)), "train")
        with pytest.raises(LoadError, match="99"):
            build_ekg(civil_toy["records_a"], civil_toy["records_b"], links)

    def test_idempotent(self, civil_toy):
        again = build_ekg(
            civil_toy["records_a"], civil_toy["records_b"], civil_toy["links"]
        )
        kg = civil_toy["kg"]
        assert again.evolution == kg.evolution
        assert again.counts() == kg.counts()

    def test_every_et_value_appears_in_some_at(self, civil_toy):
        # every evolution value is a present cell of some record
        present = {
            int(v)
            for records in (civil_toy["records_a"], civil_toy["records_b"])
            for v in records.value_matrix.ravel()
            if v >= 0
        }
        for t in civil_toy["kg"].evolution:
            assert t.head_value in present
            assert t.tail_value in present

    def test_overlapping_entity_ids_rejected(self, civil_toy):
        with pytest.raises(DomainError):
            build_ekg(civil_toy["records_a"], civil_toy["records_a"], civil_toy["links"])

    def test_counts(self, civil_toy):
        assert civil_toy["kg"].counts() == {
            "entities": 4,
            "attributes": 1,
            "values": 3,
            "relations": 0,
            "attribute_triples": 4,
            "relational_triples": 0,
            "evolution_triples": 2,
        }


class TestValidation:
    def test_evolution_outside_domain(self):
        d = ValueDictionary(2)
        x = d.intern(0, "x")
        z = d.intern(1, "z")
        with pytest.raises(DomainError):
            EvolutionKG.from_triples(
                entities=[1],
                values=d,
                attribute_triples=[AttributeTriple(1, x, 0)],
                evolution=[EvolutionTriple(x, z, 0)],
            )

    def test_evolution_value_outside_dictionary(self):
        d = ValueDictionary(1)
        x = d.intern(0, "x")
        with pytest.raises(DomainError, match="unknown value 7"):
            EvolutionKG.from_triples(
                entities=[], values=d, attribute_triples=[],
                evolution=[EvolutionTriple(x, 7, 0)],
            )

    @pytest.mark.parametrize("head, tail, message", [
        (-1, 0, "unknown value -1"),
        (0, 3, "unknown value 3"),
        (2**40, 0, f"unknown value {2**40}"),
        (2**63, 0, "unknown value beyond int64"),
        (0, 1, "evolution triple EvolutionTriple(head_value=0, tail_value=1, attribute=0): "
               "value 1 outside attribute 0 domain"),
        (1, 2, "evolution triple EvolutionTriple(head_value=1, tail_value=2, attribute=0): "
               "value 1 outside attribute 0 domain"),
    ])
    def test_from_triples_names_the_bad_value(self, head, tail, message):
        d = ValueDictionary(2)
        d.intern(0, "x"), d.intern(1, "y"), d.intern(0, "z")  # ids 0, 1, 2
        good = EvolutionTriple(0, 2, 0)
        with pytest.raises(DomainError) as exc:
            EvolutionKG.from_triples(
                entities=[], values=d, attribute_triples=[],
                evolution=[good, EvolutionTriple(head, tail, 0), good],
            )
        assert str(exc.value).endswith(message)

    def test_columns_sorted_by_head_then_tail(self):
        kg, triples = random_multi_attribute_kg(np.random.default_rng(3))
        columns = list(zip(kg.heads.tolist(), kg.tails.tolist(), kg.attributes.tolist()))
        assert columns == sorted(kg.evolution) == triples
        assert all(c.dtype == np.int64 for c in (kg.heads, kg.tails, kg.attributes))

    def test_observed_tails_equal_a_set_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            kg, triples = random_multi_attribute_kg(rng)
            for attr in range(kg.values.n_attributes):
                for head in range(len(kg.values)):
                    expected = {t.tail_value for t in triples if (t.attribute, t.head_value) == (attr, head)}
                    assert observed_tails(kg, attr, head) == expected

    def test_from_triples_counts_distinct_entities_and_attribute_triples(self):
        d = ValueDictionary(1)
        x = d.intern(0, "x")
        kg = EvolutionKG.from_triples(
            entities=[1, 2, 2],
            values=d,
            attribute_triples=[AttributeTriple(1, x, 0)] * 2 + [AttributeTriple(2, x, 0)],
            evolution=[],
        )
        assert (kg.counts()["entities"], kg.counts()["attribute_triples"]) == (2, 2)


class TestSampleNegatives:
    def test_pool_is_set_difference(self, rng):
        kg, ids = single_attribute_kg(3, [(0, 1)])  # V = {x,y,z}, ET = {(x,y)}
        x, y, z = ids
        draws = sample_negatives(kg, EvolutionTriple(x, y, 0), 50, rng)
        tails = {t.tail_value for t in draws}
        assert tails <= {x, z}
        assert y not in tails

    def test_skip_signal_on_empty_pool(self, rng):
        kg, ids = single_attribute_kg(2, [(0, 0), (0, 1)])
        x, y = ids
        assert sample_negatives(kg, EvolutionTriple(x, y, 0), 1, rng) is None

    def test_without_replacement_when_pool_allows(self, rng):
        kg, ids = single_attribute_kg(10, [(0, 1)])
        draws = sample_negatives(kg, EvolutionTriple(ids[0], ids[1], 0), 9, rng)
        tails = [t.tail_value for t in draws]
        assert len(set(tails)) == 9

    def test_uniformity_within_three_sigma(self):
        # 1000 draws over a 10-value domain with 2 excluded tails
        kg, ids = single_attribute_kg(10, [(0, 1), (0, 2)])
        rng = np.random.default_rng(123)
        counts = {v: 0 for v in ids if v not in (ids[1], ids[2])}
        for _ in range(1000):
            (triple,) = sample_negatives(kg, EvolutionTriple(ids[0], ids[1], 0), 1, rng)
            counts[triple.tail_value] += 1
        expected = 1000 / 8
        sigma = (1000 * (1 / 8) * (7 / 8)) ** 0.5
        for tail, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (tail, count)

    def test_never_in_evolution_set_exhaustive(self):
        # spot-check random small graphs exhaustively
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            n_edges = int(rng.integers(1, 2 * n))
            edges = {
                (int(rng.integers(n)), int(rng.integers(n))) for _ in range(n_edges)
            }
            kg, ids = single_attribute_kg(n, sorted(edges))
            for head, tail in sorted(edges):
                triple = EvolutionTriple(ids[head], ids[tail], 0)
                draws = sample_negatives(kg, triple, 5, rng)
                if draws is None:
                    continue
                for neg in draws:
                    assert neg not in kg.evolution

    def test_deterministic_given_rng_state(self, civil_toy):
        kg = civil_toy["kg"]
        triple = sorted(kg.evolution)[0]
        one = sample_negatives(kg, triple, 4, np.random.default_rng(5))
        two = sample_negatives(kg, triple, 4, np.random.default_rng(5))
        assert one == two

    def test_k_validated(self, civil_toy, rng):
        triple = sorted(civil_toy["kg"].evolution)[0]
        with pytest.raises(ValueError):
            sample_negatives(civil_toy["kg"], triple, 0, rng)


def random_multi_attribute_kg(rng):
    """Random evolution over two or three attributes of random domain sizes."""
    n_attrs = int(rng.integers(2, 4))
    d = ValueDictionary(n_attrs)
    # interleave the attributes so that each domain's ids are not contiguous
    sizes = rng.integers(1, 12, size=n_attrs)
    for i in range(int(sizes.max())):
        for attr in range(n_attrs):
            if i < sizes[attr]:
                d.intern(attr, f"a{attr}v{i}")
    domains = [list(values_of(d, attr)) for attr in range(n_attrs)]
    evolution = set()
    for _ in range(int(rng.integers(1, 25))):
        attr = int(rng.integers(n_attrs))
        head, tail = rng.choice(domains[attr], size=2)
        evolution.add(EvolutionTriple(int(head), int(tail), attr))
    kg = EvolutionKG.from_triples(
        entities=[], values=d, attribute_triples=[], evolution=evolution
    )
    return kg, sorted(evolution)


def list_pool(kg, triple):
    """The pool as a plain list: the attribute's domain minus observed tails."""
    observed = observed_tails(kg, triple.attribute, triple.head_value)
    return [v for v in values_of(kg.values, triple.attribute) if v not in observed]


class TestNegativeSampler:
    def test_pool_sizes_match_list_pools(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            kg, triples = random_multi_attribute_kg(rng)
            sampler = NegativeSampler(kg, triples)
            assert sampler.pool_sizes.tolist() == [len(list_pool(kg, t)) for t in triples]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
    def test_draws_stay_in_pool_distinct_while_pool_allows(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(40):
            kg, triples = random_multi_attribute_kg(rng)
            sampler = NegativeSampler(kg, triples)
            rows = np.flatnonzero(sampler.pool_sizes)
            if not len(rows):
                continue
            rows = rng.choice(rows, size=3 * len(rows))  # repeated rows too
            tails = sampler.draw(rows, k, rng)
            assert tails.shape == (len(rows), k)
            for row, drawn in zip(rows.tolist(), tails.tolist()):
                pool = list_pool(kg, triples[row])
                assert set(drawn) <= set(pool)
                if len(pool) >= k:
                    assert len(set(drawn)) == k
                if len(pool) == k:
                    assert sorted(drawn) == pool

    def test_default_triples_are_the_graphs_own(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            kg, triples = random_multi_attribute_kg(rng)
            own, given_triples = NegativeSampler(kg), NegativeSampler(kg, triples)
            np.testing.assert_array_equal(own.pool_sizes, given_triples.pool_sizes)
            rows = np.flatnonzero(own.pool_sizes)
            for k in (1, 3):
                np.testing.assert_array_equal(
                    own.draw(rows, k, np.random.default_rng(seed)),
                    given_triples.draw(rows, k, np.random.default_rng(seed)),
                )

    def test_with_replacement_beyond_pool(self):
        kg, ids = single_attribute_kg(4, [(0, 1)])
        sampler = NegativeSampler(kg, [EvolutionTriple(ids[0], ids[1], 0)])
        tails = sampler.draw(np.zeros(200, dtype=np.int64), 7, np.random.default_rng(3))
        assert set(tails.ravel().tolist()) == {ids[0], ids[2], ids[3]}

    def test_deterministic_given_rng_state(self):
        kg, triples = random_multi_attribute_kg(np.random.default_rng(8))
        sampler = NegativeSampler(kg, triples)
        rows = np.flatnonzero(sampler.pool_sizes)
        one = sampler.draw(rows, 3, np.random.default_rng(4))
        two = sampler.draw(rows, 3, np.random.default_rng(4))
        np.testing.assert_array_equal(one, two)

    def test_single_draw_is_list_pool_at_uniform_rank(self):
        # k == 1 keeps the stream of one rng.integers(0, pool_size) per row
        rng = np.random.default_rng(21)
        for seed in range(40):
            kg, triples = random_multi_attribute_kg(rng)
            sampler = NegativeSampler(kg, triples)
            rows = np.flatnonzero(sampler.pool_sizes)
            if not len(rows):
                continue
            tails = sampler.draw(rows, 1, np.random.default_rng(seed))[:, 0]
            ranks = np.random.default_rng(seed).integers(0, sampler.pool_sizes[rows])
            expected = [
                list_pool(kg, triples[row])[r] for row, r in zip(rows.tolist(), ranks.tolist())
            ]
            assert tails.tolist() == expected

    def test_k_validated(self, civil_toy, rng):
        kg = civil_toy["kg"]
        sampler = NegativeSampler(kg, sorted(kg.evolution))
        with pytest.raises(ValueError):
            sampler.draw(np.zeros(1, dtype=np.int64), 0, rng)


def random_linked_sets(rng, n_a=40, n_b=30, n_values=(4, 3, 6, 2), missing=0.25):
    """Two record sets with missing values over a shared dictionary, and random links.

    Small vocabularies make equal values on a linked pair common; ids are
    shuffled and non-contiguous, and a record may take part in several links.
    """
    schema = Schema(tuple(f"attr{i}" for i in range(len(n_values))))
    d = ValueDictionary(len(n_values))
    vocab = [[d.intern(attr, f"v{i}") for i in range(n)] for attr, n in enumerate(n_values)]

    def build(n, id_base):
        records = []
        for entity_id in (id_base + 7 * rng.permutation(n)).tolist():
            values = {
                attr: vocab[attr][int(rng.integers(len(vocab[attr])))]
                for attr in range(len(n_values))
                if rng.random() >= missing
            }
            records.append(Record(entity_id, values))
        return RecordSet(schema, d, records)

    a, b = build(n_a, 0), build(n_b, 10_000)
    pairs = {
        (int(rng.choice(a.id_array)), int(rng.choice(b.id_array)))
        for _ in range(int(rng.integers(0, 2 * n_b)))
    }
    return a, b, LinkedPairSet(tuple(sorted(pairs)), "train")


def variant_triples(records_a, records_b, links, identity, reverse):
    """The triples ``reference_evolution`` gives with these flags, taken from
    the two graph variants: the er graph is the ekg graph, its triples
    reversed and the identity triples."""
    ekg = build_ekg(records_a, records_b, links).evolution
    er = build_ekg(records_a, records_b, links, er=True).evolution
    same = {t for t in er if t.head_value == t.tail_value}
    return (er - same if reverse else ekg) | (same if identity else set())


class TestMatrixBuild:
    @pytest.mark.parametrize("identity", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_evolution_equals_reference_loop(self, seed, identity, reverse):
        """(False, False) is the ekg graph and (True, True) the er graph; the
        mixed flags check the er graph's parts."""
        a, b, links = random_linked_sets(np.random.default_rng(seed))
        triples = variant_triples(a, b, links, identity, reverse)
        assert triples == reference_evolution(a, b, links, identity, reverse)
        assert all(type(v) is int for t in triples for v in t)

    @pytest.mark.parametrize("identity", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_packed_key_equals_unique_rows(self, seed, identity, reverse):
        # interleaved ids: no attribute owns a contiguous id range
        rng = np.random.default_rng(100 + seed)
        schema = Schema(("x", "y", "z"))
        d = ValueDictionary(3)
        vocab = [[], [], []]
        for i in range(30):
            attr = int(rng.integers(3))
            vocab[attr].append(d.intern(attr, f"v{i}"))

        def build(n, id_base):
            matrix = np.array(
                [[vocab[attr][int(rng.integers(len(vocab[attr])))] if vocab[attr] else -1
                  for attr in range(3)] for _ in range(n)],
                dtype=np.int64,
            )
            matrix[rng.random(matrix.shape) < 0.2] = -1
            return RecordSet.from_columns(schema, d, np.arange(n) + id_base, matrix)

        a, b = build(60, 0), build(50, 1000)
        pairs = {(int(rng.integers(60)), 1000 + int(rng.integers(50))) for _ in range(90)}
        links = LinkedPairSet(tuple(sorted(pairs)), "train")
        head = a.value_matrix[a.rows([x for x, _ in links])]
        tail = b.value_matrix[b.rows([y for _, y in links])]
        keep = (head >= 0) & (tail >= 0)
        if not identity:
            keep &= head != tail
        triples = np.column_stack([head[keep], tail[keep], np.nonzero(keep)[1]])
        if reverse:
            triples = np.concatenate([triples, triples[:, [1, 0, 2]]])
        by_rows = frozenset(map(EvolutionTriple._make, np.unique(triples, axis=0).tolist()))
        assert len(by_rows) > 10
        assert variant_triples(a, b, links, identity, reverse) == by_rows

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_equal_the_store_sizes(self, seed):
        a, b, links = random_linked_sets(np.random.default_rng(seed))
        records = [*a, *b]
        attribute_triples = {
            AttributeTriple(rec.entity_id, vid, attr)
            for rec in records
            for attr, vid in rec.values.items()
        }
        counts = build_ekg(a, b, links).counts()
        assert counts["entities"] == len({rec.entity_id for rec in records})
        assert counts["attribute_triples"] == len(attribute_triples)
        assert (counts["relations"], counts["relational_triples"]) == (0, 0)
        assert counts["values"] == len(a.dictionary)

    def test_no_links_gives_an_empty_graph(self):
        a, b, _ = random_linked_sets(np.random.default_rng(0))
        kg = build_ekg(a, b, LinkedPairSet((), "train"), er=True)
        assert kg.evolution == frozenset()
        assert kg.counts()["entities"] == len(a) + len(b)

    def test_missing_b_endpoint_names_side_and_entity(self, civil_toy):
        links = LinkedPairSet(((0, 10), (1, 99)), "train")
        with pytest.raises(LoadError, match=r"links: b id 99 of link \(1, 99\) is not a B record"):
            build_ekg(civil_toy["records_a"], civil_toy["records_b"], links)
