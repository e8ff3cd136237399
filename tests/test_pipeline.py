import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evolink.cli import main
from evolink.errors import BlockingCapError, ConfigError, StageError
from evolink.ingest import (
    LinkedPairSet,
    Record,
    RecordSet,
    Schema,
    SynthConfig,
    ValueDictionary,
)
from evolink.pipeline import (
    REFERENCE_RESULTS,
    CandidatePair,
    ExperimentConfig,
    Metrics,
    all_negative_probabilities,
    block_candidates,
    evaluate,
    exact_match_probabilities,
    label_pairs,
    run_experiment,
    write_report,
)


def surname_sets(rows_a, rows_b):
    """Build two record sets over a single surname attribute."""
    schema = Schema(("surname",), blocking_attribute=0)
    d = ValueDictionary(1)

    def build(rows, start):
        records = []
        for i, name in enumerate(rows):
            values = {} if name is None else {0: d.intern(0, name)}
            records.append(Record(start + i, values))
        return RecordSet(schema, d, tuple(records))

    return build(rows_a, 0), build(rows_b, 1000), schema


class TestBlocking:
    def test_two_by_three_block(self):
        a, b, _ = surname_sets(["puig", "puig", "serra"], ["puig", "puig", "puig"])
        pairs = block_candidates(a, b, 0)
        assert len(pairs) == 6
        assert all(p.a_entity in (0, 1) for p in pairs)

    def test_missing_blocking_value_joins_nothing(self):
        a, b, _ = surname_sets(["puig", None], ["puig"])
        pairs = block_candidates(a, b, 0)
        assert {p.a_entity for p in pairs} == {0}

    def test_matches_brute_force_double_loop(self, rng):
        names = [f"fam{i}" for i in range(17)]
        rows_a = [None if rng.random() < 0.1 else names[int(rng.integers(17))] for _ in range(120)]
        rows_b = [None if rng.random() < 0.1 else names[int(rng.integers(17))] for _ in range(90)]
        a, b, _ = surname_sets(rows_a, rows_b)
        fast = {(p.a_entity, p.b_entity) for p in block_candidates(a, b, 0)}
        brute = {
            (ra.entity_id, rb.entity_id)
            for ra in a
            for rb in b
            if ra.values.get(0) is not None and ra.values.get(0) == rb.values.get(0)
        }
        assert fast == brute

    def test_cross_product_cap(self):
        a, b, _ = surname_sets(["x"] * 30, ["y"] * 40)
        with pytest.raises(BlockingCapError, match="blocking"):
            block_candidates(a, b, None, cross_product_cap=100)
        assert len(block_candidates(a, b, None, cross_product_cap=1200)) == 1200


class TestLabeling:
    def test_empty_truth_all_non_links(self):
        a, b, _ = surname_sets(["puig"], ["puig"])
        pairs = block_candidates(a, b, 0)
        labeled = label_pairs(pairs, LinkedPairSet((), "test"))
        assert all(p.label is False for p in labeled.pairs)
        assert labeled.lost_links == 0

    def test_blocked_away_truth_counted(self):
        a, b, _ = surname_sets(["puig", "serra"], ["puig", "vila"])
        pairs = block_candidates(a, b, 0)
        truth = LinkedPairSet(((0, 1000), (1, 1001)), "test")  # serra->vila blocked away
        labeled = label_pairs(pairs, truth)
        assert labeled.lost_links == 1
        assert sum(1 for p in labeled.pairs if p.label) == 1


def scored(a, b, label, prob):
    return CandidatePair(a, b, label=label, probability=prob)


class TestEvaluate:
    def test_all_correct(self):
        pairs = [scored(0, 1, True, 0.9), scored(0, 2, False, 0.1)]
        m = evaluate(pairs, 0.5)
        assert (m.accuracy, m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_on_rare_positives_looks_accurate(self):
        # 3% positives: calling everything a non-match is 97% accurate, F = 0
        pairs = [scored(i, i, i < 3, 0.0) for i in range(100)]
        m = evaluate(all_negative_probabilities(pairs), 0.5)
        assert m.accuracy >= 0.97
        assert m.f_score == 0.0
        assert m.recall == 0.0

    def test_hand_confusion(self):
        pairs = (
            [scored(i, i, True, 0.9) for i in range(9)]
            + [scored(100, 100, False, 0.9)]
            + [scored(200 + i, 0, True, 0.1) for i in range(3)]
            + [scored(300 + i, 0, False, 0.1) for i in range(87)]
        )
        m = evaluate(pairs, 0.5)
        assert (m.tp, m.fp, m.fn, m.tn) == (9, 1, 3, 87)
        assert m.precision == pytest.approx(0.9)
        assert m.recall == pytest.approx(0.75)
        assert m.f_score == pytest.approx(0.818, abs=5e-4)

    def test_extra_false_negatives_charged(self):
        pairs = [scored(0, 1, True, 0.9)]
        m = evaluate(pairs, 0.5, extra_false_negatives=3)
        assert m.fn == 3
        assert m.recall == pytest.approx(0.25)

    def test_unscored_pair_rejected(self):
        with pytest.raises(ConfigError):
            evaluate([CandidatePair(0, 1, label=True)], 0.5)

    @pytest.mark.parametrize("tau", (0.0, 1.0, 1.5, -0.2, float("nan")))
    def test_threshold_outside_the_unit_interval_refused(self, tau):
        # a match is P >= tau (classify), so no tau outside (0, 1) is a threshold
        pairs = [scored(0, 1, True, 0.9), scored(0, 2, False, 0.1)]
        with pytest.raises(ConfigError, match=r"tau: must be in \(0, 1\)"):
            evaluate(pairs, tau)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(0, 1, allow_nan=False)), max_size=60
        )
    )
    def test_confusion_counts_partition_the_pairs(self, rows):
        pairs = [scored(i, i, lab, prob) for i, (lab, prob) in enumerate(rows)]
        m = evaluate(pairs, 0.5)
        assert m.tp + m.fp + m.tn + m.fn == len(pairs)

    def test_threshold_monotonicity(self, rng):
        pairs = [
            scored(i, i, bool(rng.integers(2)), float(rng.random()))
            for i in range(400)
        ]
        last_recall, last_fp = None, None
        for i in range(1, 100):
            m = evaluate(pairs, i / 100)
            if last_recall is not None:
                assert m.recall <= last_recall + 1e-12
                assert m.fp <= last_fp
            last_recall, last_fp = m.recall, m.fp


class TestBaselines:
    def test_exact_match_baseline(self):
        a, b, _ = surname_sets(["puig", "serra"], ["puig", "serra"])
        pairs = [CandidatePair(0, 1000), CandidatePair(0, 1001)]
        out = exact_match_probabilities(pairs, a, b, [0])
        assert [p.probability for p in out] == [1.0, 0.0]


SMALL_SYNTH = {
    "attributes": ["given_name", "surname2", "status"],
    "blocking_attribute": "surname2",
    "vocabularies": {
        "given_name": {"prefix": "gn", "count": 40},
        "surname2": {"prefix": "fam", "count": 12},
        "status": ["single", "married", "widowed"],
    },
    "size_a": 150,
    "size_b": 150,
    "duplicate_fraction": 0.6,
    "evolution_rules": [
        {"attribute": "status", "from": "single", "to": "married", "probability": 0.5}
    ],
    "typo_probability": 0.0,
    "missing_probability": 0.0,
}


def small_config(**overrides):
    raw = {
        "source": {"kind": "synthetic", "synth": SMALL_SYNTH},
        "ratios": [0.6, 0.2, 0.2],
        "embed": {"dim": 12, "epochs": 60, "learning_rate": 0.1, "batch_size": 32},
        "rl": {"epochs": 60},
        "seed": 5,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestRunExperiment:
    def test_merl_mode_keeps_uniform_weights(self):
        result = run_experiment(small_config(mode="merl"))
        assert set(result.report.weight_values.values()) == {1.0}
        assert result.report.weights_loss == []

    def test_werl_mode_trains_weights(self):
        result = run_experiment(small_config())
        assert len(result.report.weights_loss) == 60
        assert result.report.config["mode"] == "werl"

    def test_weights_read_the_labelled_train_split_itself(self, monkeypatch):
        from evolink import pipeline, weights

        seen = []

        def recording(t_plus, t_minus, *args, **kwargs):
            seen.append((len(t_plus), len(t_minus), int(np.count_nonzero(t_minus.label))))
            return weights.train_weights(t_plus, t_minus, *args, **kwargs)

        monkeypatch.setattr(pipeline, "train_weights", recording)
        train = run_experiment(small_config()).report.blocking["train"]
        # the split whole, its matches included, and no copy of its negatives
        assert seen == [(train.true_pairs - train.lost_links, train.candidates,
                         train.true_pairs - train.lost_links)]

    def test_er_variant_runs_with_identity_and_reverse(self):
        plain = run_experiment(small_config())
        degenerate = run_experiment(small_config(kg_variant="er"))
        assert (
            degenerate.report.graph_counts["evolution_triples"]
            > plain.report.graph_counts["evolution_triples"]
        )

    def test_reports_are_byte_identical_across_reruns(self, tmp_path):
        for run in ("one", "two"):
            write_report(run_experiment(small_config()).report, tmp_path / run)
        for name in (
            "config.json", "loss_embed.csv", "loss_weights.csv",
            "metrics.csv", "report.txt",
        ):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name

    def test_report_contents(self, tmp_path):
        result = run_experiment(small_config())
        write_report(result.report, tmp_path)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert REFERENCE_RESULTS in text
        assert "loss_sign: corrected" in text
        assert "blocking:" in text
        metrics_csv = (tmp_path / "metrics.csv").read_text(encoding="utf-8")
        assert metrics_csv.splitlines()[0] == (
            "accuracy,precision,recall,f_score,tp,fp,tn,fn,tau"
        )
        assert len(metrics_csv.splitlines()) == 2

    def test_explicit_zero_stage_seeds_are_used(self):
        unset = small_config()
        assert (unset.stage_seeds["embed"], unset.stage_seeds["weights"]) == (7, 8)
        config = small_config(
            embed={**small_config().to_dict()["embed"], "seed": 0},
            rl={"epochs": 60, "seed": 0},
        )
        assert (config.stage_seeds["embed"], config.stage_seeds["weights"]) == (0, 0)
        result = run_experiment(config)
        assert result.bundle.embed_hp.seed == 0
        assert result.report.seeds["weights"] == 0

    def test_config_json_reproduces_derived_stage_seeds(self, tmp_path):
        config = small_config()
        result = run_experiment(config)
        write_report(result.report, tmp_path)
        again = ExperimentConfig.from_json(tmp_path / "config.json")
        assert again.stage_seeds == config.stage_seeds == result.report.seeds

    def test_stage_error_names_stage(self):
        config = small_config(
            source={"kind": "files", "attributes": ["x"], "a": "/nope/a.csv",
                    "b": "/nope/b.csv", "truth": "/nope/t.csv"},
        )
        with pytest.raises(StageError, match="load"):
            run_experiment(config)

    @pytest.mark.parametrize("ratios, message", [
        ([0.5, 0.5, 0.5], "ratios: must sum to 1, got 1.5"),
        ([1.2, -0.2, 0.0], "ratios: fractions must be non-negative"),
        ([0.5, 0.5], "ratios: expected three fractions"),
        ([1, 0, 0], "ratios: every fraction must be positive, got [1, 0, 0]"),
    ])
    def test_ratios_are_refused_before_any_file_is_opened(self, tmp_path, capsys, ratios, message):
        # the files do not exist, so a check left to the partition stage
        # would end the run at the load stage instead
        source = {"kind": "files", "attributes": ["x"], "a": "/nope/a.csv",
                  "b": "/nope/b.csv", "truth": "/nope/t.csv"}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_config(source=source, ratios=ratios)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": source, "ratios": ratios}), encoding="utf-8")
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("delimiter", ["\n", "\r"])
    def test_a_line_end_delimiter_is_refused_before_any_file_is_opened(
        self, tmp_path, capsys, delimiter
    ):
        # a line end splits every row, so the load stage would fail on the
        # records' header, naming no key
        source = {"kind": "files", "attributes": ["x", "y"], "a": "/nope/a.csv",
                  "b": "/nope/b.csv", "truth": "/nope/t.csv",
                  "format": {"delimiter": delimiter}}
        message = f"source.format.delimiter: must be one character other than CR or LF, got {delimiter!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_config(source=source)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"source": source}), encoding="utf-8")
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # an empty validation split leaves the threshold undefined, an empty test
    # split the test metrics; a config refuses a zero ratio, but a ratio too
    # small to draw one of the links makes either
    EMPTY_SPLITS = [
        ([0.8 - 1e-6, 1e-6, 0.2], "threshold", "no true pair among the labels"),
        ([0.8 - 1e-6, 0.2, 1e-6], "evaluate", "the test split holds no link"),
    ]

    @pytest.mark.parametrize("ratios, stage, message", EMPTY_SPLITS)
    def test_an_empty_split_fails_its_stage(self, ratios, stage, message):
        config = small_config(ratios=ratios, embed={"dim": 4, "epochs": 2}, rl={"epochs": 2})
        with pytest.raises(StageError, match=f"^stage '{stage}' failed: .*{message}") as info:
            run_experiment(config)
        assert info.value.stage == stage

    @pytest.mark.parametrize("ratios, stage, message", EMPTY_SPLITS)
    def test_an_empty_split_exits_2_without_a_report(self, tmp_path, capsys, ratios, stage, message):
        raw = {**small_config().to_dict(), "ratios": ratios,
               "embed": {"dim": 4, "epochs": 2}, "rl": {"epochs": 2}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert errors[0].startswith(f"error: stage '{stage}' failed: ") and message in errors[0]
        assert not out.exists()

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="mode"):
            small_config(mode="banana")
        with pytest.raises(ConfigError, match="source"):
            ExperimentConfig.from_dict({})


class TestConfigFile:
    def test_json_array_is_not_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected a JSON object"):
            ExperimentConfig.from_json(path)
        with pytest.raises(ConfigError, match="expected a JSON object"):
            ExperimentConfig.from_dict([1, 2])

    @pytest.mark.parametrize("source", [[], "synthetic", None, 3])
    def test_source_must_be_an_object(self, source):
        with pytest.raises(ConfigError, match="source: expected a JSON object"):
            small_config(source=source)

    def test_relations_key_rejected(self):
        source = {"kind": "synthetic", "synth": SMALL_SYNTH, "relations": "rel.csv"}
        with pytest.raises(ConfigError, match="source.relations"):
            small_config(source=source)

    @pytest.mark.parametrize("section, key, value, message", [
        ("embed", "dim", "50", "embed.dim: expected int, got '50'"),
        ("embed", "dim", 2.5, "embed.dim: expected int"),
        ("embed", "dim", True, "embed.dim: expected int"),
        ("embed", "margin", float("nan"), "embed.margin: expected float"),
        ("embed", "dim", 0, "embed.dim: must be >= 1"),
        ("embed", "seed", "1", "embed.seed: expected int | None"),
        ("embed", "depth", 3, "embed.depth: unknown key"),
        ("rl", "margin", "0.3", "rl.margin: expected float, got '0.3'"),
        ("rl", "margin", 1.5, "rl.margin: must be in"),
        ("rl", "nonnegative", 1, "rl.nonnegative: expected bool"),
        ("rl", "loss_sign", ["corrected"], "rl.loss_sign: expected str"),
    ])
    def test_hyperparameter_errors_name_the_key(self, section, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_config(**{section: {key: value}})

    def test_hyperparameter_types_accepted(self):
        config = small_config(
            embed={"dim": 4, "margin": 1, "seed": None},
            rl={"negative_ratio": None, "nonnegative": True, "learning_rate": 2},
        )
        assert (config.embed.dim, config.embed.margin, config.embed.seed) == (4, 1, None)
        assert (config.rl.negative_ratio, config.rl.nonnegative) == (None, True)

    @pytest.mark.parametrize("overrides, key", [
        ({"embed": []}, "embed"),
        ({"rl": "fast"}, "rl"),
        ({"ratios": "abc"}, "ratios"),
        ({"ratios": [0.6, "0.2", 0.2]}, "ratios"),
        ({"seed": [1]}, "seed"),
        ({"seed": float("inf")}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"mode": 3}, "mode"),
        ({"cross_product_cap": "many"}, "cross_product_cap"),
        ({"cross_product_cap": -5}, "cross_product_cap: must be >= 0"),
    ])
    def test_malformed_top_level_values_name_the_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^{key}"):
            small_config(**overrides)


    @pytest.mark.parametrize("change, message", [
        ({"attributes": 5}, "source.synth.attributes: expected list[str], got 5"),
        ({"attributes": ["given_name", 3]}, "source.synth.attributes: expected list[str]"),
        ({"vocabularies": ["gn"]}, "source.synth.vocabularies: expected object"),
        ({"vocabularies": {"given_name": 4}}, "source.synth.vocabularies.given_name: expected"),
        (
            {"vocabularies": {**SMALL_SYNTH["vocabularies"], "surname2": {"prefix": "fam"}}},
            "source.synth.vocabularies.surname2.count: required",
        ),
        (
            {"vocabularies": {
                **SMALL_SYNTH["vocabularies"], "surname2": {"prefix": "f", "count": "12"},
            }},
            "source.synth.vocabularies.surname2.count: expected int, got '12'",
        ),
        ({"size_a": "150"}, "source.synth.size_a: expected int, got '150'"),
        ({"size_b": 150.5}, "source.synth.size_b: expected int"),
        ({"size_a": 0}, "source.synth.size_a/size_b: must be positive"),
        ({"duplicate_fraction": None}, "source.synth.duplicate_fraction: expected float"),
        ({"blocking_attribute": 1}, "source.synth.blocking_attribute: expected str | None"),
        ({"blocking_attribute": "age"}, "source.synth.blocking_attribute: unknown attribute"),
        ({"typo_probability": True}, "source.synth.typo_probability: expected float"),
        ({"evolution_rules": {"a": 1}}, "source.synth.evolution_rules: expected list"),
        ({"evolution_rules": [3]}, "source.synth.evolution_rules.0: expected object"),
        (
            {"evolution_rules": [{"attribute": "status", "from": "single"}]},
            "source.synth.evolution_rules.0.to: required",
        ),
        (
            {"evolution_rules": [
                {"attribute": "status", "from": "single", "to": "married", "probability": "1"},
            ]},
            "source.synth.evolution_rules.0.probability: expected float",
        ),
    ])
    def test_malformed_synth_names_the_key(self, change, message):
        source = {"kind": "synthetic", "synth": {**SMALL_SYNTH, **change}}
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_config(source=source)

    @pytest.mark.parametrize("key", ["attributes", "vocabularies", "size_a", "duplicate_fraction"])
    def test_missing_synth_key_named(self, key):
        synth = {k: v for k, v in SMALL_SYNTH.items() if k != key}
        with pytest.raises(ConfigError, match=re.escape(f"source.synth.{key}: required")):
            small_config(source={"kind": "synthetic", "synth": synth})

    @pytest.mark.parametrize("synth, message", [
        (None, "source.synth: expected a JSON object, got None"),
        ([], "source.synth: expected a JSON object"),
    ])
    def test_synth_must_be_an_object(self, synth, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_config(source={"kind": "synthetic", "synth": synth})
        with pytest.raises(ConfigError, match=re.escape("source.synth: required")):
            small_config(source={"kind": "synthetic"})

    @pytest.mark.parametrize("overrides, message", [
        ({"seed": -1}, "seed: must be >= 0"),
        ({"rl": {"seed": -2}}, "rl.seed: must be >= 0"),
        ({"embed": {"seed": -3}}, "embed.seed: must be >= 0"),
    ])
    def test_negative_seed_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            small_config(**overrides)


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
CONFIG_KEYS = (
    "source", "ratios", "mode", "kg_variant", "embed", "rl", "seed", "cross_product_cap",
)
HYPER_KEYS = (
    "dim", "margin", "learning_rate", "epochs", "batch_size", "negatives", "norm", "seed",
    "loss_sign", "negative_ratio", "nonnegative", "unknown",
)


# plausible values for each slot, so that many drawn configs are accepted
HYPER_VALUES = (
    st.integers(-1, 60) | st.floats(-0.5, 1.5) | st.sampled_from(["corrected", "as_written"])
    | JSON_SCALARS
)
CONFIG_DICTS = st.fixed_dictionaries(
    {"source": st.fixed_dictionaries({"kind": st.sampled_from(["synthetic", "files", "x"])})},
    optional={
        "ratios": st.sampled_from([[0.6, 0.2, 0.2], [1, 0, 0]])
        | st.lists(JSON_SCALARS, max_size=4),
        "mode": st.sampled_from(["werl", "MERL"]) | JSON_SCALARS,
        "kg_variant": st.sampled_from(["ekg", "ER"]) | JSON_SCALARS,
        "embed": st.dictionaries(st.sampled_from(HYPER_KEYS), HYPER_VALUES, max_size=3)
        | JSON_VALUES,
        "rl": st.dictionaries(st.sampled_from(HYPER_KEYS), HYPER_VALUES, max_size=3)
        | JSON_VALUES,
        "seed": st.integers() | JSON_SCALARS,
        "cross_product_cap": st.integers() | JSON_SCALARS,
    },
)


class TestConfigProperty:
    @given(
        JSON_VALUES | st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES) | CONFIG_DICTS
    )
    def test_from_dict_returns_a_config_or_raises_config_error(self, raw):
        try:
            config = ExperimentConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(config, ExperimentConfig)
        assert len(config.ratios) == 3

    @given(JSON_VALUES)
    def test_synth_from_dict_returns_a_config_or_raises_config_error(self, raw):
        try:
            config = SynthConfig.from_dict(raw)
        except ConfigError:
            return
        assert isinstance(config, SynthConfig)

    @given(st.sampled_from(sorted(SMALL_SYNTH)), JSON_VALUES)
    def test_any_synth_value_is_accepted_or_refused_under_source_synth(self, key, value):
        synth = {**SMALL_SYNTH, key: value}
        try:
            small_config(source={"kind": "synthetic", "synth": synth})
        except ConfigError as exc:
            # a range check may name the field it compares with, such as size_a/size_b
            assert str(exc).startswith("source.synth."), str(exc)


# every key that some config section accepts; a drawn key outside it is
# unknown in every section
KNOWN_KEYS = {
    *CONFIG_KEYS, *HYPER_KEYS, *SMALL_SYNTH, "kind", "synth", "attributes",
    "blocking_attribute", "a", "b", "truth", "format", "delimiter", "null_markers",
}


class TestUnknownKeys:
    @given(
        st.sampled_from(["", "source", "source.format", "source.synth", "embed", "rl"]),
        st.text(max_size=12).filter(lambda key: key not in KNOWN_KEYS),
        JSON_VALUES,
    )
    def test_unknown_key_named_in_every_section(self, section, key, value):
        files = {
            "kind": "files", "attributes": ["given_name", "surname2", "status"],
            "blocking_attribute": "surname2", "format": {"delimiter": ","},
        }
        synthetic = {"kind": "synthetic", "synth": SMALL_SYNTH}
        raw = json.loads(json.dumps({
            "source": synthetic if section == "source.synth" else files,
            "ratios": [0.6, 0.2, 0.2], "embed": {"dim": 4}, "rl": {"epochs": 3}, "seed": 1,
        }))
        node = raw
        for part in filter(None, section.split(".")):
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        named = f"{section}.{key}" if section else key
        assert str(exc.value) == f"{named}: unknown key"

    @pytest.mark.parametrize("section, key", [
        ("", "sed"), ("", "ratio"), ("source", "blocking_atribute"),
        ("source.synth", "typo_probabilty"), ("source.synth.vocabularies.surname2", "cnt"),
        ("source.synth.evolution_rules.0", "prob"),
    ])
    def test_misspelt_key_refused(self, section, key):
        raw = json.loads(json.dumps({"source": {"kind": "synthetic", "synth": SMALL_SYNTH}}))
        node = raw
        for part in filter(None, section.split(".")):
            node = node[int(part) if part.isdigit() else part]
        node[key] = 1
        named = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}: unknown key$"):
            ExperimentConfig.from_dict(raw)


BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


@pytest.mark.parametrize(
    "workload", sorted(json.loads(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))["workloads"])
)
def test_benchmark_configs_are_accepted(workload):
    """The generator and experiment configs that perfbench/run.py writes for a
    workload, built the same way, are read without error."""
    bench = json.loads(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))
    spec, gen = bench["workloads"][workload], bench["generator"]
    blocking = spec["blocking_attribute"]
    for size in (spec["size"], spec["predict_size"]):
        synth = SynthConfig.from_dict(dict(gen, size_a=size, size_b=size, blocking_attribute=blocking))
        assert synth.size_a == size
    experiment = json.loads(json.dumps(bench["experiment"]))
    experiment["embed"]["negatives"] = spec["negatives"]
    experiment["source"] = {
        "kind": "files", "attributes": gen["attributes"], "blocking_attribute": blocking,
    }
    config = ExperimentConfig.from_dict(experiment)
    assert config.embed.negatives == spec["negatives"]
    assert config.data_source.schema.attributes == tuple(gen["attributes"])


class TestMetricsType:
    def test_zero_denominators(self):
        m = Metrics.from_counts(0, 0, 5, 0)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f_score == 0.0
        assert m.accuracy == 1.0


def random_record_sets(rng, n_a, n_b, n_values=(5, 4, 3), missing=0.2, b_offset=0):
    """Two record sets over three attributes with shuffled, non-contiguous ids.

    Blocking values of B are drawn ``b_offset`` values up from A's, so an
    offset of at least the vocabulary size leaves every block empty.
    """
    schema = Schema(("key", "x", "y"), blocking_attribute=0)
    d = ValueDictionary(3)
    vocab = [[d.intern(attr, f"v{i}") for i in range(n + b_offset)] for attr, n in enumerate(n_values)]

    def build(n, id_base, offset):
        ids = id_base + 3 * rng.permutation(n)
        records = []
        for entity_id in ids.tolist():
            values = {}
            for attr, n_vals in enumerate(n_values):
                if rng.random() >= missing:
                    shift = offset if attr == 0 else 0
                    values[attr] = vocab[attr][shift + int(rng.integers(n_vals))]
            records.append(Record(entity_id, values))
        return RecordSet(schema, d, tuple(records))

    return build(n_a, 0, 0), build(n_b, 100_000, b_offset)


def brute_force_blocks(a, b, attr):
    return [
        (ra.entity_id, rb.entity_id)
        for ra in a
        for rb in b
        if ra.values.get(attr) is not None and ra.values.get(attr) == rb.values.get(attr)
    ]


class TestColumnarEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_blocked_pairs_and_order_match_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_record_sets(rng, 60, 45, missing=0.25)
        pairs = block_candidates(a, b, 0)
        assert [(p.a_entity, p.b_entity) for p in pairs] == brute_force_blocks(a, b, 0)

    def test_cross_product_order(self):
        rng = np.random.default_rng(1)
        a, b = random_record_sets(rng, 7, 5)
        pairs = block_candidates(a, b, None)
        assert [(p.a_entity, p.b_entity) for p in pairs] == [
            (ra.entity_id, rb.entity_id) for ra in a for rb in b
        ]

    def test_empty_blocks_give_zero_candidates(self):
        rng = np.random.default_rng(2)
        a, b = random_record_sets(rng, 30, 30, b_offset=5)
        pairs = block_candidates(a, b, 0)
        assert len(pairs) == 0 and list(pairs) == []
        truth = LinkedPairSet(((a.records[0].entity_id, b.records[0].entity_id),), "test")
        labeled = label_pairs(pairs, truth)
        assert len(labeled.pairs) == 0 and labeled.lost_links == 1
        m = evaluate(all_negative_probabilities(labeled.pairs), 0.5, labeled.lost_links)
        assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 0, 1)

        from evolink.embed import EmbeddingStore
        from evolink.pipeline import score_pairs
        from evolink.weights import WeightVector

        store = EmbeddingStore(np.zeros((len(a.dictionary), 2)), np.ones((3, 2)), 2)
        scored = score_pairs(labeled.pairs, a, b, store, WeightVector.ones(3))
        assert scored.score.shape == scored.probability.shape == (0,)
        m = evaluate(scored, 0.5, labeled.lost_links)
        assert (m.tp, m.fp, m.tn, m.fn) == (0, 0, 0, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_labels_and_lost_links_match_set_lookup(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_record_sets(rng, 50, 40)
        pairs = block_candidates(a, b, 0)
        blocked = [(p.a_entity, p.b_entity) for p in pairs]
        some = [blocked[i] for i in rng.choice(len(blocked), 12, replace=False)]
        unblocked = [(ra.entity_id, rb.entity_id) for ra in a for rb in b][::37]
        truth = LinkedPairSet(tuple(sorted(set(some) | set(unblocked))), "test")
        truth_set = set(truth.pairs)
        expected_lost = sum(1 for t in truth.pairs if t not in set(blocked))
        for given in (pairs, list(pairs)):
            labeled = label_pairs(given, truth)
            assert [p.label for p in labeled.pairs] == [t in truth_set for t in blocked]
            assert labeled.lost_links == expected_lost

    def test_score_pairs_match_scalar_oracles(self):
        from evolink.embed import EmbeddingStore
        from evolink.pipeline import score_pairs
        from evolink.weights import WeightVector, g_score, link_probability

        rng = np.random.default_rng(9)
        a, b = random_record_sets(rng, 40, 40, missing=0.5)
        n_values = len(a.dictionary)
        store = EmbeddingStore(rng.normal(size=(n_values, 6)), rng.normal(size=(3, 6)), 6)
        w = WeightVector(rng.uniform(0.2, 3.0, size=3))
        pairs = block_candidates(a, b, None)
        scored = score_pairs(pairs, a, b, store, w)
        undefined = 0
        for i, pair in enumerate(scored):
            head, tail = a.get(pair.a_entity), b.get(pair.b_entity)
            if not set(head.values) & set(tail.values):
                undefined += 1
                assert np.isnan(scored.score[i]) and pair.probability == 0.0
                continue
            assert scored.score[i] == g_score(head, tail, store, w)
            assert pair.probability == link_probability(head, tail, store, w)
        assert undefined > 0

    @pytest.mark.parametrize("chunk", ("1", "7", "len-1"))
    def test_chunked_scores_equal_one_piece_bit_for_bit(self, chunk, monkeypatch):
        import evolink.candidates as candidates_mod
        from evolink.embed import EmbeddingStore
        from evolink.scoring import score_pairs, scored_chunks
        from evolink.weights import WeightVector

        rng = np.random.default_rng(5)
        a, b = random_record_sets(rng, 40, 40, missing=0.5)
        store = EmbeddingStore(rng.normal(size=(len(a.dictionary), 6)), rng.normal(size=(3, 6)), 6)
        w = WeightVector(rng.uniform(0.2, 3.0, size=3))
        blocked = block_candidates(a, b, None)
        some = [(p.a_entity, p.b_entity) for p in blocked][::17]
        pairs = label_pairs(blocked, LinkedPairSet(some, "test")).pairs
        whole = score_pairs(pairs, a, b, store, w, 1)
        size = len(pairs) - 1 if chunk == "len-1" else int(chunk)
        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", size)
        chunked = score_pairs(pairs, a, b, store, w, 1)
        assert np.isnan(whole.score).any()
        for column in ("a", "b", "label", "score", "probability"):
            assert getattr(chunked, column).tobytes() == getattr(whole, column).tobytes(), column
        pieces = list(scored_chunks(pairs, store, w, 1))
        assert [len(piece) for piece in pieces[:-1]] == [size] * (len(pieces) - 1)
        assert np.concatenate([piece.score for piece in pieces]).tobytes() == whole.score.tobytes()

    def test_chunks_share_their_value_pair_distances(self, monkeypatch):
        import evolink.candidates as candidates_mod
        import evolink.scoring as scoring_mod
        from evolink.embed import EmbeddingStore
        from evolink.scoring import score_pairs, scored_chunks
        from evolink.weights import WeightVector

        rng = np.random.default_rng(8)
        a, b = random_record_sets(rng, 40, 40, missing=0.2)
        store = EmbeddingStore(rng.normal(size=(len(a.dictionary), 6)), rng.normal(size=(3, 6)), 6)
        w = WeightVector(rng.uniform(0.2, 3.0, size=3))
        pairs = block_candidates(a, b, None)
        whole = score_pairs(pairs, a, b, store, w)
        computed = []
        compute = scoring_mod.ValuePairTerms._distances

        def counting(self, attr, table, keys):
            computed.extend((attr, key) for key in keys.tolist())
            return compute(self, attr, table, keys)

        monkeypatch.setattr(scoring_mod.ValuePairTerms, "_distances", counting)
        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", 7)
        pieces = list(scored_chunks(pairs, store, w))
        assert len(pieces) > 100
        assert np.concatenate([p.score for p in pieces]).tobytes() == whole.score.tobytes()
        # every chunk shares one table per attribute: no distance is computed twice
        assert computed and len(computed) == len(set(computed))

    def test_chunks_share_their_presence_bits(self, monkeypatch):
        import evolink.candidates as candidates_mod
        from evolink.embed import EmbeddingStore
        from evolink.scoring import scored_chunks
        from evolink.weights import WeightVector

        rng = np.random.default_rng(9)
        a, b = random_record_sets(rng, 40, 40, missing=0.5)
        store = EmbeddingStore(rng.normal(size=(len(a.dictionary), 6)), rng.normal(size=(3, 6)), 6)
        w = WeightVector(rng.uniform(0.2, 3.0, size=3))
        pairs = block_candidates(a, b, None)
        packed = []
        packbits = np.packbits

        def counting(*args, **kwargs):
            packed.append(args[0].shape)
            return packbits(*args, **kwargs)

        monkeypatch.setattr(np, "packbits", counting)
        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", 7)
        pieces = list(scored_chunks(pairs, store, w))
        assert len(pieces) > 100
        # a second scorer, over other pairs of the same records
        others = list(scored_chunks(pairs.take(slice(None, None, 3)), store, w))
        assert len(others) > 30
        # each record set's presence is packed once, however many scorers read it
        assert packed == [a.value_matrix.shape, b.value_matrix.shape]
        undefined = [not set(a.get(p.a_entity).values) & set(b.get(p.b_entity).values)
                     for p in pairs]
        assert any(undefined)
        assert np.isnan(np.concatenate([p.score for p in pieces])).tolist() == undefined

    def test_candidates_chunks_cover_the_pairs_in_order(self, monkeypatch):
        import evolink.candidates as candidates_mod

        rng = np.random.default_rng(2)
        a, b = random_record_sets(rng, 12, 9, missing=0.3)
        blocked = block_candidates(a, b, None)
        some = [(p.a_entity, p.b_entity) for p in blocked][::5]
        pairs = label_pairs(blocked, LinkedPairSet(some, "test")).pairs
        assert pairs.a.dtype == pairs.b.dtype == np.int32 and len(pairs) % 7
        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", 7)
        chunks = list(pairs.chunks())
        assert [len(chunk) for chunk in chunks] == [7] * (len(pairs) // 7) + [len(pairs) % 7]
        for column in ("a", "b", "label"):
            joined = np.concatenate([getattr(chunk, column) for chunk in chunks])
            assert joined.tolist() == getattr(pairs, column).tolist(), column
        for chunk in chunks:
            assert chunk.a.dtype == chunk.b.dtype == np.intp
            assert chunk.records_a is a and chunk.records_b is b
        assert list(pairs.take(slice(0, 0)).chunks()) == []

    def test_exact_match_baseline_matches_scalar_rule(self):
        rng = np.random.default_rng(4)
        a, b = random_record_sets(rng, 30, 30, missing=0.3)
        pairs = block_candidates(a, b, None)
        out = exact_match_probabilities(pairs, a, b, [0, 2])
        expected = []
        for p in pairs:
            ra, rb = a.get(p.a_entity), b.get(p.b_entity)
            hit = all(
                ra.values.get(k) is not None and ra.values.get(k) == rb.values.get(k)
                for k in (0, 2)
            )
            expected.append(1.0 if hit else 0.0)
        assert [p.probability for p in out] == expected


ROW_DTYPES = st.sampled_from([np.int64, np.int32])


@settings(max_examples=200, deadline=None)
@example(n_a=3, n_b=2, rows=[(0, 1), (2, 0)], truth=[], dtype=np.int64)
@example(n_a=3, n_b=2, rows=[], truth=[(0, 1), (-1, 1), (2, 5)], dtype=np.int64)
@given(
    n_a=st.integers(1, 8),
    n_b=st.integers(1, 8),
    rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
    truth=st.lists(st.tuples(st.integers(-2, 9), st.integers(-2, 9)), unique=True, max_size=20),
    dtype=ROW_DTYPES,
)
def test_row_keyed_labels_equal_set_oracle(n_a, n_b, rows, truth, dtype):
    """Candidates with repeated pairs, and truth ends outside the record
    sets (row numbers outside 0..n-1 name no record): the row path, the id
    path and truth_labels all equal set membership."""
    from evolink.candidates import Candidates, truth_labels

    schema = Schema(("x",))
    d = ValueDictionary(1)
    value = d.intern(0, "v")
    a_ids = [11 * i + 5 for i in reversed(range(n_a))]  # row order differs from id order
    b_ids = [13 * i - 40 for i in range(n_b)]
    records_a = RecordSet(schema, d, [Record(i, {0: value}) for i in a_ids])
    records_b = RecordSet(schema, d, [Record(i, {0: value}) for i in b_ids])

    def a_id(i):
        return a_ids[i] if 0 <= i < n_a else 1000 + i

    def b_id(i):
        return b_ids[i] if 0 <= i < n_b else 2000 + i

    rows = [(i % n_a, j % n_b) for i, j in rows]
    pairs = [(a_id(i), b_id(j)) for i, j in rows]
    links = LinkedPairSet([(a_id(i), b_id(j)) for i, j in truth], "test")
    truth_set = set(links.pairs)
    expected = [pair in truth_set for pair in pairs]
    expected_lost = len(truth_set - set(pairs))

    cands = Candidates(
        records_a, records_b,
        np.array([i for i, _ in rows], dtype=dtype), np.array([j for _, j in rows], dtype=dtype),
    )
    by_rows = label_pairs(cands, links)
    assert by_rows.pairs.label.tolist() == expected
    assert by_rows.lost_links == expected_lost
    by_ids = label_pairs([CandidatePair(*pair) for pair in pairs], links)
    assert [p.label for p in by_ids.pairs] == expected
    assert by_ids.lost_links == expected_lost
    labels, lost, _ = truth_labels(cands.a_ids, cands.b_ids, links)
    assert (labels.tolist(), lost) == (expected, expected_lost)


def test_int32_rows_label_on_keys_past_int32():
    """Row keys a * len(records_b) + b go past 2**31 here; int32 row arrays
    must not wrap."""
    from evolink.candidates import Candidates

    n = 46_341  # n * n > 2**31
    schema = Schema(("x",))
    d = ValueDictionary(1)
    values = np.full((n, 1), d.intern(0, "v"))
    records_a = RecordSet.from_columns(schema, d, np.arange(n), values)
    records_b = RecordSet.from_columns(schema, d, n + np.arange(n), values)
    cands = Candidates(
        records_a, records_b,
        np.array([n - 1, n - 2, 0], dtype=np.int32), np.array([n - 1, n - 1, 5], dtype=np.int32),
    )
    truth = LinkedPairSet([(n - 1, 2 * n - 1), (0, n + 5), (5, n + 5)], "test")
    labeled = label_pairs(cands, truth)
    assert labeled.pairs.label.tolist() == [True, False, True]
    assert labeled.lost_links == 1


def test_blocked_rows_label_on_keys_past_int32():
    """Blocking's rows and the truth's rows, which ``find`` returns, are
    int32; A row n - 1 times len(records_b) goes past 2**31, so labelling
    must widen both to int64 before it forms a key."""
    n = 46_341  # n * n > 2**31
    schema = Schema(("x",), blocking_attribute=0)
    d = ValueDictionary(1)
    values = np.full((n, 1), -1)
    values[[0, 5, n - 2, n - 1]] = d.intern(0, "v")
    records_a = RecordSet.from_columns(schema, d, np.arange(n), values)
    records_b = RecordSet.from_columns(schema, d, n + np.arange(n), values)
    pairs = block_candidates(records_a, records_b, 0)
    assert len(pairs) == 16 and pairs.a.dtype == pairs.b.dtype == np.int32
    truth = LinkedPairSet([(n - 1, 2 * n - 1), (n - 2, n + 5), (0, n + 1), (3, n + 3)], "test")
    labeled = label_pairs(pairs, truth)
    truth_set = set(truth.pairs)
    expected = [pair in truth_set for pair in zip(pairs.a_ids.tolist(), pairs.b_ids.tolist())]
    assert sum(expected) == 2 and labeled.pairs.label.tolist() == expected
    assert labeled.lost_links == 2  # the links of records with no blocking value


@pytest.mark.parametrize("n, dtype", [(0, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)])
def test_rows_turn_int64_at_2_to_the_31(n, dtype):
    """The rule is called on counts of rows or pairs, so no array of 2**31 is made."""
    from evolink.candidates import row_dtype

    assert row_dtype(n) is dtype


@pytest.mark.parametrize("bound", [6, 30, 10**6])
def test_blocking_widens_at_the_int32_bound(bound, monkeypatch):
    """With the int32 bound lowered, record sets past it block into int64
    rows, and pair counts past it shift int64 positions: the same pairs.
    Here 20 x 15 records make 43 blocked pairs and 300 crossed ones."""
    from evolink import idfiles

    rng = np.random.default_rng(3)
    a, b = random_record_sets(rng, 20, 15, missing=0.25)
    expected = {attr: block_candidates(a, b, attr) for attr in (0, None)}
    monkeypatch.setattr(idfiles, "INT32_ROWS", bound)
    for attr, want in expected.items():
        pairs = block_candidates(a, b, attr)
        assert pairs.a.dtype == (np.int64 if len(a) >= bound else np.int32)
        assert pairs.b.dtype == (np.int64 if len(b) >= bound else np.int32)
        assert np.array_equal(pairs.a, want.a) and np.array_equal(pairs.b, want.b)
