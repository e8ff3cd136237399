"""The per-pair half of an experiment against a scalar pipeline.

``run_experiment`` blocks, labels, scores and evaluates pairs as arrays, a
chunk at a time. Here the same steps run a record, a pair and an attribute
at a time, over the run's own splits and embeddings: blocking as a double
loop over ``Record`` dicts, labels from a set of truth pairs, features from
``weights.pair_terms``, the weights from ``oracles.eager_weight_loop``, the
threshold from ``oracles.reference_select_threshold`` and the test counts in
plain Python. Everything the run reports from those steps must be equal,
bit for bit; a run that fails must fail at the stage the scalar pipeline
says it must.

Run it deep with ``pytest tests/test_differential.py --hypothesis-profile=deep``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from evolink import candidates
from evolink.errors import StageError
from evolink.ingest import partition
from evolink.pipeline import BlockingDiagnostics, ExperimentConfig, run_experiment
from evolink.synth import generate_synthetic
from evolink.weights import pair_terms, sigmoid
from oracles import eager_weight_loop, left_to_right_scores, reference_select_threshold


@st.composite
def tiny_configs(draw):
    """A synthetic experiment of 10-60 records a side over 2-5 attributes,
    with missing cells, typos, evolution rules, and a blocking attribute or
    none; every setting of the weight step that changes which pairs it
    scores."""
    n_attr = draw(st.integers(2, 5))
    names = [f"a{i}" for i in range(n_attr)]
    counts = [draw(st.integers(2, 8)) for _ in names]
    size_a, size_b = draw(st.integers(10, 60)), draw(st.integers(10, 60))
    rules = []
    for _ in range(draw(st.integers(0, 2))):
        attr = draw(st.integers(0, n_attr - 1))
        source, target = draw(st.lists(
            st.integers(0, counts[attr] - 1), min_size=2, max_size=2, unique=True,
        ))
        rules.append({"attribute": names[attr], "from": f"{names[attr]}v{source:03d}",
                      "to": f"{names[attr]}v{target:03d}",
                      "probability": draw(st.sampled_from([0.3, 1.0]))})
    synth = {
        "attributes": names,
        "vocabularies": {name: {"prefix": f"{name}v", "count": n}
                         for name, n in zip(names, counts)},
        "size_a": size_a, "size_b": size_b,
        "duplicate_fraction": min(1.0, size_b / size_a) * draw(st.sampled_from([0.4, 0.7, 1.0])),
        "blocking_attribute": draw(st.sampled_from([None, *names])),
        "evolution_rules": rules,
        "typo_probability": draw(st.sampled_from([0.0, 0.1, 0.3])),
        "missing_probability": draw(st.sampled_from([0.0, 0.1, 0.3])),
    }
    return ExperimentConfig.from_dict({
        "source": {"kind": "synthetic", "synth": synth},
        "mode": draw(st.sampled_from(["werl", "merl"])),
        "kg_variant": draw(st.sampled_from(["ekg", "er"])),
        "embed": {"dim": 4, "epochs": 5, "batch_size": 16, "learning_rate": 0.05,
                  "negatives": draw(st.integers(1, 2)), "norm": draw(st.sampled_from([1, 2]))},
        "rl": {
            "epochs": draw(st.integers(1, 25)),
            "loss_sign": draw(st.sampled_from(["corrected", "as_written"])),
            "margin": draw(st.sampled_from([0.2, 0.45, 0.5, 0.55, 0.8])),
            "negative_ratio": draw(st.sampled_from([None, 0.5, 2.0, 10.0])),
            "learning_rate": draw(st.sampled_from([0.5, 5.0])),
        },
        "seed": draw(st.integers(0, 1000)),
    })


def scalar_pairs(split, blocking):
    """The split's candidates as (A record, B record, label) in blocking's
    order, and its ``BlockingDiagnostics``: every A record against every B
    record that holds its blocking value."""
    truth = set(split.links.pairs)
    pairs = []
    for head in split.records_a:
        key = None if blocking is None else head.values.get(blocking)
        if blocking is not None and key is None:
            continue
        for tail in split.records_b:
            if blocking is None or tail.values.get(blocking) == key:
                pairs.append((head, tail, (head.entity_id, tail.entity_id) in truth))
    covered = {(head.entity_id, tail.entity_id) for head, tail, _ in pairs}
    return pairs, BlockingDiagnostics(len(pairs), len(split.links), len(truth - covered))


def scalar_probability(terms, w):
    """P of one pair's terms (None: no shared attribute) under weights ``w``."""
    if terms is None:
        return 0.0
    return sigmoid(float(left_to_right_scores([terms], w)[0]))


def scalar_metrics(probabilities, labels, tau, lost):
    """(accuracy, precision, recall, F, tp, fp, tn, fn), counted pair by pair;
    a link blocking lost is a false negative."""
    tp = fp = tn = fn = 0
    for prob, label in zip(probabilities, labels):
        match = prob >= tau
        tp += match and label
        fp += match and not label
        tn += not match and not label
        fn += not match and label
    fn += lost
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / (tp + fp + tn + fn) if tp + fp + tn + fn else 0.0
    return accuracy, precision, recall, f, tp, fp, tn, fn


@settings(deadline=None)
@given(tiny_configs(), st.sampled_from([7, candidates.PAIR_CHUNK]))
def test_pair_pipeline_equals_the_scalar_pipeline(config, chunk):
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(candidates, "PAIR_CHUNK", chunk)  # 7: many chunks a split
            result = run_experiment(config)
        failed = None
    except StageError as exc:
        failed = exc.stage
    # a graph without triples leaves nothing to embed: no pair is reached
    assume(failed not in ("graph", "embed"))
    event(f"failed at {failed}" if failed else "ran")
    if failed:
        seeds = config.stage_seeds
        data = generate_synthetic(config.data_source, seeds["synthetic"])
        splits = partition(data.records_a, data.records_b, data.links, config.ratios,
                           seeds["partition"])
    else:
        splits = result.splits
    blocking = config.data_source.to_schema().blocking_attribute
    blocked = {name: scalar_pairs(split, blocking)
               for name, split in zip(("train", "validation", "test"), splits)}

    def terms_of(name):
        if failed:  # the presence of shared attributes alone decides the failure
            return [True if set(a.values) & set(b.values) else None for a, b, _ in blocked[name][0]]
        store, p = result.bundle.store, config.embed.norm
        return [pair_terms(a, b, store, p) for a, b, _ in blocked[name][0]]

    def labels_of(name):
        return [label for _, _, label in blocked[name][0]]

    # the stage at which the scalar pipeline fails, if any
    expected = None
    if config.mode == "werl":
        terms, labels = terms_of("train"), labels_of("train")
        pos = [t for t, label in zip(terms, labels) if label and t is not None]
        neg = [t for t, label in zip(terms, labels) if not label and t is not None]
        if not pos or not neg:
            expected = "weights"
        elif not failed:
            rl = replace(config.rl, seed=result.report.seeds["weights"])
            w, history, _ = eager_weight_loop(np.array(pos), np.array(neg), rl)
            if not all(map(math.isfinite, history)):
                expected = "weights"
    else:
        w, history = np.ones(len(splits[0].records_a.schema.attributes)), []
    if expected is None and not any(labels_of("validation")):
        expected = "threshold"
    if expected is None and not len(splits[2].links):
        expected = "evaluate"
    assert failed == expected
    if failed:
        return

    report = result.report
    assert report.blocking == {name: diagnostics for name, (_, diagnostics) in blocked.items()}
    assert np.array(list(report.weight_values.values())).tobytes() == w.tobytes()
    assert np.array(report.weights_loss).tobytes() == np.array(history).tobytes()
    validation = [scalar_probability(t, w) for t in terms_of("validation")]
    tau, validation_f = reference_select_threshold(validation, labels_of("validation"))
    assert (report.tau, report.validation_f) == (tau, validation_f)
    test = [scalar_probability(t, w) for t in terms_of("test")]
    m = report.metrics
    assert (m.accuracy, m.precision, m.recall, m.f_score, m.tp, m.fp, m.tn, m.fn) == (
        scalar_metrics(test, labels_of("test"), tau, blocked["test"][1].lost_links)
    )
    test_pairs = result.test_pairs
    assert list(zip(test_pairs.a_ids.tolist(), test_pairs.b_ids.tolist())) == [
        (a.entity_id, b.entity_id) for a, b, _ in blocked["test"][0]
    ]
    assert test_pairs.label.tolist() == labels_of("test")
    assert test_pairs.probability.tobytes() == np.array(test, dtype=float).tobytes()
