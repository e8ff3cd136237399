"""Lookups that only the tests need, kept here as oracles: an attribute's
value domain, the tails observed from a head value, g summed in plain
Python, the weight step over features built up front, the threshold sweep
a pass per τ, and the synthetic generator and records writer a record at a
time."""

import numpy as np


def values_of(dictionary, attribute: int) -> tuple[int, ...]:
    """The domain of one attribute of a ``ValueDictionary``, in ascending id order."""
    return tuple(vid for vid, attr, _ in dictionary.entries() if attr == attribute)


def observed_tails(kg, attribute: int, head_value: int) -> frozenset[int]:
    """E(head): every tail value seen evolving from head under attribute, from
    the graph's columns, which are sorted by head."""
    lo, hi = np.searchsorted(kg.heads, [head_value, head_value + 1])
    return frozenset(kg.tails[lo:hi][kg.attributes[lo:hi] == attribute].tolist())


def left_to_right_scores(features, w) -> np.ndarray:
    """Each row's g as a Python loop over Python floats (IEEE doubles):
    0.0 + f[0] * w[0] + f[1] * w[1] + ..., left to right. No BLAS kernel
    is involved, so the bits are the same on every host."""
    weights = [float(x) for x in w]
    scores = []
    for row in np.asarray(features, dtype=float).tolist():
        g = 0.0
        for f, x in zip(row, weights):
            g += f * x
        scores.append(g)
    return np.array(scores, dtype=float)


def eager_weight_loop(feats_pos, feats_neg, hp):
    """``weights.train_weights`` over the scorable positives' and negatives'
    features, given up front: a draw from ``default_rng([seed, epoch])`` in
    every epoch, whether or not the negatives can bind. Returns the weights,
    the loss history and how many negative hinges were active in all."""
    from evolink.weights import _epoch_loss_and_gradient

    n_draw = len(feats_neg)
    if hp.negative_ratio is not None:
        n_draw = min(n_draw, int(round(hp.negative_ratio * len(feats_pos))))
    w = np.ones(feats_pos.shape[1])
    history, active = [], 0
    for epoch in range(hp.epochs):
        idx = np.random.default_rng([hp.seed or 0, epoch]).choice(
            len(feats_neg), size=n_draw, replace=False
        )
        epoch_neg = feats_neg[np.sort(idx)]
        with np.errstate(over="ignore"):
            p_neg = 1.0 / (1.0 + np.exp(-left_to_right_scores(epoch_neg, w)))
        if hp.loss_sign == "corrected":
            active += int((p_neg - (1.0 - hp.margin) > 0).sum())
        else:
            active += int((hp.margin - p_neg > 0).sum())
        total, grad = _epoch_loss_and_gradient(feats_pos, epoch_neg, w, hp)
        n_used = len(feats_pos) + len(epoch_neg)
        history.append(total / n_used)
        w -= hp.learning_rate * grad / n_used
        if hp.nonnegative:
            np.maximum(w, 0.0, out=w)
    return w, history, active


def reference_select_threshold(probabilities, labels) -> tuple[float, float]:
    """``weights.select_threshold`` as one pass over the pairs per τ of
    ``THRESHOLD_GRID``: ``classify`` at τ, then ``Metrics.from_decisions``;
    ties go to the larger τ, and labels without a true pair are refused."""
    from evolink.candidates import Metrics, classify
    from evolink.errors import TrainingError
    from evolink.weights import THRESHOLD_GRID

    probs = np.asarray(probabilities, dtype=float)
    truth = np.asarray(labels, dtype=bool)
    if not truth.any():
        raise TrainingError("no true pair among the labels; no threshold is defined")
    best_tau, best_f = THRESHOLD_GRID[0], -1.0
    for tau in THRESHOLD_GRID:
        f = Metrics.from_decisions(classify(probs, tau), truth).f_score
        if f >= best_f:
            best_tau, best_f = tau, f
    return best_tau, best_f


def reference_generate(config, seed: int):
    """``synth.generate_synthetic`` one record and one draw at a time: a
    scalar ``rng.integers`` per cell, then each duplicate's rule, typo and
    missing draws in turn. The vectorised generator draws the same stream."""
    from evolink.idfiles import LinkedPairSet
    from evolink.ingest import RecordSet, Split, ValueDictionary
    from evolink.synth import _typo

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
    dup_b_ids = config.size_a + np.argsort(b_order)[:n_dup]
    b_ids = range(config.size_a, config.size_a + config.size_b)
    b_matrix = np.array(b_rows, dtype=np.int64).reshape(-1, schema.n_attributes)
    return Split(
        RecordSet.from_columns(schema, dictionary, range(config.size_a), a_rows),
        RecordSet.from_columns(schema, dictionary, b_ids, b_matrix[b_order]),
        LinkedPairSet(np.column_stack((dup_sources, dup_b_ids)), "generated"),
    )


def reference_records_csv(records) -> bytes:
    """The bytes of ``ingest.write_records_csv``, one ``csv.writer`` row per record."""
    import csv
    import io

    from evolink.ingest import ID_COLUMN

    # indexed by value id; the trailing "" is what a missing value's -1 picks
    strings = [text for _, _, text in records.dictionary.entries()] + [""]
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([ID_COLUMN, *records.schema.attributes])
    writer.writerows(
        [entity_id, *map(strings.__getitem__, row)]
        for entity_id, row in zip(records.id_array.tolist(), records.value_matrix.tolist())
    )
    return out.getvalue().encode("utf-8")
