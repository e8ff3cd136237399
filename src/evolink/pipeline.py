"""End-to-end orchestration: blocking, labeling, scoring, metrics, reports.

An experiment is: load or generate data, partition by linked pair, block
candidates per split, build the evolution graph from the training links,
train embeddings, optionally train weights, pick the decision threshold on
validation, and evaluate on test. Everything is driven by one config object
and is deterministic given its seeds.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import ekg as ekg_mod
from . import weights as weights_mod
from .candidates import CandidatePair, Candidates, Metrics, truth_labels
from .embed import EmbeddingStore, EmbedHyperparams, train_embeddings
from .errors import BlockingCapError, ConfigError, StageError
from .ingest import (
    JSON_TYPES,
    LinkedPairSet,
    RecordSet,
    Schema,
    Split,
    SynthConfig,
    TextFormat,
    generate_synthetic,
    json_fits,
    load_links,
    load_records,
    partition,
)
from .model_io import ModelBundle
from .weights import RLHyperparams, WeightVector, select_threshold, sigmoid, train_weights

log = logging.getLogger(__name__)

# Published benchmark F-scores quoted in every report footer for context.
REFERENCE_RESULTS = (
    "BALL WERL(EKG) F=0.93 | Febrl MERL(EKG) F=0.98 | Cora WERL(EKG) F=0.46"
)

DEFAULT_CROSS_PRODUCT_CAP = 2_000_000


def block_candidates(
    records_a: RecordSet,
    records_b: RecordSet,
    blocking_attribute: int | None = None,
    cross_product_cap: int = DEFAULT_CROSS_PRODUCT_CAP,
) -> Candidates:
    """All A x B pairs whose blocking values are present and equal.

    Without a blocking attribute the full cross product is returned, guarded
    by the size cap. Records missing the blocking value join no pair. Pairs
    come in A-record order, and in B-record order for one A record. When its
    negatives can bind, weight training subsamples them by position, so this
    order is part of the result.
    """
    if records_a.dictionary is not records_b.dictionary:
        raise ConfigError("record sets must share one value dictionary")
    if blocking_attribute is None:
        total = len(records_a) * len(records_b)
        if total > cross_product_cap:
            raise BlockingCapError(
                f"cross product of {total} pairs exceeds the cap of "
                f"{cross_product_cap}; configure a blocking attribute"
            )
        a = np.repeat(np.arange(len(records_a)), len(records_b))
        b = np.tile(np.arange(len(records_b)), len(records_a))
        return Candidates(records_a, records_b, a, b)

    key_a = records_a.value_matrix[:, blocking_attribute]
    key_b = records_b.value_matrix[:, blocking_attribute]
    # B rows grouped by blocking value, in record order inside each group
    b_present = np.flatnonzero(key_b >= 0)
    b_grouped = b_present[np.argsort(key_b[b_present], kind="stable")]
    b_keys = key_b[b_grouped]
    a_rows = np.flatnonzero(key_a >= 0)
    starts = np.searchsorted(b_keys, key_a[a_rows], side="left")
    counts = np.searchsorted(b_keys, key_a[a_rows], side="right") - starts
    a = np.repeat(a_rows, counts)
    # position of each pair inside its A record's run, then into b_grouped
    run_starts = np.cumsum(counts) - counts
    offsets = np.arange(len(a)) - np.repeat(run_starts, counts)
    b = b_grouped[np.repeat(starts, counts) + offsets]
    return Candidates(records_a, records_b, a, b)


class LabeledCandidates(NamedTuple):
    pairs: Sequence[CandidatePair]  # Candidates when labelled from Candidates
    lost_links: int  # true links no candidate pair covers (blocking loss)


def _entity_ids(pairs: Sequence[CandidatePair]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pairs, Candidates):
        return pairs.a_ids, pairs.b_ids
    a_ids = np.fromiter((p.a_entity for p in pairs), dtype=np.int64, count=len(pairs))
    b_ids = np.fromiter((p.b_entity for p in pairs), dtype=np.int64, count=len(pairs))
    return a_ids, b_ids


def label_pairs(pairs: Sequence[CandidatePair], truth: LinkedPairSet) -> LabeledCandidates:
    """Mark candidates against the truth set; count links blocking lost.

    Candidates come back as Candidates; any other sequence, which carries no
    record rows, comes back as a list of labelled CandidatePairs.
    """
    labels, lost = truth_labels(*_entity_ids(pairs), truth)
    if isinstance(pairs, Candidates):
        return LabeledCandidates(replace(pairs, label=labels), lost)
    labeled = [replace(p, label=x) for p, x in zip(pairs, labels.tolist())]
    return LabeledCandidates(labeled, lost)


def score_pairs(
    pairs: Sequence[CandidatePair],
    records_a: RecordSet,
    records_b: RecordSet,
    store: EmbeddingStore,
    w: WeightVector,
    p: int = 2,
    n_known_values: int | None = None,
) -> Candidates:
    """Attach match scores and probabilities.

    Pairs with no shared attribute get score NaN and probability 0.0.
    """
    cands = Candidates.of(pairs, records_a, records_b)
    features, defined = weights_mod.feature_matrix(
        cands, records_a, records_b, store, p, n_known_values
    )
    # one dot product per row rather than a matrix-vector product: each score
    # then equals g_score's bit for bit, whatever the number of rows
    scores = np.matmul(features[:, None, :], w.weights[:, None])[:, 0, 0]
    scores[~defined] = np.nan
    probs = sigmoid(scores)
    probs[~defined] = 0.0
    return replace(cands, score=scores, probability=probs)


def _labels_and_probabilities(pairs: Sequence[CandidatePair]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pairs, Candidates) and pairs.label is not None and pairs.probability is not None:
        return pairs.label, pairs.probability
    labels, probs = [], []
    for pair in pairs:
        if pair.label is None or pair.probability is None:
            raise ConfigError(
                f"pair ({pair.a_entity},{pair.b_entity}) lacks label or probability"
            )
        labels.append(pair.label)
        probs.append(pair.probability)
    return np.array(labels, dtype=bool), np.array(probs, dtype=float)


def evaluate(
    pairs: Sequence[CandidatePair], tau: float, extra_false_negatives: int = 0
) -> Metrics:
    """Confusion counts and derived metrics at threshold tau.

    ``extra_false_negatives`` charges true links that blocking removed from
    the candidate set (they are unrecoverable misses).
    """
    labels, probs = _labels_and_probabilities(pairs)
    return Metrics.from_decisions(probs >= tau, labels, extra_false_negatives)


def exact_match_probabilities(
    pairs: Sequence[CandidatePair],
    records_a: RecordSet,
    records_b: RecordSet,
    attributes: Sequence[int],
) -> Candidates:
    """Baseline scorer: probability 1.0 iff every listed attribute is present
    and equal on both sides, else 0.0."""
    cands = Candidates.of(pairs, records_a, records_b)
    columns = list(attributes)
    a_vals = records_a.value_matrix[cands.a][:, columns]
    b_vals = records_b.value_matrix[cands.b][:, columns]
    hit = ((a_vals >= 0) & (a_vals == b_vals)).all(axis=1)
    return replace(cands, probability=hit.astype(float))


def all_negative_probabilities(pairs: Sequence[CandidatePair]) -> Sequence[CandidatePair]:
    """Baseline that never links anything."""
    if isinstance(pairs, Candidates):
        return replace(pairs, probability=np.zeros(len(pairs)))
    return [replace(p, probability=0.0) for p in pairs]


def _hyperparams(cls, raw, section: str):
    """``cls(**raw)`` for a hyperparameter dataclass, with errors naming ``section.key``."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{section}: expected a JSON object")
    annotations = {f.name: f.type for f in fields(cls)}
    for key, value in raw.items():
        if key not in annotations:
            raise ConfigError(f"{section}.{key}: unknown key")
        if not json_fits(value, annotations[key]):
            raise ConfigError(
                f"{section}.{key}: expected {annotations[key]}, got {value!r}"
            )
    try:
        return cls(**raw)
    except ConfigError as exc:  # the hyperparameters name the key alone
        raise ConfigError(f"{section}.{exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; loadable from JSON."""

    source: Mapping  # {"kind": "synthetic", ...} or {"kind": "files", ...}
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    mode: str = "werl"  # "werl" (learned weights) or "merl" (all ones)
    kg_variant: str = "ekg"  # "ekg" or "er" (identity + reversed triples)
    embed: EmbedHyperparams = field(default_factory=EmbedHyperparams)
    rl: RLHyperparams = field(default_factory=RLHyperparams)
    seed: int = 0
    cross_product_cap: int = DEFAULT_CROSS_PRODUCT_CAP

    def __post_init__(self):
        if self.mode not in ("werl", "merl"):
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if self.kg_variant not in ("ekg", "er"):
            raise ConfigError(f"kg_variant: unknown variant {self.kg_variant!r}")
        kind = self.source.get("kind")
        if kind not in ("synthetic", "files"):
            raise ConfigError(f"source.kind: expected 'synthetic' or 'files', got {kind!r}")
        if "relations" in self.source:
            raise ConfigError("source.relations: relational triples are not supported")
        if kind == "synthetic":
            if "synth" not in self.source:
                raise ConfigError("source.synth: required for synthetic sources")
            synth = self.source["synth"]
            if not isinstance(synth, Mapping):
                raise ConfigError(f"source.synth: expected a JSON object, got {synth!r}")
            try:
                SynthConfig.from_dict(synth)
            except ConfigError as exc:
                raise ConfigError(f"source.synth.{exc}") from None
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")

    @property
    def stage_seeds(self) -> dict[str, int]:
        return {
            "master": self.seed,
            "synthetic": self.seed,
            "partition": self.seed + 1,
            "embed": self.seed + 2 if self.embed.seed is None else self.embed.seed,
            "weights": self.seed + 3 if self.rl.seed is None else self.rl.seed,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        """A config from parsed JSON; any malformed value raises ConfigError naming its key."""
        if not isinstance(raw, Mapping):
            raise ConfigError("expected a JSON object")
        if "source" not in raw:
            raise ConfigError("missing key 'source'")
        if not isinstance(raw["source"], Mapping):
            raise ConfigError("source: expected a JSON object")
        for f in fields(cls):  # the scalar fields: mode, kg_variant, seed, cross_product_cap
            if f.type in JSON_TYPES and f.name in raw and not json_fits(raw[f.name], f.type):
                raise ConfigError(f"{f.name}: expected {f.type}, got {raw[f.name]!r}")
        ratios = raw.get("ratios", (0.6, 0.2, 0.2))
        if not (
            isinstance(ratios, (list, tuple))
            and len(ratios) == 3
            and all(json_fits(r, "float") for r in ratios)
        ):
            raise ConfigError("ratios: expected three fractions")
        return cls(
            source=dict(raw["source"]),
            ratios=tuple(ratios),  # type: ignore[arg-type]
            mode=raw.get("mode", "werl").lower(),
            kg_variant=raw.get("kg_variant", "ekg").lower(),
            embed=_hyperparams(EmbedHyperparams, raw.get("embed", {}), "embed"),
            rl=_hyperparams(RLHyperparams, raw.get("rl", {}), "rl"),
            seed=raw.get("seed", 0),
            cross_product_cap=raw.get("cross_product_cap", DEFAULT_CROSS_PRODUCT_CAP),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        # an unset stage seed is written as 0, as reports always showed it
        return {
            "source": dict(self.source),
            "ratios": list(self.ratios),
            "mode": self.mode,
            "kg_variant": self.kg_variant,
            "embed": {**asdict(self.embed), "seed": self.embed.seed or 0},
            "rl": {**asdict(self.rl), "seed": self.rl.seed or 0},
            "seed": self.seed,
            "cross_product_cap": self.cross_product_cap,
        }


class BlockingDiagnostics(NamedTuple):
    candidates: int
    true_pairs: int
    lost_links: int


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    seeds: dict
    graph_counts: dict
    blocking: dict[str, BlockingDiagnostics]
    embed_loss: list[float]
    weights_loss: list[float]
    weight_values: dict[str, float]
    tau: float
    validation_f: float
    metrics: Metrics
    mode: str
    kg_variant: str
    loss_sign: str


@dataclass
class ExperimentResult:
    """Report plus the trained artifacts needed for persistence and reuse."""

    report: ExperimentReport
    bundle: ModelBundle
    splits: tuple[Split, Split, Split]
    test_pairs: Candidates


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _resolve_data(config: ExperimentConfig) -> tuple[Schema, Split]:
    src = config.source
    if src["kind"] == "synthetic":
        synth = SynthConfig.from_dict(src["synth"])
        data = generate_synthetic(synth, config.stage_seeds["synthetic"])
        return data.records_a.schema, data
    try:
        attributes = tuple(src["attributes"])
    except KeyError:
        raise ConfigError("source.attributes: required for file sources") from None
    blocking_name = src.get("blocking_attribute")
    if blocking_name is None:
        blocking = None
    elif blocking_name in attributes:
        blocking = attributes.index(blocking_name)
    else:
        raise ConfigError(
            f"source.blocking_attribute: unknown attribute {blocking_name!r}"
        )
    schema = Schema(attributes, blocking)
    fmt_raw = src.get("format", {})
    fmt = TextFormat(
        delimiter=fmt_raw.get("delimiter", ";"),
        null_markers=tuple(fmt_raw.get("null_markers", ("", "illegible", "NA"))),
    )
    for key in ("a", "b", "truth"):
        if key not in src:
            raise ConfigError(f"source.{key}: required for file sources")
    records_a, dictionary = load_records(src["a"], schema, fmt)
    records_b, _ = load_records(src["b"], schema, fmt, dictionary=dictionary)
    links = load_links(src["truth"], fmt, provenance="loaded")
    return schema, Split(records_a, records_b, links)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full two-step pipeline described in the module docstring."""
    seeds = config.stage_seeds

    with _stage("load"):
        schema, data = _resolve_data(config)
        log.info("loaded %d + %d records, %d links", len(data.records_a), len(data.records_b), len(data.links))

    with _stage("partition"):
        train, validation, test = partition(
            data.records_a, data.records_b, data.links, config.ratios, seeds["partition"]
        )

    with _stage("block"):
        blocking: dict[str, BlockingDiagnostics] = {}
        labeled: dict[str, Candidates] = {}
        for name, split in (("train", train), ("validation", validation), ("test", test)):
            pairs = block_candidates(
                split.records_a,
                split.records_b,
                schema.blocking_attribute,
                config.cross_product_cap,
            )
            marked = label_pairs(pairs, split.links)
            labeled[name] = marked.pairs
            blocking[name] = BlockingDiagnostics(
                len(pairs), len(split.links), marked.lost_links
            )
            log.info(
                "%s: %d candidates, %d true, %d lost to blocking",
                name, len(pairs), len(split.links), marked.lost_links,
            )

    with _stage("graph"):
        degenerate = config.kg_variant == "er"
        graph = ekg_mod.build_ekg(
            train.records_a,
            train.records_b,
            train.links,
            include_identity_triples=degenerate,
            include_reverse_triples=degenerate,
        )

    with _stage("embed"):
        embed_hp = replace(config.embed, seed=seeds["embed"])
        store, embed_loss = train_embeddings(graph, embed_hp)

    with _stage("weights"):
        rl_hp = replace(config.rl, seed=seeds["weights"])
        if config.mode == "merl":
            w = WeightVector.ones(schema.n_attributes)
            weights_loss: list[float] = []
        else:
            train_pairs = labeled["train"]
            t_plus = train_pairs.take(train_pairs.label)
            t_minus = train_pairs.take(~train_pairs.label)
            w, weights_loss = train_weights(
                t_plus, t_minus, train.records_a, train.records_b, store, rl_hp,
                p=embed_hp.norm,
            )

    with _stage("threshold"):
        scored_val = score_pairs(
            labeled["validation"], validation.records_a, validation.records_b,
            store, w, p=embed_hp.norm,
        )
        tau, validation_f = select_threshold(scored_val.probability, scored_val.label)

    with _stage("evaluate"):
        scored_test = score_pairs(
            labeled["test"], test.records_a, test.records_b, store, w, p=embed_hp.norm
        )
        metrics = evaluate(scored_test, tau, extra_false_negatives=blocking["test"].lost_links)

    report = ExperimentReport(
        config=config.to_dict(),
        seeds=seeds,
        graph_counts=graph.counts(),
        blocking=blocking,
        embed_loss=embed_loss,
        weights_loss=weights_loss,
        weight_values=w.as_dict(schema.attributes),
        tau=tau,
        validation_f=validation_f,
        metrics=metrics,
        mode=config.mode,
        kg_variant=config.kg_variant,
        loss_sign=config.rl.loss_sign,
    )
    bundle = ModelBundle(
        schema=schema,
        dictionary=data.records_a.dictionary,
        store=store,
        embed_hp=embed_hp,
        weights=w,
        rl_margin=config.rl.margin,
        loss_sign=config.rl.loss_sign,
        tau=tau,
    )
    return ExperimentResult(report, bundle, (train, validation, test), scored_test)


def _write_loss_csv(path: Path, losses: Sequence[float]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss"])
        for i, loss in enumerate(losses):
            writer.writerow([i, repr(float(loss))])


def write_report(report: ExperimentReport, out_dir: str | Path) -> None:
    """Write the fixed run-directory layout.

    config.json, loss_embed.csv, loss_weights.csv, metrics.csv, report.txt.
    All content is a pure function of the report, so reruns with identical
    seeds produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # config.json holds the stage seeds the run used, so training from it
    # reproduces the run; report.txt shows the config as given
    resolved = {
        **report.config,
        "embed": {**report.config["embed"], "seed": report.seeds["embed"]},
        "rl": {**report.config["rl"], "seed": report.seeds["weights"]},
    }
    (out / "config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_loss_csv(out / "loss_embed.csv", report.embed_loss)
    _write_loss_csv(out / "loss_weights.csv", report.weights_loss)

    m = report.metrics
    with open(out / "metrics.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["accuracy", "precision", "recall", "f_score", "tp", "fp", "tn", "fn", "tau"]
        )
        writer.writerow(
            [
                repr(m.accuracy), repr(m.precision), repr(m.recall), repr(m.f_score),
                m.tp, m.fp, m.tn, m.fn, repr(report.tau),
            ]
        )

    lines = ["record linkage run report", "=" * 26, ""]
    lines.append(f"mode: {report.mode}")
    lines.append(f"kg_variant: {report.kg_variant}")
    lines.append(f"loss_sign: {report.loss_sign}")
    lines.append(
        "seeds: " + " ".join(f"{k}={v}" for k, v in sorted(report.seeds.items()))
    )
    lines.append("")
    lines.append("config:")
    for cfg_line in json.dumps(report.config, indent=2, sort_keys=True).splitlines():
        lines.append("  " + cfg_line)
    lines.append("")
    lines.append(
        "graph: " + " ".join(f"{k}={v}" for k, v in sorted(report.graph_counts.items()))
    )
    lines.append("blocking:")
    for name in ("train", "validation", "test"):
        d = report.blocking[name]
        lines.append(
            f"  {name}: candidates={d.candidates} true_pairs={d.true_pairs} "
            f"lost_links={d.lost_links}"
        )
    final_embed = repr(report.embed_loss[-1]) if report.embed_loss else "n/a"
    lines.append(
        f"embedding training: epochs={len(report.embed_loss)} final_loss={final_embed}"
    )
    final_w = repr(report.weights_loss[-1]) if report.weights_loss else "n/a"
    lines.append(
        f"weight training: epochs={len(report.weights_loss)} final_loss={final_w}"
    )
    lines.append(
        "weights: "
        + " ".join(f"{k}={repr(v)}" for k, v in report.weight_values.items())
    )
    lines.append(f"threshold: tau={repr(report.tau)} validation_f={repr(report.validation_f)}")
    lines.append(f"test metrics: {m.row()}")
    lines.append("")
    lines.append(f"reference results (published benchmarks): {REFERENCE_RESULTS}")
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
