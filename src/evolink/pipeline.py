"""End-to-end orchestration: blocking, labeling, scoring, metrics, reports.

An experiment is: load or generate data, partition by linked pair, block
candidates per split, build the evolution graph from the training links,
train embeddings, optionally train weights, pick the decision threshold on
validation, and evaluate on test. Everything is driven by one config object
and is deterministic given its seeds.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import ekg as ekg_mod
from . import weights as weights_mod
from .candidates import (
    CandidatePair,
    Candidates,
    Metrics,
    candidate_labels,
    pair_slices,
    truth_labels,
)
from .embed import EmbeddingStore, EmbedHyperparams, train_embeddings
from .errors import BlockingCapError, ConfigError, StageError
from .idfiles import LinkedPairSet, TextFormat, load_links, write_csv
from .ingest import (
    RecordSet,
    Schema,
    Split,
    build,
    check_ratios,
    load_records,
    partition,
    read_fields,
    read_json,
    read_object,
)
from .model_io import ModelBundle
from .synth import SynthConfig, generate_synthetic
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
    # pair i sits at i - run_start in its A record's run, so at
    # i + (start - run_start) in b_grouped: one index buffer, shifted in place
    run_starts = np.cumsum(counts) - counts
    pos = np.arange(len(a))
    pos += np.repeat(starts - run_starts, counts)
    return Candidates(records_a, records_b, a, b_grouped[pos])


class LabeledCandidates(NamedTuple):
    pairs: Sequence[CandidatePair]  # Candidates when labelled from Candidates
    lost_links: int  # true links no candidate pair covers (blocking loss)


def label_pairs(pairs: Sequence[CandidatePair], truth: LinkedPairSet) -> LabeledCandidates:
    """Mark candidates against the truth set; count links blocking lost.

    Candidates come back as Candidates, labelled on their record rows; any
    other sequence, which carries no record rows, is labelled on its entity
    ids and comes back as a list of labelled CandidatePairs.
    """
    if isinstance(pairs, Candidates):
        labels, lost = candidate_labels(pairs, truth)
        return LabeledCandidates(replace(pairs, label=labels), lost)
    a_ids = np.fromiter((p.a_entity for p in pairs), dtype=np.int64, count=len(pairs))
    b_ids = np.fromiter((p.b_entity for p in pairs), dtype=np.int64, count=len(pairs))
    labels, lost = truth_labels(a_ids, b_ids, truth)
    labeled = [replace(p, label=x) for p, x in zip(pairs, labels.tolist())]
    return LabeledCandidates(labeled, lost)


def score_pairs(
    pairs: Sequence[CandidatePair],
    records_a: RecordSet,
    records_b: RecordSet,
    store: EmbeddingStore,
    w: WeightVector,
    p: int = 2,
) -> Candidates:
    """Attach match scores and probabilities: those of ``scored_chunks``,
    collected into two columns, so the working memory beyond them does not
    grow with the number of pairs."""
    cands = Candidates.of(pairs, records_a, records_b)
    score, probability = np.empty(len(cands)), np.empty(len(cands))
    for part, scored in zip(pair_slices(len(cands)), scored_chunks(cands, store, w, p)):
        score[part], probability[part] = scored.score, scored.probability
    return replace(cands, score=score, probability=probability)


def scored_chunks(
    cands: Candidates, store: EmbeddingStore, w: WeightVector, p: int = 2
) -> Iterator[Candidates]:
    """The candidates with scores and probabilities, ``PAIR_CHUNK`` pairs at a time,
    in order; a pair with no shared attribute gets score NaN and probability 0.0.
    The chunks share one ``weights.ValuePairTerms``: a distance is computed once per call."""
    terms = weights_mod.ValuePairTerms(cands, store, p)
    for part in pair_slices(len(cands)):
        yield _scored_chunk(cands.take(part), terms, w)


def _scored_chunk(
    chunk: Candidates, terms: weights_mod.ValuePairTerms, w: WeightVector
) -> Candidates:
    """One chunk with its scores. A function of its own, so that the chunk's
    features are freed before ``scored_chunks`` yields it, not kept while
    the caller writes it."""
    features, defined = weights_mod.feature_matrix(
        chunk, chunk.records_a, chunk.records_b, terms.store, terms.p, terms=terms
    )
    # one dot product per row rather than a matrix-vector product: each score
    # then equals g_score's bit for bit, whatever the number of rows
    scores = np.matmul(features[:, None, :], w.weights[:, None])[:, 0, 0]
    scores[~defined] = np.nan
    probs = sigmoid(scores)
    probs[~defined] = 0.0
    return replace(chunk, score=scores, probability=probs)


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


# the experiment config's keys with their JSON types (None: a section with its own reader)
CONFIG_TYPES = {
    "source": None, "ratios": "list[float]", "mode": "str", "kg_variant": "str",
    "embed": None, "rl": None, "seed": "int", "cross_product_cap": "int",
}
# per source kind: its keys with their JSON types, and the keys it requires
SOURCE_TYPES = {
    "synthetic": ({"kind": "str", "synth": None}, ("synth",)),
    "files": ({
        "kind": "str", "attributes": "list[str]", "blocking_attribute": "str | None",
        "a": "str", "b": "str", "truth": "str", "format": None,
    }, ("attributes",)),
}
# the TextFormat fields with their JSON types; the encoding and the id
# column's name are fixed (idfiles.ENCODING, ingest.ID_COLUMN)
FORMAT_TYPES = {"delimiter": "str", "null_markers": "list[str]"}
FILE_KEYS = ("a", "b", "truth")


class FileSource(NamedTuple):
    """A files source as its config gives it; a ``train`` config leaves out the paths."""

    schema: Schema
    fmt: TextFormat
    paths: Mapping[str, str]  # those of FILE_KEYS the config gives

    def files(self) -> list[Path]:
        """The a, b and truth files, each of which loading requires."""
        for key in FILE_KEYS:
            if key not in self.paths:
                raise ConfigError(f"source.{key}: required")
        return [Path(self.paths[key]) for key in FILE_KEYS]


def _read_source(raw) -> SynthConfig | FileSource:
    """The data a config's ``source`` object names, read with every check."""
    kind = raw.get("kind") if isinstance(raw, Mapping) else None
    if isinstance(raw, Mapping) and kind not in ("synthetic", "files"):
        raise ConfigError(f"source.kind: expected 'synthetic' or 'files', got {kind!r}")
    src = read_object(raw, "source", *SOURCE_TYPES.get(kind, ({},)))
    if kind == "synthetic":
        return SynthConfig.from_dict(src["synth"], "source.synth")
    schema = build(Schema.named, "source", attributes=src["attributes"],
                   blocking=src.get("blocking_attribute"))
    fmt = read_object(src.get("format", {}), "source.format", FORMAT_TYPES)
    if "null_markers" in fmt:
        fmt["null_markers"] = tuple(fmt["null_markers"])
    return FileSource(
        schema, build(TextFormat, "source.format", **fmt),
        {key: src[key] for key in FILE_KEYS if key in src},
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run needs; loadable from JSON. ``data_source``
    is what ``source`` names, read when the config is built."""

    source: Mapping  # {"kind": "synthetic", ...} or {"kind": "files", ...}
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    mode: str = "werl"  # "werl" (learned weights) or "merl" (all ones)
    kg_variant: str = "ekg"  # "ekg" or "er" (identity + reversed triples)
    embed: EmbedHyperparams = field(default_factory=EmbedHyperparams)
    rl: RLHyperparams = field(default_factory=RLHyperparams)
    seed: int = 0
    cross_product_cap: int = DEFAULT_CROSS_PRODUCT_CAP
    data_source: SynthConfig | FileSource = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("werl", "merl"):
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if self.kg_variant not in ("ekg", "er"):
            raise ConfigError(f"kg_variant: unknown variant {self.kg_variant!r}")
        check_ratios(self.ratios)
        # partition() accepts an empty split, but an experiment's every stage
        # needs its own: training links, the threshold's and the test's
        if not all(self.ratios):
            raise ConfigError(f"ratios: every fraction must be positive, got {list(self.ratios)!r}")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        object.__setattr__(self, "data_source", _read_source(self.source))

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
    def from_dict(cls, raw) -> "ExperimentConfig":
        """A config from parsed JSON; any malformed value raises ConfigError naming its key."""
        config = read_object(raw, "", CONFIG_TYPES, required=("source",))
        config["embed"] = read_fields(EmbedHyperparams, config.get("embed", {}), "embed")
        config["rl"] = read_fields(RLHyperparams, config.get("rl", {}), "rl")
        for key, convert in (("mode", str.lower), ("kg_variant", str.lower), ("ratios", tuple)):
            if key in config:
                config[key] = convert(config[key])
        return cls(**config)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))

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


class StageTiming(NamedTuple):
    wall_s: float
    # the process's high-water resident set size once the stage ends; None
    # where the platform does not report it
    peak_rss_mb: float | None


@dataclass
class ExperimentResult:
    """Report plus the trained artifacts needed for persistence and reuse.

    ``timings`` holds each stage's wall time and the peak RSS after it, in
    stage order. They vary between reruns, so the report leaves them out.
    """

    report: ExperimentReport
    bundle: ModelBundle
    splits: tuple[Split, Split, Split]
    test_pairs: Candidates
    timings: dict[str, StageTiming]


def _peak_rss_mb() -> float | None:
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes or KiB


@contextmanager
def _stage(name: str, timings: dict[str, StageTiming]):
    """Name the stage in any error it raises; record its timing if it succeeds."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    timings[name] = StageTiming(time.perf_counter() - start, _peak_rss_mb())


def _resolve_data(config: ExperimentConfig) -> tuple[Schema, Split]:
    source = config.data_source
    if isinstance(source, SynthConfig):
        data = generate_synthetic(source, config.stage_seeds["synthetic"])
        return data.records_a.schema, data
    a, b, truth = source.files()
    records_a, dictionary = load_records(a, source.schema, source.fmt)
    records_b, _ = load_records(b, source.schema, source.fmt, dictionary=dictionary)
    links = load_links(truth, source.fmt, provenance="loaded")
    return source.schema, Split(records_a, records_b, links)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full two-step pipeline described in the module docstring."""
    seeds = config.stage_seeds
    timings: dict[str, StageTiming] = {}

    with _stage("load", timings):
        schema, data = _resolve_data(config)
        log.info("loaded %d + %d records, %d links", len(data.records_a), len(data.records_b), len(data.links))

    with _stage("partition", timings):
        train, validation, test = partition(
            data.records_a, data.records_b, data.links, config.ratios, seeds["partition"]
        )

    with _stage("block", timings):
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

    with _stage("graph", timings):
        graph = ekg_mod.build_ekg(
            train.records_a, train.records_b, train.links, er=config.kg_variant == "er"
        )

    with _stage("embed", timings):
        embed_hp = replace(config.embed, seed=seeds["embed"])
        store, embed_loss = train_embeddings(graph, embed_hp)

    with _stage("weights", timings):
        rl_hp = replace(config.rl, seed=seeds["weights"])
        # the train split's pairs, the largest, are read for the last time here
        train_pairs = labeled.pop("train")
        if config.mode == "merl":
            w = WeightVector.ones(schema.n_attributes)
            weights_loss: list[float] = []
        else:
            w, weights_loss = train_weights(
                train_pairs.take(train_pairs.label), train_pairs.take(~train_pairs.label),
                train.records_a, train.records_b, store, rl_hp, p=embed_hp.norm,
            )
        del train_pairs

    with _stage("threshold", timings):
        scored_val = score_pairs(
            labeled["validation"], validation.records_a, validation.records_b,
            store, w, p=embed_hp.norm,
        )
        tau, validation_f = select_threshold(scored_val.probability, scored_val.label)

    with _stage("evaluate", timings):
        if not len(test.links):
            raise ConfigError("ratios: the test split holds no link; its metrics are undefined")
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
    return ExperimentResult(report, bundle, (train, validation, test), scored_test, timings)


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
    for name, losses in (("loss_embed.csv", report.embed_loss),
                         ("loss_weights.csv", report.weights_loss)):
        write_csv(out / name, ["epoch", "loss"],
                  ([i, repr(float(loss))] for i, loss in enumerate(losses)))

    m = report.metrics
    write_csv(
        out / "metrics.csv",
        ["accuracy", "precision", "recall", "f_score", "tp", "fp", "tn", "fn", "tau"],
        [[
            repr(m.accuracy), repr(m.precision), repr(m.recall), repr(m.f_score),
            m.tp, m.fp, m.tn, m.fn, repr(report.tau),
        ]],
    )

    lines = ["record linkage run report", "=" * 26, ""]
    lines.append(f"mode: {report.config['mode']}")
    lines.append(f"kg_variant: {report.config['kg_variant']}")
    lines.append(f"loss_sign: {report.config['rl']['loss_sign']}")
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
