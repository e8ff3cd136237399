"""The experiment: its config, its stages and its report.

An experiment is: load or generate data, partition by linked pair, block
candidates per split, build the evolution graph from the training links,
train embeddings, optionally train weights, pick the decision threshold on
validation, and evaluate on test. Everything is driven by one config object
and is deterministic given its seeds. Blocking, labels and metrics live in
``candidates``, g and P in ``scoring``; their public functions are
importable from here too.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping, NamedTuple

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import ekg as ekg_mod
from .candidates import (  # noqa: F401  (CandidatePair is re-exported)
    DEFAULT_CROSS_PRODUCT_CAP,
    CandidatePair,
    Candidates,
    Metrics,
    block_candidates,
    evaluate,
    label_pairs,
)
from .embed import EmbeddingStore, EmbedHyperparams, train_embeddings
from .errors import ConfigError, StageError
from .idfiles import TextFormat, load_links, whole_file, write_csv
from .ingest import (
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
from .scoring import (  # noqa: F401  (the two baselines are re-exported)
    all_negative_probabilities,
    exact_match_probabilities,
    score_pairs,
    scored_chunks,
)
from .synth import SynthConfig, generate_synthetic
from .weights import (
    RLHyperparams,
    WeightVector,
    select_threshold,
    train_weights,
)

log = logging.getLogger(__name__)

# Published benchmark F-scores quoted in every report footer for context.
REFERENCE_RESULTS = (
    "BALL WERL(EKG) F=0.93 | Febrl MERL(EKG) F=0.98 | Cora WERL(EKG) F=0.46"
)

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
        if self.cross_product_cap < 0:
            raise ConfigError("cross_product_cap: must be >= 0")
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
    # page faults served without I/O during the stage, as freshly mapped
    # memory is first touched; None where the platform does not report them
    minor_faults: int | None


@dataclass
class ExperimentResult:
    """Report plus the trained artifacts needed for persistence and reuse.

    ``timings`` holds each stage's wall time, the peak RSS after it and its
    minor page faults, in stage order. They vary between reruns, so the
    report leaves them out.
    """

    report: ExperimentReport
    bundle: ModelBundle
    splits: tuple[Split, Split, Split]
    test_pairs: Candidates
    timings: dict[str, StageTiming]


def _usage() -> tuple[float, int] | tuple[None, None]:
    """The process's peak RSS in MB and its minor page faults so far."""
    if resource is None:
        return None, None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak = usage.ru_maxrss
    peak_mb = peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes or KiB
    return peak_mb, usage.ru_minflt


@contextmanager
def _stage(name: str, timings: dict[str, StageTiming]):
    """Name the stage in any error it raises; record its timing if it succeeds."""
    _, faults_before = _usage()
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    wall_s = time.perf_counter() - start
    peak_mb, faults = _usage()
    timings[name] = StageTiming(
        wall_s, peak_mb, None if faults is None else faults - faults_before
    )


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


def _pick_threshold(
    labeled: Candidates, store: EmbeddingStore, w: WeightVector, p: int
) -> tuple[float, float]:
    """``select_threshold`` of the labelled candidates, fed their
    probabilities a ``scored_chunks`` chunk at a time: no column of scores
    or probabilities is made."""
    chunks = scored_chunks(labeled, store, w, p)
    return select_threshold((chunk.probability, chunk.label) for chunk in chunks)


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
                train_pairs.take(train_pairs.label), train_pairs,
                train.records_a, train.records_b, store, rl_hp, p=embed_hp.norm,
            )
        del train_pairs

    with _stage("threshold", timings):
        tau, validation_f = _pick_threshold(labeled.pop("validation"), store, w, embed_hp.norm)

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
    with whole_file(out / "config.json", encoding="utf-8") as fh:
        fh.write(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
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
    with whole_file(out / "report.txt", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
