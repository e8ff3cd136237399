"""Command-line front end: generate / train / predict / evaluate / experiment.

Each subcommand wraps the corresponding library calls with no extra logic,
writes its artifacts into an output directory, and records a manifest with
the command, seeds, and content digests of every input file. All CSV output
is UTF-8, comma-delimited, header row, LF line endings. Exit status 2 marks
configuration or data errors.

``python -m evolink`` runs this module, so that a command loads only the
modules it runs: this module imports ``idfiles`` and ``errors``, and each
command imports the rest of what it runs when it runs, calling a layer's
functions by module attribute (``pipeline.run_experiment``). ``evaluate``
adds only ``candidates``; ``predict`` scores without ``pipeline`` and ``synth``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ConfigError, EvolinkError
from .idfiles import (
    DECISIONS,
    PREDICTION_COLUMNS,
    TextFormat,
    load_links,
    read_id_rows,
    whole_file,
    write_csv,
    write_links_csv,
)

if TYPE_CHECKING:
    from .candidates import Candidates
    from .ingest import RecordSet
    from .pipeline import ExperimentConfig, ExperimentResult

# --loss-sign's values: weights.HINGES's modes, written with a hyphen; they
# are spelled out so that the parser does not load the training layers
LOSS_SIGNS = ("corrected", "as-written")
CSV_FORMAT = TextFormat(delimiter=",")
# One predictions row: ids, then g and P at full precision (repr), then the decision.
PREDICTION_ROW = "%d,%d,%r,%r,%s\n"
# Rows the predictions writer builds as one byte matrix: with the renderer's
# temporaries they take about 650 bytes a row, so a whole chunk at once would
# raise predict's peak memory by about 40 MB, and run no faster.
WRITE_ROWS = 1 << 13
# a row's last field, with the comma before it, indexed by its decision
DECISION_TEXT = np.array([f",{decision}\n".encode() for decision in DECISIONS])


def _write_manifest(
    out_dir: Path,
    command: str,
    seeds: dict,
    inputs: list[Path],
    artifacts: list[Path],
    config_path: str | None = None,
) -> None:
    # imported here: only the commands that write a manifest use them
    import hashlib
    import json
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "config": config_path,
        "seeds": seeds,
        "input_digests": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
        "artifacts": [p.name for p in artifacts],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    from . import ingest, synth

    if args.seed < 0:
        raise ConfigError("seed: must be >= 0")
    config = synth.SynthConfig.from_json(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    data = synth.generate_synthetic(config, args.seed)
    ingest.write_records_csv(data.records_a, out / "A.csv")
    ingest.write_records_csv(data.records_b, out / "B.csv")
    write_links_csv(data.links, out / "truth_links.csv")
    write_csv(out / "evolution_rules.csv", ["attribute", "from", "to", "probability"], (
        [rule.attribute, rule.source, rule.target, repr(rule.probability)]
        for rule in config.evolution_rules
    ))

    artifacts = [out / n for n in ("A.csv", "B.csv", "truth_links.csv", "evolution_rules.csv")]
    _write_manifest(out, "generate", {"seed": args.seed}, [Path(args.config)], artifacts, args.config)
    print(f"wrote {len(data.records_a)} + {len(data.records_b)} records, "
          f"{len(data.links)} links to {out}")
    return 0


def _with_flags(args: argparse.Namespace, config: ExperimentConfig, **changes):
    """The config with the command line's overrides, and ``changes``, applied."""
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.merl:
        changes["mode"] = "merl"
    if args.kg:
        changes["kg_variant"] = args.kg
    if args.loss_sign:
        changes["rl"] = replace(config.rl, loss_sign=args.loss_sign.replace("-", "_"))
    return replace(config, **changes) if changes else config


def _run_and_persist(config: ExperimentConfig, out: Path, command: str,
                     inputs: list[Path], config_path: str) -> ExperimentResult:
    import json

    from . import model_io, pipeline

    result = pipeline.run_experiment(config)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_report(result.report, out)
    model_io.save_model(out / "model.bin", result.bundle)
    # wall times and memory vary between reruns, so they stay out of the report
    timings = {name: t._asdict() for name, t in result.timings.items()}
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n", encoding="utf-8")
    artifacts = [
        out / n
        for n in ("config.json", "loss_embed.csv", "loss_weights.csv",
                  "metrics.csv", "report.txt", "model.bin", "timings.json")
    ]
    _write_manifest(out, command, result.report.seeds, inputs, artifacts, config_path)
    print(f"tau={result.report.tau} {result.report.metrics.row()}")
    return result


def cmd_train(args: argparse.Namespace) -> int:
    from . import pipeline

    data_dir = Path(args.data_dir)
    required = [data_dir / n for n in ("A.csv", "B.csv", "truth_links.csv")]
    for path in required:
        if not path.is_file():
            raise EvolinkError(f"missing data file {path}")

    base = pipeline.ExperimentConfig.from_json(args.config)
    # the files source of the data directory, with the config's schema: a
    # files source's own, or the one a synthetic source generates its files with
    given = base.source
    if not isinstance(base.data_source, pipeline.FileSource):
        synth = base.data_source
        given = {"attributes": list(synth.attributes),
                 "blocking_attribute": synth.blocking_attribute}
    source = {
        **given,
        **dict(zip(pipeline.FILE_KEYS, map(str, required))),
        "kind": "files",
        # the base config was read, so a format it gives is an object
        "format": {**given.get("format", {}), "delimiter": ","},
    }
    config = _with_flags(args, base, source=source)
    _run_and_persist(config, Path(args.out), "train", [Path(args.config), *required], args.config)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from . import pipeline

    config = _with_flags(args, pipeline.ExperimentConfig.from_json(args.config))
    inputs = [Path(args.config)]
    if isinstance(config.data_source, pipeline.FileSource):
        inputs += config.data_source.files()
    _run_and_persist(config, Path(args.out), "experiment", inputs, args.config)
    return 0


def write_predictions(
    fh, chunks: Iterable[Candidates], records_a: RecordSet, records_b: RecordSet, tau: float
) -> None:
    """Write each scored chunk to the binary file ``fh``, one
    ``PREDICTION_ROW`` line per pair.

    ``WRITE_ROWS`` rows at a time are built as one byte matrix, a column
    block per field: the ids, each record's formatted once as "<id>," and
    gathered by the pairs' row arrays; g and P as ``floattext.repr_rows``
    renders them; the decision with its comma and newline. The fields' NUL
    padding is dropped from the matrix's bytes in one ``bytes.translate``.
    No field ever needs quoting, so these are the bytes csv.writer would
    write.
    """
    from .candidates import classify
    from .floattext import repr_rows

    a_text, b_text = _id_text(records_a), _id_text(records_b)
    for scored in chunks:
        for start in range(0, len(scored), WRITE_ROWS):
            piece = scored.take(slice(start, start + WRITE_ROWS))
            decision = DECISION_TEXT[classify(piece.probability, tau).view(np.uint8)]
            fields = [_byte_columns(a_text[piece.a]), _byte_columns(b_text[piece.b]),
                      repr_rows(piece.score), np.full((len(piece), 1), ord(","), np.uint8),
                      repr_rows(piece.probability), _byte_columns(decision)]
            fh.write(np.concatenate(fields, axis=1).tobytes().translate(None, b"\0"))


def _id_text(records: RecordSet) -> np.ndarray:
    """Each record's "<id>," as a NUL-padded ``S`` array."""
    return np.array([b"%d," % i for i in records.id_array.tolist()], dtype=np.bytes_)


def _byte_columns(text: np.ndarray) -> np.ndarray:
    """An ``S`` array as a (rows, itemsize) uint8 matrix."""
    return text.view(np.uint8).reshape(len(text), text.dtype.itemsize)


def cmd_predict(args: argparse.Namespace) -> int:
    """Score the records files' blocked pairs, or the ``--pairs`` file's,
    and write them to ``--out`` (``write_predictions``). The threshold and
    the model are checked before any records file is read, and ``--out`` is
    written only once every input has been read, whole or not at all."""
    from . import candidates, ingest, model_io, scoring

    candidates.check_threshold(args.threshold, "--threshold")
    bundle = model_io.load_model(args.model)
    if bundle.weights is None:
        raise EvolinkError(f"{args.model}: model carries no attribute weights")

    records_a, dictionary = ingest.load_records(
        args.records_a, bundle.schema, CSV_FORMAT, dictionary=bundle.dictionary
    )
    records_b, _ = ingest.load_records(
        args.records_b, bundle.schema, CSV_FORMAT, dictionary=dictionary
    )

    if args.pairs:
        pairs = read_id_rows(args.pairs, "pairs", CSV_FORMAT)
        a_rows, in_a = records_a.find(pairs.a_ids)
        b_rows, in_b = records_b.find(pairs.b_ids)
        known = in_a & in_b
        if not known.all():
            i = int(np.argmin(known))
            unknown = (pairs.b_ids if in_a[i] else pairs.a_ids)[i]
            raise EvolinkError(
                f"{args.pairs}: line {pairs.first_line + i}: unknown entity id {unknown}"
            )
        cands = candidates.Candidates(records_a, records_b, a_rows, b_rows)
    else:
        cands = candidates.block_candidates(
            records_a, records_b, bundle.schema.blocking_attribute
        )

    tau = args.threshold if args.threshold is not None else bundle.tau
    if tau is None:
        tau = 0.5

    chunks = scoring.scored_chunks(cands, bundle.store, bundle.weights, bundle.embed_hp.norm)
    # a failed run leaves --out as it was
    with whole_file(args.out, "wb") as fh:
        fh.write(",".join(PREDICTION_COLUMNS).encode() + b"\n")
        write_predictions(fh, chunks, records_a, records_b, tau)
    print(f"scored {len(cands)} pairs -> {Path(args.out)}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .candidates import Metrics, truth_labels

    predictions = read_id_rows(args.predictions, "predictions", CSV_FORMAT)
    truth = load_links(args.truth, CSV_FORMAT, provenance="truth")
    labels, lost, shared = truth_labels(predictions.a_ids, predictions.b_ids, truth)
    # each side's ids are looked up among the truth's own side, so swapped columns match none
    if len(labels) and len(truth) and not shared:
        raise EvolinkError(
            "entity ids in the truth file never appear in the predictions; "
            "the files do not match"
        )
    metrics = Metrics.from_decisions(predictions.matches, labels, lost)
    print(metrics.row())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evolink",
        description="Record linkage with evolution-aware knowledge-graph embeddings.",
    )
    parser.add_argument("--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic linked dataset")
    p.add_argument("--config", required=True, help="synthetic-data JSON config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    for name, helptext in (
        ("train", "train on a generated data directory"),
        ("experiment", "run a full experiment from a config file"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "train":
            p.add_argument("data_dir", help="directory with A.csv, B.csv, truth_links.csv")
        p.add_argument("--config", required=True, help="experiment JSON config")
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--merl", action="store_true", help="skip weight learning (all-ones weights)")
        p.add_argument("--kg", choices=("ekg", "er"), default=None)
        p.add_argument("--loss-sign", dest="loss_sign",
                       choices=LOSS_SIGNS, default=None)
        p.set_defaults(func=cmd_train if name == "train" else cmd_experiment)

    p = sub.add_parser("predict", help="score candidate pairs with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("records_a", help="A-side records CSV")
    p.add_argument("records_b", help="B-side records CSV")
    p.add_argument("--pairs", default=None, help="optional candidate-pairs CSV (a_id,b_id)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predictions CSV against truth links")
    p.add_argument("predictions")
    p.add_argument("truth")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:  # only the pipeline logs, and only at INFO
        import logging

        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except EvolinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
