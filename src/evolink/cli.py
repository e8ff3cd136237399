"""Command-line front end: generate / train / predict / evaluate / experiment.

Each subcommand wraps the corresponding library calls with no extra logic,
writes its artifacts into an output directory, and records a manifest with
the command, seeds, and content digests of every input file. All CSV output
is UTF-8, comma-delimited, header row, LF line endings. Exit status 2 marks
configuration or data errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import pipeline
from .candidates import Candidates, Metrics, truth_labels
from .errors import EvolinkError
from .ingest import (
    SynthConfig,
    TextFormat,
    generate_synthetic,
    load_links,
    load_records,
    write_links_csv,
    write_records_csv,
)
from .model_io import ModelBundle, load_model, save_model
from .weights import classify

CSV_FORMAT = TextFormat(delimiter=",")
# Pairs scored and written at a time by `predict`; bounds its working memory.
PREDICT_CHUNK = 1 << 16
# One predictions row: ids, then g and P at full precision (repr), then the decision.
PREDICTION_ROW = "%d,%d,%r,%r,%s\n"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    seeds: dict,
    inputs: list[Path],
    artifacts: list[Path],
    config_path: str | None = None,
) -> None:
    manifest = {
        "command": command,
        "config": config_path,
        "seeds": seeds,
        "input_digests": {str(p): _digest(p) for p in inputs},
        "artifacts": [p.name for p in artifacts],
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    config = SynthConfig.from_json(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    data = generate_synthetic(config, args.seed)
    write_records_csv(data.records_a, out / "A.csv")
    write_records_csv(data.records_b, out / "B.csv")
    write_links_csv(data.links, out / "truth_links.csv")
    with open(out / "evolution_rules.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["attribute", "from", "to", "probability"])
        for rule in config.evolution_rules:
            writer.writerow([rule.attribute, rule.source, rule.target, repr(rule.probability)])

    artifacts = [out / n for n in ("A.csv", "B.csv", "truth_links.csv", "evolution_rules.csv")]
    _write_manifest(out, "generate", {"seed": args.seed}, [Path(args.config)], artifacts, args.config)
    print(f"wrote {len(data.records_a)} + {len(data.records_b)} records, "
          f"{len(data.links)} links to {out}")
    return 0


def _experiment_config(args: argparse.Namespace, source: dict | None = None) -> pipeline.ExperimentConfig:
    config = pipeline.ExperimentConfig.from_json(args.config)
    if source is not None:
        config = replace(config, source=source)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "merl", False):
        config = replace(config, mode="merl")
    if getattr(args, "kg", None):
        config = replace(config, kg_variant=args.kg)
    if getattr(args, "loss_sign", None):
        loss_sign = args.loss_sign.replace("-", "_")
        config = replace(config, rl=replace(config.rl, loss_sign=loss_sign))
    return config


def _run_and_persist(config: pipeline.ExperimentConfig, out: Path, command: str,
                     inputs: list[Path], config_path: str) -> pipeline.ExperimentResult:
    result = pipeline.run_experiment(config)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_report(result.report, out)
    save_model(out / "model.bin", result.bundle)
    artifacts = [
        out / n
        for n in ("config.json", "loss_embed.csv", "loss_weights.csv",
                  "metrics.csv", "report.txt", "model.bin")
    ]
    _write_manifest(out, command, result.report.seeds, inputs, artifacts, config_path)
    print(f"tau={result.report.tau} {result.report.metrics.row()}")
    return result


def cmd_train(args: argparse.Namespace) -> int:
    data_dir = Path(args.data_dir)
    required = [data_dir / n for n in ("A.csv", "B.csv", "truth_links.csv")]
    for path in required:
        if not path.is_file():
            raise EvolinkError(f"missing data file {path}")

    base = pipeline.ExperimentConfig.from_json(args.config)
    source = dict(base.source)
    source.update(
        kind="files",
        a=str(data_dir / "A.csv"),
        b=str(data_dir / "B.csv"),
        truth=str(data_dir / "truth_links.csv"),
    )
    source.setdefault("format", {})
    source["format"] = {**source["format"], "delimiter": ","}
    config = _experiment_config(args, source)
    _run_and_persist(config, Path(args.out), "train", [Path(args.config), *required], args.config)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    inputs = [Path(args.config)]
    src = config.source
    if src["kind"] == "files":
        inputs += [Path(src[k]) for k in ("a", "b", "truth")]
    _run_and_persist(config, Path(args.out), "experiment", inputs, args.config)
    return 0


def _load_pairs_csv(path: Path) -> tuple[list[int], list[int]]:
    a_ids, b_ids = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if len(row) < 2:
                raise EvolinkError(f"{path}: line {lineno}: expected two id columns")
            try:
                a_id, b_id = int(row[0]), int(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise EvolinkError(f"{path}: line {lineno}: bad entity id") from None
            a_ids.append(a_id)
            b_ids.append(b_id)
    return a_ids, b_ids


def cmd_predict(args: argparse.Namespace) -> int:
    bundle: ModelBundle = load_model(args.model)
    n_known = bundle.store.value_vectors.shape[0]

    records_a, dictionary = load_records(
        args.records_a, bundle.schema, CSV_FORMAT, dictionary=bundle.dictionary
    )
    records_b, _ = load_records(
        args.records_b, bundle.schema, CSV_FORMAT, dictionary=dictionary
    )

    if args.pairs:
        a_ids, b_ids = _load_pairs_csv(Path(args.pairs))
        candidates = Candidates(
            records_a, records_b, records_a.rows(a_ids), records_b.rows(b_ids)
        )
    else:
        candidates = pipeline.block_candidates(
            records_a, records_b, bundle.schema.blocking_attribute
        )

    weights = bundle.weights
    if weights is None:
        raise EvolinkError(f"{args.model}: model carries no attribute weights")
    tau = args.threshold if args.threshold is not None else bundle.tau
    if tau is None:
        tau = 0.5

    out_path = Path(args.out)
    with open(out_path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("a_id,b_id,g,P,decision\n")
        for start in range(0, len(candidates), PREDICT_CHUNK):
            scored = pipeline.score_pairs(
                candidates.take(slice(start, start + PREDICT_CHUNK)),
                records_a, records_b, bundle.store, weights,
                bundle.embed_hp.norm, n_known,
            )
            decisions = np.where(classify(scored.probability, tau), "match", "non-match")
            # the bytes csv.writer would write: no field ever needs quoting
            fh.write("".join(map(PREDICTION_ROW.__mod__, zip(
                scored.a_ids.tolist(),
                scored.b_ids.tolist(),
                scored.score.tolist(),
                scored.probability.tolist(),
                decisions.tolist(),
            ))))
    print(f"scored {len(candidates)} pairs -> {out_path}")
    return 0


def _repeated_pair(a_ids: np.ndarray, b_ids: np.ndarray) -> tuple[int, int] | None:
    """(row, earlier row) of the first row whose (a, b) pair an earlier row has."""
    order = np.lexsort((b_ids, a_ids))  # stable: equal pairs keep row order
    a_sorted, b_sorted = a_ids[order], b_ids[order]
    same = np.flatnonzero((a_sorted[1:] == a_sorted[:-1]) & (b_sorted[1:] == b_sorted[:-1]))
    if not len(same):
        return None
    first = np.argmin(order[same + 1])
    return int(order[same[first] + 1]), int(order[same[first]])


def cmd_evaluate(args: argparse.Namespace) -> int:
    a_ids: list[int] = []
    b_ids: list[int] = []
    decisions: list[bool] = []
    header_lines = 0
    with open(args.predictions, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and row and row[0] == "a_id":
                header_lines = 1
                continue
            if len(row) < 5:
                raise EvolinkError(f"{args.predictions}: line {lineno}: expected 5 columns")
            try:
                a_ids.append(int(row[0]))
                b_ids.append(int(row[1]))
            except ValueError:
                raise EvolinkError(
                    f"{args.predictions}: line {lineno}: bad entity id"
                ) from None
            if row[4] not in ("match", "non-match"):
                raise EvolinkError(
                    f"{args.predictions}: line {lineno}: unknown decision {row[4]!r}"
                )
            decisions.append(row[4] == "match")

    truth = load_links(args.truth, CSV_FORMAT, provenance="truth")
    try:
        a_ids, b_ids = np.array(a_ids, dtype=np.int64), np.array(b_ids, dtype=np.int64)
        truth_ids = np.array(truth.pairs, dtype=np.int64)
    except OverflowError:
        raise EvolinkError("entity ids must fit in 64 bits") from None

    repeated = _repeated_pair(a_ids, b_ids)
    if repeated is not None:
        row, earlier = repeated
        raise EvolinkError(
            f"{args.predictions}: line {row + 1 + header_lines}: pair "
            f"{a_ids[row]},{b_ids[row]} repeats line {earlier + 1 + header_lines}"
        )
    if len(a_ids) and len(truth) and not (
        np.isin(a_ids, truth_ids).any() or np.isin(b_ids, truth_ids).any()
    ):
        raise EvolinkError(
            "entity ids in the truth file never appear in the predictions; "
            "the files do not match"
        )

    labels, lost = truth_labels(a_ids, b_ids, truth)
    metrics = Metrics.from_decisions(np.array(decisions, dtype=bool), labels, lost)
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
        p.add_argument("--loss-sign", dest="loss_sign", choices=("corrected", "as-written"), default=None)
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
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
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
