"""End-to-end benchmark of the evolink command line, with an optional traced run.

    python3 perfbench/run.py --workload train-febrl --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the package is used from ``src/``
with no install. Workloads, generator config and hyperparameters are in
``perfbench/workloads.json``. Each op is one child process of the real CLI
(``python -m evolink generate|train|predict|evaluate``), run one at a time,
and its outputs are checked:

* set-up generates the workload's CSV files (and, for a predict workload,
  trains its model) ``setup_reps`` times; ``setup_s`` is the median;
* then whole cycles run until ``--seconds`` have passed, at least two: a train
  workload trains on the CSV files, then predicts and evaluates a small fresh
  file pair with that model ``predict_reps`` times; a predict workload predicts
  a full-size fresh pair with the set-up model and evaluates it
  ``evaluate_reps`` times;
* an op fails on a non-zero exit status, an F-score under its floor, outputs
  that differ from the first op of the same kind, predictions that are not
  exactly the blocked candidate set, or confusion counts from ``evaluate``
  that differ from the benchmark's own count.

With ``--trace 1`` one more cycle runs under ``perfbench/tracer.py``, which
times every layer's public functions inside the CLI process; for a predict
workload it retrains the set-up model too. Its outputs must equal the
untraced ones. The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``). Lines before it
list every metric by name and unit. A results file stamped with the
environment and the SHA-256 of every output goes to ``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracer import LAYERS, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TRACER = BENCH_DIR / "tracer.py"
WORKLOADS = BENCH_DIR / "workloads.json"
OP_TIMEOUT_S = 150.0
MIN_CYCLES = 2  # so every run compares at least one op against the first

# error_rate is 0 on a correct run, so it is printed and stored but left out of
# the JSON metrics: failures reach the caller as `attempted` and `failed`.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "test_f": "fraction",
    "predict_pairs_per_s": "pairs/s",
    "predict_f": "fraction",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}
REPORTED_END_TO_END = [name for name in END_TO_END if name != "error_rate"]

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
PER_LAYER = {
    "embed.train_embeddings_s": "s",
    "embed.triples_per_s": "triples/s",
    "pipeline.block_candidates_s": "s",
    "pipeline.candidates": "count",
    "pipeline.label_pairs_s": "s",
    "pipeline.score_pairs_s": "s",
    "weights.feature_matrix_s": "s",
    "weights.feature_rows": "count",
    "weights.train_weights_s": "s",
    "pipeline.true_per_candidate": "ratio",
    "pipeline.lost_links": "count",
    "cli.cmd_predict_s": "s",
    "cli.cmd_evaluate_s": "s",
    "ingest.load_records_s": "s",
    "ingest.records": "count",
    "ingest.partition_s": "s",
    "ekg.build_ekg_s": "s",
    "ekg.evolution_triples": "count",
    "weights.select_threshold_s": "s",
    "pipeline.evaluate_s": "s",
    "pipeline.write_report_s": "s",
    "model_io.save_model_s": "s",
    "model_io.load_model_s": "s",
    "trace.overhead_s": "s",
}
# Layers that ROADMAP item 2 targets; their share of a traced train op is printed.
PER_PAIR_SPANS = (
    "pipeline.block_candidates", "pipeline.label_pairs", "weights.feature_matrix",
    "weights.train_weights", "pipeline.score_pairs",
)
# Same rules as evolink.ingest.standardize and its default null markers.
NULL_CELLS = frozenset({"", "illegible", "na"})


def standardize(text: str) -> str:
    return " ".join(text.split()).casefold()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_child(cmd: list[str], cwd: Path, log_path: Path) -> tuple[float, float, int]:
    """Run one child to completion; return (wall s, peak RSS MB, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Op:
    kind: str
    cycle: str
    wall_s: float
    rss_mb: float
    exit_code: int
    log: str
    traced: bool = False
    values: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    error: str | None = None


class Run:
    """One benchmark run of one workload: set-up, measured cycles, traced cycle."""

    def __init__(self, config: dict, workload: str, seed: int, work: Path):
        self.config = config
        self.spec = config["workloads"][workload]
        self.seed = seed
        self.work = work
        self.ops: list[Op] = []
        self.setup_s: list[float] = []
        self.cycles = 0
        self.reference: dict[str, dict] = {}
        self.traces: list[dict] = []
        self.floors = config["floors"]
        work.mkdir(parents=True)
        self._write_configs()

    # -- inputs -----------------------------------------------------------
    def _write_configs(self) -> None:
        spec, gen = self.spec, self.config["generator"]
        blocking = spec["blocking_attribute"]
        for name, size in (("data", spec["size"]), ("fresh", spec["predict_size"])):
            synth = dict(gen, size_a=size, size_b=size, blocking_attribute=blocking)
            (self.work / f"synth-{name}.json").write_text(json.dumps(synth), encoding="utf-8")
        experiment = json.loads(json.dumps(self.config["experiment"]))
        experiment["embed"]["negatives"] = spec["negatives"]
        experiment["source"] = {
            "kind": "files", "attributes": gen["attributes"], "blocking_attribute": blocking,
        }
        (self.work / "experiment.json").write_text(json.dumps(experiment), encoding="utf-8")

    # -- ops --------------------------------------------------------------
    def cli(self, kind: str, args: list[str], cycle: str, home: Path, traced: bool = False) -> Op:
        log = self.work / f"{kind}-{cycle}.log"
        if traced:
            spans = self.work / f"{kind}-{cycle}.spans.json"
            cmd = [sys.executable, str(TRACER), "--spans", str(spans),
                   "--op-id", f"{kind}-{cycle}", "--", *args]
        else:
            cmd = [sys.executable, "-m", "evolink", *args]
        wall, rss, code = run_child(cmd, home, log)
        op = Op(kind, cycle, wall, rss, code, str(log), traced)
        self.ops.append(op)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            op.error = f"exit status {code}: {' '.join(tail)}"
        elif traced:
            self.traces.append(json.loads(spans.read_text(encoding="utf-8")))
        return op

    def same_as_first(self, op: Op, key: str | None = None) -> None:
        """Fail ``op`` if its outputs differ from the first op of its kind (or ``key``)."""
        first = self.reference.setdefault(key or op.kind, op.digests)
        changed = sorted(k for k in first if first[k] != op.digests.get(k))
        if changed and op.error is None:
            op.error = f"outputs differ from the first {op.kind} op: {', '.join(changed)}"

    def hash_outputs(self, op: Op, files: dict[str, Path]) -> bool:
        """Record the SHA-256 of each output; fail ``op`` if one is missing."""
        try:
            op.digests = {name: sha256(path) for name, path in files.items()}
        except OSError as exc:
            op.error = f"missing output: {exc}"
            return False
        return True

    def generate(self, which: str, seed: int, home: Path, cycle: str) -> Op:
        out = home / which
        op = self.cli("generate", ["generate", "--config", str(self.work / f"synth-{which}.json"),
                                   "--seed", str(seed), "--out", which], cycle, home)
        files = {f"{which}/{n}": out / n for n in ("A.csv", "B.csv", "truth_links.csv")}
        if op.exit_code == 0 and self.hash_outputs(op, files):
            self.same_as_first(op, key=f"generate-{which}")
        return op

    def train(self, home: Path, out: Path, cycle: str, traced: bool = False) -> Op:
        op = self.cli("train", ["train", "data", "--config", str(self.work / "experiment.json"),
                                "--out", str(out)], cycle, home, traced)
        files = {n: out / n for n in ("model.bin", "metrics.csv", "report.txt")}
        if op.exit_code != 0 or not self.hash_outputs(op, files):
            return op
        try:
            with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
                op.values["test_f"] = float(next(csv.DictReader(fh))["f_score"])
            candidates = true_pairs = lost = 0
            for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
                fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
                if line.startswith("  ") and {"candidates", "true_pairs", "lost_links"} <= fields.keys():
                    candidates += int(fields["candidates"])
                    true_pairs += int(fields["true_pairs"])
                    lost += int(fields["lost_links"])
        except (StopIteration, KeyError, TypeError, ValueError) as exc:
            op.error = f"unreadable metrics.csv or report.txt: {exc!r}"
            return op
        op.values["true_per_candidate"] = (true_pairs - lost) / candidates if candidates else 0.0
        op.values["lost_links"] = lost
        if op.values["test_f"] < self.floors["test_f"]:
            op.error = f"test F {op.values['test_f']} under the floor {self.floors['test_f']}"
        self.same_as_first(op)
        return op

    def predict(self, home: Path, model: Path, out: Path, cycle: str, traced: bool = False) -> Op:
        op = self.cli("predict", ["predict", "--model", str(model), "fresh/A.csv", "fresh/B.csv",
                                  "--out", str(out)], cycle, home, traced)
        if op.exit_code != 0 or not self.hash_outputs(op, {"predictions.csv": out}):
            return op
        problem = self._check_predictions(home / "fresh", out, op.values)
        if problem:
            op.error = problem
        self.same_as_first(op)
        return op

    def _check_predictions(self, fresh: Path, predictions: Path, values: dict) -> str | None:
        """Check that the rows are exactly the blocked candidates; count the confusion."""
        blocking = self.spec["blocking_attribute"]
        keys = []
        for side in ("A.csv", "B.csv"):
            with open(fresh / side, newline="", encoding="utf-8") as fh:
                key = {}
                for row in csv.DictReader(fh):
                    cell = standardize(row[blocking])
                    if cell not in NULL_CELLS:
                        key[int(row["entity_id"])] = cell
                keys.append(key)
        key_a, key_b = keys
        per_value_b: dict[str, int] = {}
        for cell in key_b.values():
            per_value_b[cell] = per_value_b.get(cell, 0) + 1
        expected = sum(per_value_b.get(cell, 0) for cell in key_a.values())

        with open(fresh / "truth_links.csv", newline="", encoding="utf-8") as fh:
            truth = {(int(a), int(b)) for a, b in list(csv.reader(fh))[1:]}
        seen = set()
        tp = fp = tn = fn = 0
        with open(predictions, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["a_id", "b_id", "g", "P", "decision"]:
                return "predictions: unexpected header"
            for lineno, row in enumerate(reader, start=2):
                try:
                    a, b, _, prob, decision = row
                    pair, prob = (int(a), int(b)), float(prob)
                except ValueError:
                    return f"predictions line {lineno}: malformed row {row}"
                block = key_a.get(pair[0])
                if pair in seen or block is None or block != key_b.get(pair[1]):
                    return f"predictions line {lineno}: {pair} is a repeated or non-blocked pair"
                if not 0.0 <= prob <= 1.0 or decision not in ("match", "non-match"):
                    return f"predictions line {lineno}: bad P or decision"
                seen.add(pair)
                match, true = decision == "match", pair in truth
                tp += match and true
                fp += match and not true
                fn += true and not match
                tn += not match and not true
        rows = len(seen)
        covered = len(truth & seen)
        values.update(rows=rows, expected_rows=expected,
                      confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn + len(truth) - covered},
                      true_per_candidate=covered / rows if rows else 0.0,
                      lost_links=len(truth) - covered)
        if rows != expected:
            return f"predictions: {rows} rows, but blocking gives {expected} candidates"
        return None

    def evaluate(self, home: Path, predictions: Path, predicted: Op, cycle: str,
                 traced: bool = False) -> Op:
        op = self.cli("evaluate", ["evaluate", str(predictions), "fresh/truth_links.csv"],
                      cycle, home, traced)
        if op.exit_code != 0:
            return op
        printed = dict(tok.split("=", 1) for tok in Path(op.log).read_text(encoding="utf-8").split()
                       if "=" in tok)
        try:
            counts = {k: int(printed[k]) for k in ("tp", "fp", "tn", "fn")}
        except (KeyError, ValueError):
            op.error = f"evaluate printed no confusion counts: {printed}"
            return op
        # correctness is checked against the benchmark's own count, not the first op:
        # a changed predictions file rightly changes what evaluate prints
        op.values["confusion"] = counts
        tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
        op.values["predict_f"] = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if counts != predicted.values.get("confusion"):
            op.error = f"evaluate printed {counts}, the predictions give {predicted.values.get('confusion')}"
        elif op.values["predict_f"] < self.floors["predict_f"]:
            op.error = f"predict F {op.values['predict_f']} under the floor {self.floors['predict_f']}"
        return op

    # -- phases -----------------------------------------------------------
    def setup(self, rep: int) -> None:
        home = self.work / f"setup{rep}"
        home.mkdir()
        cycle = f"setup{rep}"
        start = time.perf_counter()
        ops = [self.generate("data", self.seed, home, cycle),
               self.generate("fresh", self.seed + self.config["fresh_seed_offset"], home, cycle)]
        if self.spec["op"] == "predict":
            ops.append(self.train(home, home / "model", cycle))
        self.setup_s.append(time.perf_counter() - start)
        failed = [op.error for op in ops if not op.digests]  # no outputs to run on
        if failed:
            raise RuntimeError(f"set-up failed: {failed[0]}")

    def cycle(self, cycle: str, traced: bool = False) -> None:
        """Train (train workloads; traced predict workloads too), then predict
        ``predict_reps`` times and evaluate each prediction ``evaluate_reps``
        times (each once when traced).

        A traced cycle of a predict workload also retrains the set-up model, so
        that every layer the workload reports on is in its trace.
        """
        home = self.work / "setup0"
        ops_dir = self.work / "ops"
        ops_dir.mkdir(exist_ok=True)
        model = home / "model" / "model.bin"
        if self.spec["op"] == "train" or traced:
            out = ops_dir / f"train-{cycle}"
            if self.train(home, out, cycle, traced).exit_code != 0:
                return
            if self.spec["op"] == "train":
                model = out / "model.bin"
        # short ops drift with the host's speed, so an untraced cycle repeats them
        # to steady their medians
        predict_reps = 1 if traced else self.spec["predict_reps"]
        evaluate_reps = 1 if traced else self.spec["evaluate_reps"]
        for rep in range(predict_reps):
            label = cycle if rep == 0 else f"{cycle}.{rep}"
            predictions = ops_dir / f"predictions-{label}.csv"
            predicted = self.predict(home, model, predictions, label, traced)
            for again in range(evaluate_reps if predicted.exit_code == 0 else 0):
                self.evaluate(home, predictions, predicted,
                              label if again == 0 else f"{label}e{again}", traced)
            predictions.unlink(missing_ok=True)

    def measure(self, seconds: float, trace: bool) -> None:
        for rep in range(self.spec["setup_reps"]):
            self.setup(rep)
        start = time.perf_counter()
        while self.cycles < MIN_CYCLES or time.perf_counter() - start < seconds:
            self.cycle(str(self.cycles))
            self.cycles += 1
        if trace:
            self.cycle("traced", traced=True)

    # -- metrics ----------------------------------------------------------
    def _untraced(self, kind: str) -> list[Op]:
        return [op for op in self.ops if op.kind == kind and not op.traced and op.exit_code == 0]

    def end_to_end(self) -> dict[str, float]:
        def median(values):
            return statistics.median(values) if values else 0.0

        trains, predicts = self._untraced("train"), self._untraced("predict")
        evaluates = self._untraced("evaluate")
        main_ops = trains if self.spec["op"] == "train" else predicts
        return {
            "setup_s": median(self.setup_s),
            "train_s": median([op.wall_s for op in trains]),
            "test_f": median([op.values["test_f"] for op in trains if "test_f" in op.values]),
            "predict_pairs_per_s": median([op.values["rows"] / op.wall_s for op in predicts
                                           if "rows" in op.values]),
            "predict_f": median([op.values["predict_f"] for op in evaluates
                                 if "predict_f" in op.values]),
            "evaluate_s": median([op.wall_s for op in evaluates]),
            "peak_rss_mb": median([op.rss_mb for op in main_ops]),
            "error_rate": self.failed / self.attempted,
        }

    def per_layer(self) -> tuple[dict[str, float], list[str], dict[str, float]]:
        spans: list[list] = []
        counts: dict[str, int] = {}
        absent: set[str] = set()
        for dump in self.traces:
            offset = len(spans)
            for name, start, end, parent, op_id in dump["spans"]:
                spans.append([name, start, end, None if parent is None else parent + offset, op_id])
            for key, n in dump["counts"].items():
                counts[key] = counts.get(key, 0) + n
            absent.update(dump["absent"])
        selfs = self_times(spans)
        metrics = {f"{name}_s": selfs.get(name, 0.0)
                   for name in SPAN_NAMES if f"{name}_s" in PER_LAYER}
        embed_s = selfs.get("embed.train_embeddings", 0.0)
        metrics["embed.triples_per_s"] = counts.get("embed.triples", 0) / embed_s if embed_s else 0.0
        for key in ("pipeline.candidates", "weights.feature_rows", "ingest.records",
                    "ekg.evolution_triples"):
            metrics[key] = counts.get(key, 0)
        main = [op for op in self.ops if op.traced and op.kind == self.spec["op"]]
        values = main[0].values if main else {}
        metrics["pipeline.true_per_candidate"] = values.get("true_per_candidate", 0.0)
        metrics["pipeline.lost_links"] = values.get("lost_links", 0)
        overhead = 0.0
        for op in self.ops:
            untraced = [u.wall_s for u in self._untraced(op.kind)]
            if op.traced and op.exit_code == 0 and untraced:
                overhead += op.wall_s - statistics.median(untraced)
        metrics["trace.overhead_s"] = overhead
        return {name: metrics[name] for name in PER_LAYER}, sorted(absent), selfs

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    def shape(self) -> list[str]:
        """One line per traced op: its wall time, largest layer and per-pair share."""
        lines = []
        for dump, op in zip(self.traces, [op for op in self.ops if op.traced and op.exit_code == 0]):
            selfs = self_times(dump["spans"])
            top = max(selfs.items(), key=lambda kv: kv[1], default=("none", 0.0))
            per_pair = sum(selfs.get(name, 0.0) for name in PER_PAIR_SPANS)
            embed = selfs.get("embed.train_embeddings", 0.0)
            lines.append(
                f"traced {op.kind}: wall {op.wall_s:.3f} s, largest self time {top[0]} "
                f"{top[1]:.3f} s, block+label+feature+weights+score {per_pair:.3f} s "
                f"({per_pair / op.wall_s:.0%} of the op), embed {embed:.3f} s"
            )
        return lines


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "evolink").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "blas_threads": {k: os.environ[k] for k in blas_vars if k in os.environ},
    }


def load_config() -> dict:
    return json.loads(WORKLOADS.read_text(encoding="utf-8"))


def run_workload(config: dict, workload: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path = OUT_DIR) -> tuple[dict, list[str]]:
    """Run one workload; return (result record, human-readable lines)."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    work = out_dir / "work" / label
    run = Run(config, workload, seed, work)
    try:
        run.measure(seconds, trace)
        e2e = run.end_to_end()
        layers, absent, selfs = run.per_layer() if trace else ({}, [], {})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [f"workload {workload} seed {seed} trace {int(trace)}: {run.cycles} cycles, "
             f"{run.attempted} ops attempted, {run.failed} failed"]
    lines += [f"  {name:<32} {e2e[name]:<14.6g} {unit}" for name, unit in END_TO_END.items()]
    if trace:
        lines += [f"  {name:<32} {layers[name]:<14.6g} {PER_LAYER[name]}" for name in PER_LAYER]
        lines += [f"  absent layer: {name}" for name in absent]
        lines += ["  " + line for line in run.shape()]
    lines += [f"  FAILED {op.kind} {op.cycle}: {op.error}" for op in run.ops if op.error]

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "spec": run.spec,
        "setup_s": run.setup_s,
        "cycles": run.cycles,
        "ops": [asdict(op) for op in run.ops],
        "end_to_end": e2e,
        "per_layer": layers,
        "self_times": selfs,
        "absent": absent,
        "attempted": run.attempted,
        "failed": run.failed,
        "spans": run.traces,
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    lines.append(f"  results: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    return record, lines


def result_line(record: dict) -> str:
    names = PER_LAYER if record["trace"] else {n: END_TO_END[n] for n in REPORTED_END_TO_END}
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in names.items()},
    })


def main(argv: list[str] | None = None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description="evolink end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "evolink" / "__main__.py").is_file():
        print(f"error: no evolink package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        record, lines = run_workload(config, args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
