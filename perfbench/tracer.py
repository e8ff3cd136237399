"""Run one evolink command with the public functions of every layer timed.

    PYTHONPATH=src python3 perfbench/tracer.py --spans SPANS.json --op-id ID -- train ...

The arguments after ``--`` are those of ``python -m evolink``. Each function
listed in LAYERS is swapped for a timing wrapper at every module attribute
that holds it (``pipeline.train_embeddings``, ``cli.feature_matrix``, ...), so
calls are caught whichever module makes them. Spans (name, start, end, parent
span, op id) and per-layer counts stay in memory and are written to SPANS.json
when the command returns; the originals are put back before that. A function
that no longer exists is listed as absent instead of failing the command.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

# Public functions timed, per evolink module. `errors` does no work.
LAYERS = {
    "ingest": ("load_records", "partition"),
    "ekg": ("build_ekg",),
    "embed": ("train_embeddings",),
    "weights": ("feature_matrix", "train_weights", "select_threshold"),
    "pipeline": (
        "run_experiment", "block_candidates", "label_pairs", "score_pairs",
        "evaluate", "write_report",
    ),
    "model_io": ("save_model", "load_model"),
    "cli": ("cmd_train", "cmd_predict", "cmd_evaluate"),
}


def _embed_triples(args, result):
    graph, hp = args[0], args[1]
    return len(graph.evolution) * hp.negatives * hp.epochs


# Work counts taken at a span boundary: span name -> (count name, count(args, result)).
COUNTERS = {
    "ingest.load_records": ("ingest.records", lambda args, result: len(result[0])),
    "pipeline.block_candidates": ("pipeline.candidates", lambda args, result: len(result)),
    "weights.feature_matrix": ("weights.feature_rows", lambda args, result: len(result[0])),
    "ekg.build_ekg": ("ekg.evolution_triples", lambda args, result: len(result.evolution)),
    "embed.train_embeddings": ("embed.triples", _embed_triples),
}


class Tracer:
    """Span and count recorder for one op; install() patches, restore() undoes."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                key, count = counter
                try:
                    n = int(count(args, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the count, not the run
                else:
                    self.counts[key] = self.counts.get(key, 0) + n
            return result

        return timed

    def install(self, modules: dict[str, object]) -> None:
        for layer, names in LAYERS.items():
            home = modules.get(f"evolink.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum per span name of its duration minus the duration of its child spans.

    Parent indices refer to positions in ``spans``; spans of several ops may be
    concatenated only after their parent indices have been offset accordingly.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[i]
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("--op-id", required=True, help="identifier shared by this op's spans")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then evolink arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from evolink import cli

    modules = {
        name: module
        for name, module in sys.modules.items()
        if module is not None and (name == "evolink" or name.startswith("evolink."))
    }
    tracer = Tracer(args.op_id)
    tracer.install(modules)
    try:
        status = cli.main(command)
    finally:
        tracer.restore()
        Path(args.spans).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
