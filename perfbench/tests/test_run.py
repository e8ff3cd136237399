"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402


def tiny_config() -> dict:
    config = run.load_config()
    config["experiment"]["embed"]["epochs"] = 10
    config["experiment"]["rl"]["epochs"] = 10
    for spec in config["workloads"].values():
        spec.update(size=400, predict_size=200, setup_reps=1)
    config["floors"] = {"test_f": 0.0, "predict_f": 0.0}
    return config


def declared(section: str) -> dict[str, str]:
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


@pytest.mark.parametrize("workload,trace", [("train-wideblock", False), ("predict-febrl", True)])
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    record, lines = run.run_workload(tiny_config(), workload, 5, 0.01, trace, out_dir=tmp_path)
    assert record["failed"] == 0, [op["error"] for op in record["ops"] if op["error"]]

    text = "\n".join(lines)
    names = dict(run.END_TO_END, **(run.PER_LAYER if trace else {}))
    for name, unit in names.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), f"{name} [{unit}] missing from:\n{text}"

    result = json.loads(run.result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:  # every layer does work in a traced cycle, so no time reads 0
        assert not record["absent"]
        assert all(v["value"] > 0 for k, v in result["metrics"].items()
                   if v["unit"] == "s" and k != "trace.overhead_s")


def corrupt_second(kind: str, target, alter):
    """Wrap run_child so the second `kind` op's output is altered after it exits."""
    original = run.run_child
    seen = []

    def wrapped(cmd, cwd, log_path):
        outcome = original(cmd, cwd, log_path)
        if kind in cmd:
            seen.append(kind)
            if len(seen) == 2:
                path = target(Path(cmd[cmd.index("--out") + 1]))
                path.write_bytes(alter(path.read_bytes()))
        return outcome

    return wrapped


@pytest.mark.parametrize("kind,target,alter", [
    ("train", lambda out: out / "metrics.csv", lambda data: data + b"\n"),
    ("predict", lambda out: out, lambda data: data.replace(b"non-match", b"match", 1)),
])
def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch, kind, target, alter):
    monkeypatch.setattr(run, "run_child", corrupt_second(kind, target, alter))
    record, lines = run.run_workload(tiny_config(), "train-febrl", 5, 0.01, False, out_dir=tmp_path)

    assert record["failed"] == 1
    failed = [op for op in record["ops"] if op["error"]]
    second = [op for op in record["ops"] if op["kind"] == kind][1]
    assert failed == [second]
    assert record["end_to_end"]["error_rate"] == 1 / record["attempted"]
    assert json.loads(run.result_line(record))["correct"] is False
    assert any(line.strip().startswith(f"FAILED {kind}") for line in lines)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    status = run.main(["--workload", "train-febrl", "--seed", "1", "--seconds", "1"])
    assert status != 0
    assert capsys.readouterr().out == ""


def test_a_missing_layer_function_is_reported_absent():
    class Module:
        pass

    ingest = Module()
    ingest.load_records = lambda: ([], None)
    modules = {"evolink.ingest": ingest, "evolink.cli": Module()}
    trace = tracer.Tracer("op")
    trace.install(modules)
    modules["evolink.ingest"].load_records()
    trace.restore()

    assert "ingest.partition" in trace.absent and "ingest.load_records" not in trace.absent
    assert [span[0] for span in trace.spans] == ["ingest.load_records"]
    assert trace.counts == {"ingest.records": 0}
