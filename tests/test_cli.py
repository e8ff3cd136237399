import csv
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from evolink.cli import main
from evolink.model_io import load_model
from evolink.weights import g_score, link_probability

SYNTH = {
    "attributes": ["given_name", "surname2", "status"],
    "blocking_attribute": "surname2",
    "vocabularies": {
        "given_name": {"prefix": "gn", "count": 60},
        "surname2": {"prefix": "fam", "count": 12},
        "status": ["single", "married", "widowed"],
    },
    "size_a": 120,
    "size_b": 120,
    "duplicate_fraction": 0.6,
    "evolution_rules": [
        {"attribute": "status", "from": "single", "to": "married", "probability": 0.5}
    ],
    "typo_probability": 0.0,
    "missing_probability": 0.0,
}

EXPERIMENT = {
    "source": {
        "kind": "files",
        "attributes": ["given_name", "surname2", "status"],
        "blocking_attribute": "surname2",
    },
    "ratios": [0.6, 0.2, 0.2],
    "embed": {"dim": 12, "epochs": 50, "learning_rate": 0.1, "batch_size": 32},
    "rl": {"epochs": 50},
    "seed": 5,
}


@pytest.fixture
def synth_config(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(SYNTH), encoding="utf-8")
    return path


@pytest.fixture
def experiment_config(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(EXPERIMENT), encoding="utf-8")
    return path


@pytest.fixture
def data_dir(tmp_path, synth_config):
    out = tmp_path / "data"
    assert main(["generate", "--config", str(synth_config), "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, data_dir, experiment_config):
    out = tmp_path / "run"
    code = main([
        "train", str(data_dir), "--config", str(experiment_config), "--out", str(out),
    ])
    assert code == 0
    return out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestGenerate:
    def test_writes_data_files_and_manifest(self, data_dir):
        for name in ("A.csv", "B.csv", "truth_links.csv", "evolution_rules.csv", "manifest.json"):
            assert (data_dir / name).is_file(), name
        manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "generate"
        assert manifest["seeds"] == {"seed": 7}
        assert manifest["input_digests"]

    def test_same_seed_byte_identical_outputs(self, tmp_path, synth_config):
        one, two = tmp_path / "g1", tmp_path / "g2"
        for out in (one, two):
            assert main(["generate", "--config", str(synth_config), "--seed", "3", "--out", str(out)]) == 0
        for name in ("A.csv", "B.csv", "truth_links.csv", "evolution_rules.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def test_malformed_config_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"attributes": ["a"], "vocabularies": {"a": ["x"]}}), encoding="utf-8")
        code = main(["generate", "--config", str(bad), "--seed", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "size_a" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, synth_config, capsys):
        out = tmp_path / "o"
        code = main(["generate", "--config", str(synth_config), "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: seed: must be >= 0\n"
        assert not out.exists()


class TestTrain:
    def test_link_to_an_unknown_record_exits_2_naming_it(
        self, tmp_path, data_dir, experiment_config, capsys
    ):
        with open(data_dir / "truth_links.csv", "a", encoding="utf-8") as fh:
            fh.write("3,100000\n")
        code = main(["train", str(data_dir), "--config", str(experiment_config),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stage 'partition' failed: "
            "links: b id 100000 of link (3, 100000) is not a B record\n"
        )

    def test_writes_model_and_run_files(self, run_dir):
        for name in (
            "model.bin", "config.json", "loss_embed.csv", "loss_weights.csv",
            "metrics.csv", "report.txt", "manifest.json",
        ):
            assert (run_dir / name).is_file(), name
        bundle = load_model(run_dir / "model.bin")
        assert bundle.tau is not None
        assert bundle.weights is not None

    def test_timings_json_lists_every_stage(self, run_dir):
        timings = json.loads((run_dir / "timings.json").read_text(encoding="utf-8"))
        assert list(timings) == [
            "load", "partition", "block", "graph", "embed", "weights", "threshold", "evaluate",
        ]
        for stage in timings.values():
            assert set(stage) == {"wall_s", "peak_rss_mb", "minor_faults"}
            assert stage["wall_s"] >= 0 and stage["peak_rss_mb"] > 0
            assert isinstance(stage["minor_faults"], int) and stage["minor_faults"] >= 0
        peaks = [stage["peak_rss_mb"] for stage in timings.values()]
        assert peaks == sorted(peaks)  # a high-water mark never falls
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        assert "timings.json" in manifest["artifacts"]

    def test_merl_flag_keeps_uniform_weights(self, tmp_path, data_dir, experiment_config):
        out = tmp_path / "merl"
        assert main([
            "train", str(data_dir), "--config", str(experiment_config),
            "--out", str(out), "--merl",
        ]) == 0
        bundle = load_model(out / "model.bin")
        assert set(bundle.weights.weights.tolist()) == {1.0}
        assert read_csv(out / "loss_weights.csv") == [["epoch", "loss"]]

    def test_a_synthetic_source_trains_as_its_schema_files_source(self, tmp_path, data_dir):
        # the README's quick start: train on generated files with the config
        # that generated them; the files source with the same attributes and
        # blocking attribute gives the same run
        synthetic = {**EXPERIMENT, "source": {"kind": "synthetic", "synth": SYNTH}}
        runs = []
        for name, config in (("synthetic", synthetic), ("files", EXPERIMENT)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out = tmp_path / f"run-{name}"
            assert main(["train", str(data_dir), "--config", str(path), "--out", str(out)]) == 0
            runs.append(out)
        for artifact in ("model.bin", "metrics.csv", "report.txt"):
            assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes(), artifact

    def test_missing_data_dir_exits_2(self, tmp_path, experiment_config, capsys):
        code = main([
            "train", str(tmp_path / "nowhere"), "--config", str(experiment_config),
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("change, key", [
        ({"source": {**EXPERIMENT["source"], "relations": "rel.csv"}}, "source.relations"),
        ({"embed": {"dim": "50"}}, "embed.dim"),
        ({"rl": {"margin": "0.3"}}, "rl.margin"),
        ({"source": {**EXPERIMENT["source"], "format": "x"}}, "source.format"),
    ])
    def test_malformed_config_exits_2_naming_the_key(
        self, tmp_path, data_dir, change, key, capsys
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**EXPERIMENT, **change}), encoding="utf-8")
        code = main(["train", str(data_dir), "--config", str(config), "--out", str(tmp_path / "r")])
        assert code == 2
        assert f"error: {key}:" in capsys.readouterr().err


class TestPredict:
    def test_identical_pair_scores_half(self, tmp_path, data_dir, run_dir):
        truth = read_csv(data_dir / "truth_links.csv")[1:]
        pairs_path = tmp_path / "pairs.csv"
        pairs_path.write_text(
            "a_id,b_id\n" + "\n".join(f"{a},{b}" for a, b in truth[:5]) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"),
            "--pairs", str(pairs_path), "--out", str(out),
        ]) == 0
        rows = read_csv(out)
        assert rows[0] == ["a_id", "b_id", "g", "P", "decision"]
        identical = [r for r in rows[1:] if float(r[2]) == 0.0]
        assert identical, "expected at least one uncorrupted duplicate pair"
        for row in identical:
            assert float(row[3]) == 0.5

    def test_empty_pairs_header_only(self, tmp_path, data_dir, run_dir):
        pairs_path = tmp_path / "pairs.csv"
        pairs_path.write_text("a_id,b_id\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"),
            "--pairs", str(pairs_path), "--out", str(out),
        ]) == 0
        assert read_csv(out) == [["a_id", "b_id", "g", "P", "decision"]]

    def test_matches_direct_library_call(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out", str(out),
        ]) == 0
        rows = read_csv(out)[1:]
        assert rows

        from evolink.ingest import TextFormat, load_records

        bundle = load_model(run_dir / "model.bin")
        fmt = TextFormat(delimiter=",")
        records_a, d = load_records(data_dir / "A.csv", bundle.schema, fmt, bundle.dictionary)
        records_b, _ = load_records(data_dir / "B.csv", bundle.schema, fmt, d)
        for row in rows[:40]:
            head = records_a.get(int(row[0]))
            tail = records_b.get(int(row[1]))
            assert float(row[2]) == g_score(head, tail, bundle.store, bundle.weights)
            assert float(row[3]) == link_probability(head, tail, bundle.store, bundle.weights)

    def test_threshold_flag_overrides_model(self, tmp_path, data_dir, run_dir):
        truth = read_csv(data_dir / "truth_links.csv")[1:]
        pairs_path = tmp_path / "pairs.csv"
        pairs_path.write_text(f"a_id,b_id\n{truth[0][0]},{truth[0][1]}\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"),
            "--pairs", str(pairs_path), "--threshold", "0.99", "--out", str(out),
        ]) == 0
        (row,) = read_csv(out)[1:]
        assert row[4] == "non-match"

    def test_chunked_output_equals_one_call(self, tmp_path, data_dir, run_dir, monkeypatch):
        import evolink.candidates as candidates_mod

        args = ["predict", "--model", str(run_dir / "model.bin"),
                str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out"]
        whole = tmp_path / "whole.csv"
        assert main([*args, str(whole)]) == 0
        n_pairs = len(read_csv(whole)) - 1
        chunk = next(c for c in (7, 11, 13) if n_pairs % c)
        assert n_pairs > 3 * chunk
        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", chunk)
        chunked = tmp_path / "chunked.csv"
        assert main([*args, str(chunked)]) == 0
        assert chunked.read_bytes() == whole.read_bytes()

    def test_file_equals_csv_writer_rows(self, tmp_path, data_dir, run_dir):
        import io

        from evolink import pipeline
        from evolink.ingest import TextFormat, load_records

        out = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out", str(out),
        ]) == 0

        bundle = load_model(run_dir / "model.bin")
        fmt = TextFormat(delimiter=",")
        records_a, d = load_records(data_dir / "A.csv", bundle.schema, fmt, bundle.dictionary)
        records_b, _ = load_records(data_dir / "B.csv", bundle.schema, fmt, d)
        scored = pipeline.score_pairs(
            pipeline.block_candidates(records_a, records_b, bundle.schema.blocking_attribute),
            records_a, records_b, bundle.store, bundle.weights, bundle.embed_hp.norm,
        )
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["a_id", "b_id", "g", "P", "decision"])
        for a, b, g, p in zip(scored.a_ids.tolist(), scored.b_ids.tolist(),
                              scored.score.tolist(), scored.probability.tolist()):
            writer.writerow([a, b, repr(g), repr(p), "match" if p >= bundle.tau else "non-match"])
        assert len(scored) > 0
        assert out.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("earlier", [None, b"a_id,b_id,g,P,decision\n1,2,0.0,0.5,match\n"])
    def test_failed_write_leaves_out_whole_or_absent(
        self, tmp_path, data_dir, run_dir, monkeypatch, capsys, earlier
    ):
        from evolink import candidates as candidates_mod
        from evolink import commands

        out_dir = tmp_path / "predictions"
        out_dir.mkdir()
        out = out_dir / "preds.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        write_predictions = commands.write_predictions

        def full_after_one_block(fh, *args):
            blocks = []

            class FullDisk:
                def write(self, data):
                    if blocks:
                        raise OSError(28, "No space left on device")
                    blocks.append(fh.write(data))

            write_predictions(FullDisk(), *args)

        monkeypatch.setattr(candidates_mod, "PAIR_CHUNK", 4)
        monkeypatch.setattr(commands, "write_predictions", full_after_one_block)
        args = ["predict", "--model", str(run_dir / "model.bin"),
                str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out", str(out)]
        assert main(args) == 2
        assert "No space left on device" in capsys.readouterr().err
        if earlier is None:
            assert list(out_dir.iterdir()) == []
        else:
            assert list(out_dir.iterdir()) == [out]
            assert out.read_bytes() == earlier

        monkeypatch.setattr(commands, "write_predictions", write_predictions)
        assert main(args) == 0
        assert list(out_dir.iterdir()) == [out]
        assert out.read_bytes() != earlier

    def test_model_missing_header_key_exits_2(self, tmp_path, data_dir, run_dir, capsys):
        raw = (run_dir / "model.bin").read_bytes()
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        del header["tau"]
        broken = tmp_path / "broken.bin"
        broken.write_bytes(json.dumps(header).encode() + raw[newline:])
        code = main([
            "predict", "--model", str(broken),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2
        assert "tau: required" in capsys.readouterr().err

    def test_schema_mismatch_exits_2(self, tmp_path, run_dir, capsys):
        alien = tmp_path / "alien.csv"
        alien.write_text("entity_id,height,width\n1,2,3\n", encoding="utf-8")
        code = main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(alien), str(alien), "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2


SRC = Path(__file__).resolve().parents[1] / "src"
# Runs the CLI with the arguments after argv[1], one step wrapped so that,
# once it has written what argv[1] names, the child prints "stopped" and
# sleeps until it is killed.
STOPPING_CHILD = """
import itertools, sys, time
from evolink import candidates, commands, ingest, model_io

def stop():
    print("stopped", flush=True)
    time.sleep(600)

where, argv = sys.argv[1], sys.argv[2:]
if where == "predict":  # the first chunk of predictions
    candidates.PAIR_CHUNK = 16
    write = commands.write_predictions
    def write_one_chunk(fh, chunks, *rest):
        def first(chunks=iter(chunks)):
            yield next(chunks)
            fh.flush()
            stop()
        write(fh, first(), *rest)
    commands.write_predictions = write_one_chunk
elif where == "generate":  # the header and half of A.csv's rows
    ingest.WRITE_BYTES = 1  # a row a block
    record_lines = ingest._record_lines
    def half(records):
        yield from itertools.islice(record_lines(records), 1 + len(records) // 2)
        stop()
    ingest._record_lines = half
else:  # model.bin
    save_model = model_io.save_model
    def save_then_stop(*args):
        save_model(*args)
        stop()
    model_io.save_model = save_then_stop
sys.exit(commands.main(argv))
"""


def kill_once_stopped(where, args):
    """Run ``STOPPING_CHILD`` until it stops after writing ``where``'s
    output, then kill it with SIGKILL."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    child = subprocess.Popen(
        [sys.executable, "-c", STOPPING_CHILD, where, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    try:
        stopped = "stopped\n" in iter(child.stdout.readline, "")
    finally:
        child.kill()
        _, err = child.communicate()
    assert stopped, err
    assert child.returncode == -signal.SIGKILL


class TestKilledRuns:
    """A run killed with SIGKILL while it writes leaves each output whole,
    as it was before, or absent; a run directory it wrote into has no
    manifest."""

    @pytest.mark.parametrize("earlier", [None, b"a_id,b_id,g,P,decision\n1,2,0.0,0.5,match\n"])
    def test_predict_killed_after_its_first_chunk(self, tmp_path, data_dir, run_dir, earlier):
        out = tmp_path / "predictions" / "preds.csv"
        out.parent.mkdir()
        if earlier is not None:
            out.write_bytes(earlier)
        kill_once_stopped("predict", [
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out", str(out),
        ])
        # the first chunk went to the partial file beside --out
        (partial,) = out.parent.glob(".preds.csv.*.partial")
        assert partial.read_bytes().count(b"\n") == 1 + 16
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == earlier

    @pytest.mark.parametrize("rerun", [False, True])
    def test_generate_killed_halfway_through_a_csv(self, tmp_path, rerun):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SYNTH, "size_a": 3000, "size_b": 3000}), encoding="utf-8")
        out = tmp_path / "data"
        args = ["generate", "--config", str(config), "--out", str(out)]
        earlier = None
        if rerun:
            assert main([*args, "--seed", "1"]) == 0
            earlier = (out / "A.csv").read_bytes()
        kill_once_stopped("generate", [*args, "--seed", "2"])
        (partial,) = out.glob(".A.csv.*.partial")
        assert partial.stat().st_size > 0
        if earlier is None:
            assert not (out / "A.csv").exists()
        else:
            assert (out / "A.csv").read_bytes() == earlier
        assert not (out / "manifest.json").exists()
        # a complete rerun removes the killed writer's partial file, and
        # keeps one whose pid is a running process's
        running = out / f".A.csv.{os.getppid()}.partial"
        running.write_bytes(b"")
        assert main([*args, "--seed", "2"]) == 0
        assert list(out.glob(".*.partial")) == [running]

    def test_train_rerun_killed_after_model_bin_leaves_no_manifest(
        self, data_dir, run_dir, experiment_config
    ):
        earlier = (run_dir / "model.bin").read_bytes()
        assert (run_dir / "manifest.json").is_file()
        kill_once_stopped("train", [
            "train", str(data_dir), "--config", str(experiment_config),
            "--out", str(run_dir), "--seed", "9",
        ])
        assert not (run_dir / "manifest.json").exists()
        assert (run_dir / "model.bin").read_bytes() != earlier
        assert load_model(run_dir / "model.bin").weights is not None


class TestEvaluate:
    def write_files(self, tmp_path, rows, truth):
        pred = tmp_path / "preds.csv"
        with open(pred, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a_id", "b_id", "g", "P", "decision"])
            writer.writerows(rows)
        truth_path = tmp_path / "truth.csv"
        with open(truth_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a_id", "b_id"])
            writer.writerows(truth)
        return pred, truth_path

    def test_perfect_predictions(self, tmp_path, capsys):
        rows = [[0, 10, "0.0", "0.5", "match"], [1, 11, "-3", "0.04", "non-match"]]
        pred, truth = self.write_files(tmp_path, rows, [[0, 10]])
        assert main(["evaluate", str(pred), str(truth)]) == 0
        out = capsys.readouterr().out
        assert "f_score=1.0000" in out

    def test_all_negative_predictions(self, tmp_path, capsys):
        rows = [[0, 10, "0", "0.1", "non-match"], [1, 11, "0", "0.1", "non-match"]]
        pred, truth = self.write_files(tmp_path, rows, [[0, 10]])
        assert main(["evaluate", str(pred), str(truth)]) == 0
        assert "f_score=0.0000" in capsys.readouterr().out

    def test_hand_confusion_reproduced(self, tmp_path, capsys):
        rows = (
            [[i, i, "0", "0.9", "match"] for i in range(9)]
            + [[100, 100, "0", "0.9", "match"]]
            + [[200 + i, 0, "0", "0.1", "non-match"] for i in range(3)]
            + [[300 + i, 0, "0", "0.1", "non-match"] for i in range(87)]
        )
        truth = [[i, i] for i in range(9)] + [[200 + i, 0] for i in range(3)]
        pred, truth_path = self.write_files(tmp_path, rows, truth)
        assert main(["evaluate", str(pred), str(truth_path)]) == 0
        out = capsys.readouterr().out
        assert "precision=0.9000" in out
        assert "recall=0.7500" in out
        assert "f_score=0.8182" in out

    def test_repeated_prediction_row_exits_2(self, tmp_path, capsys):
        rows = [[0, 10, "0", "0.9", "match"], [1, 11, "0", "0.1", "non-match"],
                [0, 10, "0", "0.9", "match"]]
        pred, truth = self.write_files(tmp_path, rows, [[0, 10]])
        assert main(["evaluate", str(pred), str(truth)]) == 2
        assert "line 4: pair 0,10 repeats line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("decision", ["maybe", "Match", "", "1"])
    def test_unknown_decision_exits_2(self, tmp_path, capsys, decision):
        rows = [[0, 10, "0", "0.9", "match"], [1, 11, "0", "0.1", decision]]
        pred, truth = self.write_files(tmp_path, rows, [[0, 10]])
        assert main(["evaluate", str(pred), str(truth)]) == 2
        err = capsys.readouterr().err
        assert f"{pred}: line 3: unknown decision {decision!r}" in err

    def test_swapped_id_columns_exit_2(self, tmp_path, run_dir, data_dir, capsys):
        pred = tmp_path / "p.csv"
        assert main([
            "predict", "--model", str(run_dir / "model.bin"),
            str(data_dir / "A.csv"), str(data_dir / "B.csv"), "--out", str(pred),
        ]) == 0
        truth = str(data_dir / "truth_links.csv")
        assert main(["evaluate", str(pred), truth]) == 0
        header, *rows = pred.read_text(encoding="utf-8").splitlines()
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("".join(
            f"{line}\n" for line in [header] + [
                ",".join([b_id, a_id, *rest])
                for a_id, b_id, *rest in (row.split(",") for row in rows)
            ]
        ), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", str(swapped), truth]) == 2
        assert "do not match" in capsys.readouterr().err

    def test_disjoint_ids_exit_2(self, tmp_path, capsys):
        rows = [[0, 10, "0", "0.9", "match"]]
        pred, truth = self.write_files(tmp_path, rows, [[5000, 6000]])
        assert main(["evaluate", str(pred), str(truth)]) == 2
        assert "do not match" in capsys.readouterr().err


class TestExperimentCommand:
    def test_synthetic_experiment_end_to_end(self, tmp_path, synth_config):
        config = {
            "source": {"kind": "synthetic", "synth": SYNTH},
            "ratios": [0.6, 0.2, 0.2],
            "embed": {"dim": 12, "epochs": 50, "learning_rate": 0.1, "batch_size": 32},
            "rl": {"epochs": 50},
            "seed": 5,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "report.txt").is_file()
        assert (out / "model.bin").is_file()

    @pytest.mark.parametrize("change, key", [
        ({"source": {"kind": "synthetic", "synth": {**SYNTH, "attributes": 5}}},
         "source.synth.attributes"),
        ({"source": {"kind": "synthetic", "synth": {**SYNTH, "size_a": "120"}}},
         "source.synth.size_a"),
        ({"seed": -1}, "seed"),
    ])
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, change, key, capsys):
        config = {
            "source": {"kind": "synthetic", "synth": SYNTH},
            "rl": {"epochs": 5},
            "embed": {"epochs": 5},
            "seed": 5,
            **change,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"error: {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"a": None}, "source.a"),
        ({"a": 0}, "source.a"),
        ({"attributes": 5}, "source.attributes"),
        ({"format": {"null_markers": 5}}, "source.format.null_markers"),
        ({"format": {"delimiter": ", "}}, "source.format.delimiter"),
        ({"format": {"delimiter": ""}}, "source.format.delimiter"),
    ])
    def test_malformed_files_source_exits_2_naming_the_key(
        self, tmp_path, data_dir, change, key, capsys
    ):
        source = {
            **EXPERIMENT["source"],
            "a": str(data_dir / "A.csv"),
            "b": str(data_dir / "B.csv"),
            "truth": str(data_dir / "truth_links.csv"),
            "format": {"delimiter": ","},
            **change,
        }
        source = {k: v for k, v in source.items() if v is not None}  # None: left out
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**EXPERIMENT, "source": source}), encoding="utf-8")
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"error: {key}:" in capsys.readouterr().err

    def test_loss_sign_flag(self, tmp_path, data_dir, experiment_config):
        out = tmp_path / "asw"
        assert main([
            "train", str(data_dir), "--config", str(experiment_config),
            "--out", str(out), "--loss-sign", "as-written",
        ]) == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        assert "loss_sign: as_written" in report


def test_module_entry_point(tmp_path, synth_config):
    result = subprocess.run(
        [sys.executable, "-m", "evolink", "generate", "--config", str(synth_config),
         "--seed", "1", "--out", str(tmp_path / "sub")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "sub" / "A.csv").is_file()


def test_verbose_logs_the_stage_lines(tmp_path, data_dir, experiment_config):
    def train(*flags):
        out = tmp_path / ("loud" if flags else "quiet")
        return subprocess.run(
            [sys.executable, "-m", "evolink", *flags, "train", str(data_dir),
             "--config", str(experiment_config), "--out", str(out)],
            capture_output=True, text=True,
        )

    quiet, loud = train(), train("--verbose")
    assert quiet.returncode == loud.returncode == 0, loud.stderr
    assert quiet.stderr == ""
    assert "INFO evolink.pipeline: loaded " in loud.stderr
    assert "INFO evolink.pipeline: train: " in loud.stderr
