"""What each entry point loads: ``python -m evolink`` imports a module only
in the command that runs it, ``import evolink.cli`` loads every layer that
the benchmark's tracer times, and the package resolves each name it exports
from that name's module on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evolink
from evolink import commands, ingest, synth, weights

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
SYNTH = {
    "attributes": ["given_name", "surname2", "status"],
    "blocking_attribute": "surname2",
    "vocabularies": {
        "given_name": {"prefix": "gn", "count": 20},
        "surname2": {"prefix": "fam", "count": 4},
        "status": ["single", "married"],
    },
    "size_a": 40,
    "size_b": 40,
    "duplicate_fraction": 0.5,
    "evolution_rules": [{"attribute": "status", "from": "single", "to": "married"}],
}
TRAIN = {
    "source": {
        "kind": "files", "attributes": SYNTH["attributes"], "blocking_attribute": "surname2",
    },
    "embed": {"dim": 4, "epochs": 2},
    "rl": {"epochs": 2},
}
# the modules that train and score
TRAINING = {"ekg", "embed", "weights", "pipeline", "model_io", "floattext"}
# per command, the evolink modules it must not load
UNUSED = {
    "generate": TRAINING | {"candidates"},
    "train": set(),
    "predict": set(),
    "evaluate": TRAINING | {"ingest", "synth"},
}
# every name the package has always exported
EXPORTED = {
    "AttributeTriple", "BlockingCapError", "CandidatePair", "Candidates", "ConfigError",
    "DomainError", "EmbedHyperparams", "EmbeddingStore", "EvolinkError", "EvolutionKG",
    "EvolutionRule", "EvolutionTriple", "ExperimentConfig", "ExperimentResult", "LinkedPairSet",
    "LoadError", "Metrics", "ModelBundle", "RLHyperparams", "Record", "RecordSet", "Schema",
    "SchemaMismatchError", "Split", "StageError", "SynthConfig", "TextFormat", "TrainingError",
    "UndefinedPairError", "ValueDictionary", "WeightVector", "block_candidates", "build_ekg",
    "classify", "ea_score", "evaluate", "g_score", "generate_synthetic", "gradient_check",
    "init_embeddings", "label_pairs", "link_probability", "load_links", "load_model",
    "load_records", "partition", "run_experiment", "sample_negatives", "save_model",
    "score_pairs", "select_threshold", "standardize", "train_embeddings", "train_weights",
    "write_report",
}


def imported(*args: str, cwd: Path) -> set[str]:
    """The modules that ``python *args`` imports, from its ``-X importtime`` log."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    """Per command, the modules it imports, each command run on what the one
    before it wrote."""
    root = tmp_path_factory.mktemp("imports")
    (root / "synth.json").write_text(json.dumps(SYNTH), encoding="utf-8")
    (root / "train.json").write_text(json.dumps(TRAIN), encoding="utf-8")
    command_lines = {
        "generate": ["generate", "--config", "synth.json", "--out", "data"],
        "train": ["train", "data", "--config", "train.json", "--out", "run"],
        "predict": ["predict", "--model", "run/model.bin", "data/A.csv", "data/B.csv",
                    "--out", "predictions.csv"],
        "evaluate": ["evaluate", "predictions.csv", "data/truth_links.csv"],
    }
    return {
        command: imported("-m", "evolink", *argv, cwd=root)
        for command, argv in command_lines.items()
    }


@pytest.mark.parametrize("command", UNUSED)
def test_each_command_loads_only_what_it_runs(loads, command, tmp_path):
    modules = loads[command]
    assert not {f"evolink.{name}" for name in UNUSED[command]} & modules
    # numpy 1.x imports numpy.ma with numpy; on 2.x a plain np.unique would load it
    if "numpy.ma" not in imported("-c", "import numpy", cwd=tmp_path):
        assert "numpy.ma" not in modules


def test_evaluate_loads_the_id_files_and_candidates_alone(loads):
    assert {name for name in loads["evaluate"] if name.startswith("evolink")} == {
        "evolink", "evolink.candidates", "evolink.commands", "evolink.errors", "evolink.idfiles",
    }


def test_importing_the_package_loads_no_module_of_it(tmp_path):
    assert {name for name in imported("-c", "import evolink", cwd=tmp_path)
            if name.startswith("evolink")} == {"evolink"}


def test_importing_cli_loads_every_layer_the_tracer_times():
    # as perfbench/tracer.py does: import cli, then look in sys.modules
    code = (
        "import json, sys\n"
        "from evolink import cli\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import LAYERS\n"
        "print(json.dumps([\n"
        "    f'{layer}.{name}' for layer, names in LAYERS.items() for name in names\n"
        "    if not callable(getattr(sys.modules.get(f'evolink.{layer}'), name, None))\n"
        "]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(done.stdout) == []


def test_the_package_exports_each_name_from_its_module():
    assert set(evolink.__all__) == EXPORTED
    assert EXPORTED <= set(dir(evolink))
    namespace = {}
    exec("from evolink import *", namespace)
    for module, names in evolink.EXPORTS.items():
        home = sys.modules[f"evolink.{module}"]
        for name in names:
            assert getattr(evolink, name) is namespace[name] is getattr(home, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        evolink.no_such_name
    with pytest.raises(ImportError):
        exec("from evolink import no_such_name", {})


def test_ingest_still_exports_the_generator():
    for name in ("EvolutionRule", "SynthConfig", "generate_synthetic"):
        assert getattr(ingest, name) is getattr(synth, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ingest.no_such_name


def test_the_loss_sign_flag_offers_each_hinge():
    assert commands.LOSS_SIGNS == tuple(mode.replace("_", "-") for mode in weights.HINGES)
