"""Every command line of the five commands exits 0 or 2, never with a traceback.

A Hypothesis property draws each command's flags from values at and past
their edges, and its paths from good files, missing paths, directories and
files of another kind. An exit of 2 prints exactly one ``error:`` line.
"""

import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from evolink.cli import main

SYNTH = {
    "attributes": ["given_name", "surname2", "status"],
    "blocking_attribute": "surname2",
    "vocabularies": {
        "given_name": {"prefix": "gn", "count": 20},
        "surname2": {"prefix": "fam", "count": 6},
        "status": ["single", "married", "widowed"],
    },
    "size_a": 40,
    "size_b": 40,
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
    "embed": {"dim": 4, "epochs": 3, "batch_size": 32},
    "rl": {"epochs": 3},
    "seed": 5,
}
# the paths an argument can name: "@key" is a file of the ``files`` fixture,
# and each "<...>" an output path made fresh for the example
MISSING, DIRECTORY = "@missing", "@directory"
NEW = "<a path that does not exist yet>"
EMPTY_DIR = "<an empty directory>"
BELOW_FILE = "<a path below a regular file>"
BELOW_MISSING = "<a path below a missing directory>"


def run(argv):
    """(exit status, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Inputs for every command, each good one made by the command before it."""
    root = tmp_path_factory.mktemp("flags")
    paths = {"root": root, "missing": root / "missing", "directory": root / "a-directory"}
    paths["directory"].mkdir()
    for name, config in (
        ("synth", SYNTH),
        ("train_config", EXPERIMENT),
        ("experiment_config", {**EXPERIMENT, "source": {"kind": "synthetic", "synth": SYNTH}}),
    ):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(config), encoding="utf-8")
    data, model = root / "data", root / "run" / "model.bin"
    assert run(["generate", "--config", paths["synth"], "--out", data])[0] == 0
    assert run(["train", data, "--config", paths["train_config"], "--out", model.parent])[0] == 0
    paths.update(data=data, model=model, predictions=root / "predictions.csv",
                 a=data / "A.csv", b=data / "B.csv", truth=data / "truth_links.csv")
    assert run(["predict", "--model", model, paths["a"], paths["b"],
                "--out", paths["predictions"]])[0] == 0
    # models whose header gives embed.dim 7 over its 4-wide vectors, tau 7.0
    # or 0, rl_margin 7.0, loss_sign "bogus" or no weights, and one whose
    # payload starts with a NaN
    raw = model.read_bytes()
    newline = raw.index(b"\n")
    for name, key, value in (
        ("wide_model", "embed", {**json.loads(raw[:newline])["embed"], "dim": 7}),
        ("tau7_model", "tau", 7.0),
        ("tau0_model", "tau", 0),
        ("margin_model", "rl_margin", 7.0),
        ("sign_model", "loss_sign", "bogus"),
        ("weightless_model", "weights", None),
    ):
        header = {**json.loads(raw[:newline]), key: value}
        paths[name] = root / f"{name}.bin"
        paths[name].write_bytes(json.dumps(header).encode() + raw[newline:])
    paths["nan_model"] = root / "nan_model.bin"
    paths["nan_model"].write_bytes(
        raw[: newline + 1] + struct.pack("<d", math.nan) + raw[newline + 9 :]
    )
    paths["header_pairs"] = root / "header-pairs.csv"  # a pairs file with no pairs
    paths["header_pairs"].write_text("a_id,b_id\n", encoding="utf-8")
    paths["latin1"] = root / "latin1.csv"  # A.csv with one cell in latin-1
    paths["latin1"].write_bytes(paths["a"].read_bytes().replace(b"single", b"c\xe9libataire", 1))
    return paths


def choice(good, *bad):
    """``good`` in about half the draws, else one of ``bad``."""
    return st.one_of(st.just(good), st.sampled_from(bad)) if bad else st.just(good)


def arg(good, *bad):
    """A positional argument."""
    return choice(good, *bad).map(lambda v: [v])


def flag(name, good, *bad):
    """A flag and its value; a value of None leaves the flag out."""
    return choice(good, *bad).map(lambda v: [] if v is None else [name, v])


PATHS = (MISSING, DIRECTORY, "@latin1")
SEED = (0, -1, 2**70)
RUN_FLAGS = (
    flag("--seed", None, *SEED), choice([], ["--merl"]),
    flag("--kg", None, "ekg", "er"), flag("--loss-sign", None, "corrected", "as-written"),
    flag("--out", NEW, EMPTY_DIR, BELOW_FILE),
)
COMMANDS = st.one_of(
    st.tuples(
        arg("generate"), flag("--config", "@synth", *PATHS, "@a"),
        flag("--seed", *SEED), flag("--out", NEW, EMPTY_DIR, BELOW_FILE),
    ),
    st.tuples(
        arg("train"), arg("@data", *PATHS, "@a"),
        flag("--config", "@train_config", *PATHS, "@a"), *RUN_FLAGS,
    ),
    st.tuples(
        arg("experiment"),
        flag("--config", "@experiment_config", *PATHS, "@a", "@train_config"),
        *RUN_FLAGS,
    ),
    st.tuples(
        arg("predict"),
        flag("--model", "@model", *PATHS, "@a", "@wide_model", "@tau7_model", "@tau0_model",
             "@nan_model", "@margin_model", "@sign_model", "@weightless_model"),
        arg("@a", *PATHS, "@truth"), arg("@b", *PATHS),
        flag("--pairs", None, "@truth", "@header_pairs", *PATHS, "@a"),
        flag("--threshold", None, 0.5, 0, 1, 5, "nan", "inf", "1e400"),
        flag("--out", NEW, EMPTY_DIR, BELOW_MISSING),
    ),
    st.tuples(
        arg("evaluate"), arg("@predictions", *PATHS, "@a", "@truth"),
        arg("@truth", *PATHS, "@predictions"),
    ),
).map(lambda parts: [token for part in parts for token in part])


def resolve(token, files):
    """The command-line text of one drawn token."""
    if not (isinstance(token, str) and token.startswith(("@", "<"))):
        return str(token)
    if token.startswith("@"):
        return str(files[token[1:]])
    if token == BELOW_FILE:
        return str(files["a"] / "out")
    fresh = Path(tempfile.mkdtemp(dir=files["root"]))
    paths = {NEW: fresh / "out", EMPTY_DIR: fresh, BELOW_MISSING: fresh / "missing" / "out"}
    return str(paths[token])


@settings(max_examples=400, deadline=None)
@given(argv=COMMANDS)
def test_every_command_line_exits_0_or_2_with_one_error_line(files, argv):
    resolved = [resolve(token, files) for token in argv]
    code, _, err = run(resolved)
    event(f"{argv[0]} exits {code}")
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""
    if argv[0] == "predict" and code == 2 and NEW in argv:
        # a refused predict writes no predictions file
        assert not Path(resolved[argv.index(NEW)]).exists(), err


def test_a_model_whose_embed_dim_is_not_its_dim_exits_2(files, tmp_path):
    code, _, err = run(["predict", "--model", files["wide_model"], files["a"], files["b"],
                        "--out", tmp_path / "out.csv"])
    assert code == 2
    assert err == f"error: {files['wide_model']}: embed.dim: 7 does not match dim 4\n"


@pytest.mark.parametrize("threshold, pairs", [
    ("5", "header_pairs"), ("0", None), ("nan", None), ("1e400", None),
])
def test_a_threshold_outside_0_1_exits_2_before_out_is_written(files, tmp_path, threshold, pairs):
    out = tmp_path / "out.csv"
    pairs_flag = ["--pairs", files[pairs]] if pairs else []
    code, _, err = run(["predict", "--model", files["model"], files["a"], files["b"],
                        *pairs_flag, "--threshold", threshold, "--out", out])
    assert code == 2
    assert err == f"error: --threshold: must be in (0, 1), got {float(threshold)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("model, message", [
    ("tau7_model", "tau: must be in (0, 1), got 7.0"),
    ("tau0_model", "tau: must be in (0, 1), got 0"),
    ("nan_model", "payload: non-finite embedding entries"),
    ("margin_model", "rl_margin: must be in (0, 1), got 7.0"),
    ("sign_model", "loss_sign: unknown mode 'bogus'"),
])
def test_a_model_with_a_bad_tau_or_payload_exits_2_before_out_is_written(
    files, tmp_path, model, message
):
    out = tmp_path / "out.csv"
    code, _, err = run(["predict", "--model", files[model], files["a"], files["b"],
                        "--out", out])
    assert code == 2
    assert err == f"error: {files[model]}: {message}\n"
    assert not out.exists()


def test_a_model_without_weights_exits_2_before_a_records_file_is_read(files, tmp_path):
    out = tmp_path / "out.csv"
    code, _, err = run(["predict", "--model", files["weightless_model"], files["missing"],
                        files["b"], "--out", out])
    assert code == 2
    assert err == f"error: {files['weightless_model']}: model carries no attribute weights\n"
    assert not out.exists()
