"""The match score g is summed one way everywhere: ``scoring.match_scores``,
a fixed-order column sum of exactly rounded products, so its bits do not
depend on the host's BLAS kernel or SIMD width."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evolink.cli import main
from evolink.scoring import MATCH_BLOCK, match_scores
from oracles import left_to_right_scores

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "evolink").glob("*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.json"
# numpy calls that go to a BLAS kernel (or, for einsum, may)
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}
# OpenBLAS kernels to force in a child process; None leaves the variable unset
KERNELS = (None, "Haswell", "Prescott")


@st.composite
def score_inputs(draw):
    """Features <= 0 (±0.0 among them) from a small pool of values, on up to
    three blocks and one row, and weights of both signs."""
    n_cols = draw(st.integers(1, 12))
    n_rows = draw(st.integers(0, 40) | st.integers(0, 3 * MATCH_BLOCK + 1))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e100, 0.0),
                         min_size=1, max_size=16))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        len(pool), size=(n_rows, n_cols)
    )
    w = draw(st.lists(st.floats(-1e100, 1e100), min_size=n_cols, max_size=n_cols))
    return np.array(pool)[picks], np.array(w)


class TestMatchScores:
    @settings(deadline=None)
    @given(score_inputs())
    @example((np.zeros((MATCH_BLOCK + 1, 3)), np.array([-1.0, 0.5, -2.0])))
    def test_equals_a_left_to_right_loop(self, inputs):
        features, w = inputs
        assert match_scores(features, w).tobytes() == left_to_right_scores(features, w).tobytes()

    def test_a_row_of_zeros_scores_plus_zero(self):
        # predictions.csv then prints g as 0.0, never -0.0
        features = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
        assert match_scores(features, np.array([-1.0, 2.0, -0.5])).tobytes() == (
            np.zeros(3).tobytes()
        )


def blas_sites(source: str) -> list[str]:
    """Each ``@``, BLAS-kernel call and ``linalg`` use in ``source``, as
    "line: what"."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                sites.append(f"{node.lineno}: {name}")
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg") or (
            isinstance(node, ast.Name) and node.id == "linalg"
        ):
            sites.append(f"{node.lineno}: linalg")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name for name in names):
                sites.append(f"{node.lineno}: linalg")
    return sites


class TestNoBlas:
    def test_guard_finds_each_kind_of_site(self):
        source = ("g = f @ w\ng @= w\nnp.dot(w, t)\nt.dot(w)\nnp.matmul(f, w)\n"
                  "np.einsum('ij,j', f, w)\nnp.linalg.norm(t)\nfrom numpy import linalg\n")
        assert len(blas_sites(source)) == 8

    def test_sources_make_no_blas_call(self):
        found = {
            path.name: sites
            for path in SOURCES
            if (sites := blas_sites(path.read_text(encoding="utf-8")))
        }
        assert found == {}


def write_tiny_configs(out: Path) -> tuple[Path, Path]:
    """The generator config of ``perfbench/workloads.json`` at 1,500 records
    per side on surname2 blocks, and its experiment with 20 embedding and 50
    weight epochs (negatives 2, as train-febrl): (synth.json, experiment.json)."""
    bench = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    gen = bench["generator"]
    synth = dict(gen, size_a=1500, size_b=1500, blocking_attribute="surname2")
    experiment = bench["experiment"]
    experiment["embed"].update(epochs=20, negatives=2)
    experiment["rl"]["epochs"] = 50
    experiment["source"] = {
        "kind": "files", "attributes": gen["attributes"], "blocking_attribute": "surname2",
    }
    out.mkdir(parents=True, exist_ok=True)
    paths = out / "synth.json", out / "experiment.json"
    for path, config in zip(paths, (synth, experiment)):
        path.write_text(json.dumps(config), encoding="utf-8")
    return paths


def run_under(kernel: str | None, args: list[str]) -> None:
    """Run the CLI in a child process with ``OPENBLAS_CORETYPE`` set to
    ``kernel`` (unset for None), in the child's environment only."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-m", "evolink", *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    """A weight step whose negatives bind (as-written) and predict's g give
    the same bytes under every forced OpenBLAS kernel."""
    synth, experiment = write_tiny_configs(tmp_path)
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--config", str(synth), "--seed", "1", "--out", str(data)]) == 0
    train = ["train", str(data), "--config", str(experiment), "--loss-sign", "as-written"]
    assert main([*train, "--out", str(run)]) == 0

    predictions = set()
    for kernel in KERNELS:
        out = tmp_path / f"predictions-{kernel}.csv"
        run_under(kernel, ["predict", "--model", str(run / "model.bin"),
                           str(data / "A.csv"), str(data / "B.csv"), "--out", str(out)])
        predictions.add(digest(out))
    assert len(predictions) == 1

    run_under("Prescott", [*train, "--out", str(tmp_path / "prescott")])
    assert digest(tmp_path / "prescott" / "model.bin") == digest(run / "model.bin")
