"""``tools/pool_digests.py``: the comparison behind ``--check``, and the
recorded digests of one draw of each stage chain as a tier-1 check."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from pool_digests import differences, file_digest  # noqa: E402


def test_equal_digests_report_nothing():
    recorded = {"ring/r0/a.msfm": "1", "ring/r0/b.txt": "2"}
    assert differences(recorded, dict(recorded)) == []


def test_every_changed_missing_and_unrecorded_file_is_listed():
    recorded = {"ring/r0/a.msfm": "1", "ring/r0/b.txt": "2", "ring/r1/a.msfm": "3"}
    found = {"ring/r0/a.msfm": "9", "ring/r1/a.msfm": "3", "ring/r1/c.ply": "4"}
    assert differences(recorded, found) == [
        "differs ring/r0/a.msfm", "missing ring/r0/b.txt", "unrecorded ring/r1/c.ply"]


ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tools" / "pool_digests.txt"
INPUTS = ROOT / "benchmark" / "inputs.py"
# one pool draw through run_pipeline with the config tools/pools.py runs it with
RUN_DRAW = """
import sys
from msfm.config import PipelineConfig
from msfm.pipeline import run_pipeline
run_pipeline(PipelineConfig(focal=900.0, iterations=int(sys.argv[1])), sys.argv[2],
             out_dir=sys.argv[3])
"""


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("benchmark_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under benchmark/
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]


def recorded_digests(prefix: str) -> dict[str, str]:
    """The record's digests of the files under ``prefix``; skips the test
    when the record was written under another numpy."""
    header, *lines = RECORD.read_text().splitlines()
    if header != f"numpy {np.__version__}":
        pytest.skip(f"digests recorded under {header}, not numpy {np.__version__}")
    return {key: digest for key, digest in map(str.split, lines) if key.startswith(prefix)}


def run_one_thread(script: str, *argv: str) -> None:
    """``python -c script argv...`` on this checkout's ``src/`` with one-thread BLAS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["ring", "relocalize"])
def test_first_draw_matches_the_record(inputs, name, tmp_path):
    # the determinism contract on one draw per stage chain: every output file
    # of r0, timings masked, as tools/pool_digests.txt records it
    prefix = f"{name}/r0/"
    recorded = recorded_digests(prefix)
    inputs.generate(name, 0, tmp_path / "in", whole_pool=True)  # r<k> is pool draw k
    iterations = inputs.workload_spec(name).iterations
    run_one_thread(RUN_DRAW, str(iterations), str(tmp_path / "in" / "r0"),
                   str(tmp_path / "out"))
    found = {prefix + path.name: file_digest(path)
             for path in sorted((tmp_path / "out").iterdir())}
    assert differences(recorded, found) == []


# tools/pool_digests.py's reference scene, stopped after the coarse stage
RUN_REFERENCE_COARSE = """
import sys
from msfm.config import PipelineConfig
from msfm.pipeline import run_pipeline
from msfm.synth import SceneSpec, generate_scene
scene = generate_scene(SceneSpec(n_cameras=60, n_points=5000, visibility_fraction=0.55,
                                 pixel_noise=0.5, descriptor_noise=4.0, seed=2024))
run_pipeline(PipelineConfig(focal=900.0, iterations=0), None, out_dir=sys.argv[1],
             store=scene.store())
"""


def test_reference_coarse_matches_the_record(tmp_path):
    # the pool draws are small enough that a gate moved by a few percent
    # (the triangulation gate's 4 px at 3.9 px) leaves all of them equal;
    # the 60-camera coarse model is not
    key = "reference/model_coarse.msfm"
    recorded = recorded_digests(key)
    run_one_thread(RUN_REFERENCE_COARSE, str(tmp_path))
    assert file_digest(tmp_path / "model_coarse.msfm") == recorded[key]
