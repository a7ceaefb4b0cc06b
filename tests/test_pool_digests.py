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


@pytest.mark.parametrize("name", ["ring", "relocalize"])
def test_first_draw_matches_the_record(inputs, name, tmp_path):
    # the determinism contract on one draw per stage chain: every output file
    # of r0, timings masked, as tools/pool_digests.txt records it
    header, *lines = RECORD.read_text().splitlines()
    if header != f"numpy {np.__version__}":
        pytest.skip(f"digests recorded under {header}, not numpy {np.__version__}")
    prefix = f"{name}/r0/"
    recorded = {key: digest for key, digest in map(str.split, lines) if key.startswith(prefix)}
    inputs.generate(name, 0, tmp_path / "in", whole_pool=True)  # r<k> is pool draw k
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    iterations = inputs.workload_spec(name).iterations
    proc = subprocess.run([sys.executable, "-c", RUN_DRAW, str(iterations),
                           str(tmp_path / "in" / "r0"), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    found = {prefix + path.name: file_digest(path)
             for path in sorted((tmp_path / "out").iterdir())}
    assert differences(recorded, found) == []
