"""The benchmark's timed process against the current sources.

``benchmark/timed.py`` builds a ``PipelineConfig`` and calls
``run_pipeline`` from outside the package.  Running it unchanged here makes a
change to either signature fail the test suite instead of the benchmark run.
"""

import importlib.util
import json
import time
from pathlib import Path

from msfm.synth import SceneSpec, generate_scene, write_scene

TIMED = Path(__file__).resolve().parents[1] / "benchmark" / "timed.py"


def test_timed_runs_one_pass(tmp_path):
    spec = importlib.util.spec_from_file_location("benchmark_timed", TIMED)
    timed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(timed)
    inputs = tmp_path / "inputs"
    write_scene(generate_scene(SceneSpec(n_cameras=6, n_points=400, seed=3)), inputs / "r0")
    results = tmp_path / "timed.json"

    assert timed.main([
        "--inputs", str(inputs), "--out", str(tmp_path / "out"), "--results", str(results),
        "--iterations", "1", "--seconds", "0", "--spawned-at", str(time.monotonic()),
    ]) == 0

    out = json.loads(results.read_text())
    assert out["passes"] == 1
    run = out["runs"]["r0"]
    assert len(run["seconds"]) == 1
    assert len(run["model_digests"]) == 1
    assert len(run["model_digests"][0]) == 64
    assert [stage["name"] for stage in out["stages"]["r0"]] == [
        "coarse", "localize_1", "densify_1"]
