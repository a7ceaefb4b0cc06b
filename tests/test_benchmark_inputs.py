"""The benchmark's input generator against the current sources.

``benchmark/inputs.py`` renders every workload with ``msfm.synth`` and checks
the result against the digests recorded in ``benchmark/digests.json``.
Running it unchanged here makes a change to the synthetic renderer, or to
``Camera.project`` that it projects with, fail the test suite instead of
the benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

INPUTS = Path(__file__).resolve().parents[1] / "benchmark" / "inputs.py"


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("benchmark_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["ring", "reference_coarse", "relocalize"])
def test_inputs_match_recorded_digest(inputs, name, tmp_path):
    inputs.verify_digest(name, tmp_path / name)
