"""The benchmark's layer tracer against the current sources.

``benchmark/tracing.py`` wraps ``msfm`` functions by module and name from
outside the package.  Importing it unchanged here makes a rename in the
sources fail the test suite instead of the benchmark's traced run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from msfm.config import PipelineConfig
from msfm.pipeline import run_pipeline
from msfm.synth import SceneSpec, generate_scene, write_scene

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_functions() -> list[tuple[str, str]]:
    """(msfm module, function name) of every entry in ``Tracer.install``'s plan."""
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "plan"):
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no plan in Tracer.install")


def test_tracer_wraps_and_restores_a_pipeline_run(tracing, tmp_path):
    features = tmp_path / "features"
    write_scene(generate_scene(SceneSpec(n_cameras=6, n_points=400, seed=3)), features)
    names = wrapped_functions()
    assert len(names) >= 15
    originals = {(mod, attr): getattr(importlib.import_module(f"msfm.{mod}"), attr)
                 for mod, attr in names}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(importlib.import_module(f"msfm.{mod}"), attr).__wrapped__ is original
        patched = list(tracer._patched)
        run_pipeline(PipelineConfig(focal=900.0, iterations=1), features,
                     out_dir=tmp_path / "out")
    finally:
        tracer.uninstall()

    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    trace = tracer.export()
    spans = {name for name, *_ in trace["spans"]}
    assert {"io.load", "match", "match.knn", "match.ransac", "coarse", "coarse.resection",
            "coarse.ba", "coarse.triangulate", "localize", "densify", "densify.guided",
            "densify.merge", "densify.triangulate", "stats", "io.write"} <= spans
    counters = trace["counters"]
    for key in ("match.pairs", "match.hypotheses", "coarse.resections",
                "coarse.resection_hypotheses", "densify.pairs", "densify.groups",
                "stats.calls"):
        assert counters.get(key, 0) > 0, key
    assert trace["search"]["densify"]["candidates"] > 0
