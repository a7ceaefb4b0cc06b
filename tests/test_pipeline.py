import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msfm
from msfm import pipeline
from msfm.config import PipelineConfig
from msfm.errors import StageError
from msfm.io import read_model
from msfm.model import Model
from msfm.pipeline import intrinsics_for_store, run_pipeline, stage_iteration
from msfm.synth import SceneSpec, generate_scene

from model_oracles import check_consistency


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_out")
    scene = generate_scene(SceneSpec(
        n_cameras=12, n_points=900, visibility_fraction=0.6,
        pixel_noise=0.4, descriptor_noise=3.0, seed=101))
    cfg = PipelineConfig(focal=900.0, iterations=2)
    result = run_pipeline(cfg, None, store=scene.store(), out_dir=out)
    return scene, cfg, result, out


class TestRunPipeline:
    def test_full_recovery(self, small_run):
        scene, cfg, result, out = small_run
        assert len(result.model.cameras) == 12
        check_consistency(result.model)

    def test_stage_sequence_and_snapshots(self, small_run):
        scene, cfg, result, out = small_run
        names = [rep.name for rep in result.reports]
        assert names == ["coarse", "localize_1", "densify_1",
                         "localize_2", "densify_2"]
        for name in names:
            assert (out / f"model_{name}.msfm").exists()

    def test_monotone_counts_across_stages(self, small_run):
        scene, cfg, result, out = small_run
        cams = [rep.stats.n_cameras for rep in result.reports]
        pts = [rep.stats.n_points for rep in result.reports]
        assert cams == sorted(cams)
        assert pts == sorted(pts)

    def test_iteration_breakdown_reported(self, small_run):
        scene, cfg, result, out = small_run
        per_iter = {rep.name: rep.added_cameras for rep in result.reports
                    if rep.name.startswith("localize_")}
        assert set(per_iter) == {"localize_1", "localize_2"}
        text = result.report_text()
        assert "added_cameras=" in text and "stage=densify_1" in text

    def test_stage_tags(self, small_run):
        scene, cfg, result, out = small_run
        final = read_model(out / "model_final.msfm")
        assert final.stage_tag == "after_densify(2)"
        coarse = read_model(out / "model_coarse.msfm")
        assert coarse.stage_tag == "coarse"

    def test_heuristic_intrinsics(self, small_run):
        scene, cfg, result, out = small_run
        store = scene.store()
        intr = intrinsics_for_store(store, 0.0)
        fs = store[0]
        assert intr[0][0, 0] == pytest.approx(1.2 * max(fs.width, fs.height))
        assert intr[0][0, 2] == pytest.approx(fs.width / 2.0)

    def test_empty_graph_raises_stage_error(self, tmp_path):
        # two unrelated images cannot form any verified edge
        scene = generate_scene(SceneSpec(n_cameras=2, n_points=60, seed=3,
                                         visibility_fraction=0.05))
        cfg = PipelineConfig(focal=900.0)
        with pytest.raises(StageError):
            run_pipeline(cfg, None, store=scene.store())


class TestStageIteration:
    @pytest.mark.parametrize("tag, localize, densify", [
        ("", 1, 1), ("coarse", 1, 1), ("ground_truth", 1, 1),
        ("after_localize(1)", 1, 1), ("after_densify(1)", 2, 1),
        ("after_localize(3)", 3, 3), ("after_densify(12)", 13, 12)])
    def test_iteration_from_tag(self, tag, localize, densify):
        # localize follows densify k as k+1, densify follows localize k as k;
        # a stage run again on its own output keeps its iteration
        model = Model(stage_tag=tag)
        assert stage_iteration(model, "localize") == localize
        assert stage_iteration(model, "densify") == densify


class TestFinalBA:
    def test_final_ba_refines_every_camera(self, tmp_path):
        scene = generate_scene(SceneSpec(n_cameras=8, n_points=400, visibility_fraction=0.7,
                                         pixel_noise=0.4, descriptor_noise=3.0, seed=5))
        out = tmp_path / "out"
        result = run_pipeline(PipelineConfig(focal=900.0, iterations=1, final_ba=True), None,
                              store=scene.store(), out_dir=out)
        assert [rep.name for rep in result.reports] == \
            ["coarse", "localize_1", "densify_1", "final_ba"]
        assert "stage=final_ba" in (out / "stages.txt").read_text()
        densified = read_model(out / "model_densify_1.msfm")
        adjusted = read_model(out / "model_final_ba.msfm")
        assert sorted(adjusted.cameras) == sorted(densified.cameras) == list(range(8))
        check_consistency(adjusted)

        def cameras(path):
            return [line for line in path.read_text().splitlines() if line.startswith("CAM ")]

        # the adjustment moved the cameras, and the final model is its output
        assert cameras(out / "model_final_ba.msfm") != cameras(out / "model_densify_1.msfm")
        assert (out / "model_final.msfm").read_bytes() == \
            (out / "model_final_ba.msfm").read_bytes()


class TestSnapshotReuse:
    def test_unchanged_stages_reuse_stats_and_model_text(self, tmp_path, monkeypatch):
        # every camera registers in the coarse stage, so camera addition and
        # the second densify change nothing: stats run once per revision,
        # and every model file holds what a fresh write of the model gives
        calls = []
        stats, write = pipeline.model_stats, pipeline.write_model

        def counted_stats(model, store):
            calls.append(model.revision)
            return stats(model, store)

        def checked_write(model, path, **kwargs):
            body = write(model, path, **kwargs)
            write(model, tmp_path / "fresh.msfm")
            assert path.read_bytes() == (tmp_path / "fresh.msfm").read_bytes()
            return body

        monkeypatch.setattr(pipeline, "model_stats", counted_stats)
        monkeypatch.setattr(pipeline, "write_model", checked_write)
        scene = generate_scene(SceneSpec(n_cameras=8, n_points=400, visibility_fraction=0.7,
                                         pixel_noise=0.4, descriptor_noise=3.0, seed=5))
        out = tmp_path / "out"
        result = run_pipeline(PipelineConfig(focal=900.0, iterations=2), None,
                              store=scene.store(), out_dir=out)
        names = [rep.name for rep in result.reports]
        assert names == ["coarse", "localize_1", "densify_1", "localize_2", "densify_2"]
        assert [rep.added_cameras for rep in result.reports[1:]] == [0, 0, 0, 0]
        assert len(calls) == len(set(calls)) == 2
        stats_of = {rep.name: rep.stats for rep in result.reports}
        assert stats_of["localize_1"] is stats_of["coarse"]
        assert stats_of["localize_2"] is stats_of["densify_2"] is stats_of["densify_1"]
        assert read_model(out / "model_localize_2.msfm").stage_tag == "after_localize(2)"
        assert (out / "model_final.msfm").read_text().split("\n")[2:] == \
            (out / "model_densify_1.msfm").read_text().split("\n")[2:]


NUMPY_ONLY_RUN = """
import json, sys, tempfile
import msfm, msfm.cli
from msfm import ba, densify
from msfm.config import PipelineConfig
from msfm.pipeline import run_pipeline
from msfm.synth import SceneSpec, generate_scene

calls = {"_lm_iterate": 0, "connected_components": 0}
def counted(module, name):
    inner = getattr(module, name)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)
    setattr(module, name, wrapper)
counted(ba, "_lm_iterate")
counted(densify, "connected_components")
scene = generate_scene(SceneSpec(n_cameras=8, n_points=400, visibility_fraction=0.7,
                                 pixel_noise=0.4, descriptor_noise=3.0, seed=5))
with tempfile.TemporaryDirectory() as out:
    run_pipeline(PipelineConfig(focal=900.0, iterations=1), None,
                 store=scene.store(), out_dir=out)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"calls": calls, "scipy": scipy}))
"""


class TestNumpyOnly:
    def test_import_and_run_load_no_scipy(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(msfm.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        # BA's LM solve and the track merge both ran
        assert out["calls"]["_lm_iterate"] > 0
        assert out["calls"]["connected_components"] > 0
        assert out["scipy"] == []
