import numpy as np
import pytest

from msfm import pipeline
from msfm.cli import main
from msfm.config import PipelineConfig, parse_config_text
from msfm.errors import ConfigError, StageError
from msfm.features import DESCRIPTOR_DIM, MIN_FEATURES_FOR_TIER, FeatureSet, write_features
from msfm.io import read_model, write_model
from msfm.model import Camera, Model
from msfm.synth import SceneSpec, generate_scene, write_scene


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene")
    scene = generate_scene(SceneSpec(
        n_cameras=10, n_points=700, visibility_fraction=0.7,
        pixel_noise=0.3, descriptor_noise=3.0, seed=91))
    write_scene(scene, path)
    return path, scene


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.eta == 20.0
        assert cfg.d == 8.0
        assert cfg.ratio_unguided == 0.6
        assert cfg.ratio_guided == 0.8
        assert cfg.covis_threshold == 8
        assert cfg.candidate_fraction == 0.10
        assert cfg.set_cover_k == 400
        assert cfg.set_cover_engage == 100_000
        assert cfg.min_inliers == 16
        assert cfg.iterations == 2

    def test_parse_and_override(self):
        cfg = parse_config_text("eta = 30\npreemptive = on\nseed=2\n# comment\n")
        assert cfg.eta == 30.0
        assert cfg.preemptive is True
        assert cfg.seed == 2

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("no_such_key = 1\n")

    def test_invalid_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("eta = 0\n")

    def test_bad_flag_value_exit2(self, tmp_path):
        # flags parse like config file lines: a bad value is a config error
        assert main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--iterations", "two"]) == 2
        assert main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--eta", "x"]) == 2

    def test_removed_knobs_exit2(self, tmp_path):
        # the iteration comes from the model's STAGE tag, and the grid's cell
        # size is fixed: neither is a flag, nor grid_inflation a config key
        config = tmp_path / "grid.cfg"
        config.write_text("grid_inflation = 1.25\n")
        assert main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--config", str(config)]) == 2
        for argv in (["densify", "--model", "m", "--features", "f", "--out", "o",
                      "--iteration", "1"],
                     ["run", "--features", "f", "--out", "o", "--grid-inflation", "1.25"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_set_cover_k_below_one_exit2(self, tmp_path):
        assert main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--set-cover-k", "0", "--set-cover-engage", "0"]) == 2

    @pytest.mark.parametrize("flag, value", [("--focal", "-900"),
                                             ("--candidate-fraction", "0"),
                                             ("--candidate-fraction", "1.5")])
    def test_out_of_range_value_exit2(self, tmp_path, flag, value):
        assert main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                     flag, value]) == 2

    def test_threads_is_not_a_setting(self, tmp_path):
        # the stages run serially: neither a config line nor a flag sets threads
        config = tmp_path / "threads.cfg"
        config.write_text("threads = 2\n")
        assert main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--config", str(config)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", "--features", str(tmp_path), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
        assert exc.value.code == 2

    def test_threads_constructor_argument(self):
        assert PipelineConfig(focal=900.0, threads=1, iterations=2).iterations == 2
        with pytest.raises(ConfigError):
            PipelineConfig(threads=2)


class TestCliCommands:
    def test_synth_and_validate(self, tmp_path, capsys):
        spec = tmp_path / "scene.cfg"
        spec.write_text("n_cameras = 3\nn_points = 120\nseed = 5\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 0
        assert main(["features", "validate", str(tmp_path / "s" / "image_00000.msft")]) == 0
        out = capsys.readouterr().out
        assert "image_id=0" in out

    def test_synth_bad_spec_exit2(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        for line in ("bogus = 1", "n_cameras = three"):
            spec.write_text(line + "\n")
            assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2, line

    def test_features_stats_bad_eta_exit2(self, scene_dir):
        path, _ = scene_dir
        assert main(["features", "stats", str(path), "--eta", "0"]) == 2
        assert main(["features", "stats", str(path), "--eta", "20"]) == 0

    def test_missing_file_exit3(self, tmp_path):
        assert main(["features", "validate", str(tmp_path / "nope.msft")]) == 3

    def test_truncated_graph_exit3(self, scene_dir, tmp_path):
        feat_dir, _ = scene_dir
        graph = tmp_path / "graph.txt"
        assert main(["match", "--features", str(feat_dir), "--out", str(graph)]) == 0
        graph.write_text("\n".join(graph.read_text().splitlines()[:10]) + "\n")
        assert main(["coarse", "--graph", str(graph), "--features", str(feat_dir),
                     "--out", str(tmp_path / "m.msfm"), "--focal", "900"]) == 3

    def test_match_coarse_localize_densify_eval(self, scene_dir, tmp_path, capsys):
        feat_dir, scene = scene_dir
        graph = tmp_path / "graph.txt"
        assert main(["match", "--features", str(feat_dir),
                     "--out", str(graph), "--focal", "900"]) == 0
        model0 = tmp_path / "model0.msfm"
        assert main(["coarse", "--graph", str(graph), "--features", str(feat_dir),
                     "--out", str(model0), "--focal", "900"]) == 0
        model1 = tmp_path / "model1.msfm"
        report = tmp_path / "loc.txt"
        assert main(["localize", "--model", str(model0), "--features", str(feat_dir),
                     "--graph", str(graph), "--out", str(model1),
                     "--report", str(report), "--focal", "900"]) == 0
        model2 = tmp_path / "model2.msfm"
        assert main(["densify", "--model", str(model1), "--features", str(feat_dir),
                     "--out", str(model2), "--focal", "900"]) == 0
        m = read_model(model2)
        assert len(m.points) > len(read_model(model0).points)
        assert main(["eval", "--model", str(model2),
                     "--reference", str(feat_dir / "ground_truth.msfm")]) == 0
        out = capsys.readouterr().out
        assert "rot_err_deg_median=" in out
        ply = tmp_path / "cloud.ply"
        assert main(["export-ply", "--model", str(model2), "--out", str(ply)]) == 0
        assert ply.read_text().startswith("ply")

    def test_bench_guided(self, scene_dir, tmp_path, capsys):
        feat_dir, scene = scene_dir
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n")
        assert main(["bench", "guided", "--features", str(feat_dir),
                     "--pairs", str(pairs),
                     "--model", str(feat_dir / "ground_truth.msfm"), "--d", "8"]) == 0
        out = capsys.readouterr().out
        assert "pair=0,1" in out
        assert "comparisons=" in out

    @pytest.mark.parametrize("line, message", [
        ("0 77", "pairs.txt:2: image 77 has no camera"),
        ("0 x", "pairs.txt:2: expected two image ids"),
    ])
    def test_bench_guided_bad_pair_exit3(self, scene_dir, tmp_path, capsys, line, message):
        feat_dir, _ = scene_dir
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"# a b\n{line}\n")
        assert main(["bench", "guided", "--features", str(feat_dir), "--pairs", str(pairs),
                     "--model", str(feat_dir / "ground_truth.msfm")]) == 3
        assert message in capsys.readouterr().err

    def test_coarse_failure_exit4(self, scene_dir, tmp_path, monkeypatch):
        def coarse_exit_code(feat_dir):
            graph = tmp_path / "graph.txt"
            assert main(["match", "--features", str(feat_dir), "--out", str(graph)]) == 0
            return main(["coarse", "--graph", str(graph), "--features", str(feat_dir),
                         "--out", str(tmp_path / "m.msfm"), "--focal", "900"])

        cfg = PipelineConfig(focal=900.0)
        # two unrelated images: the match graph has no edges
        unrelated = tmp_path / "unrelated"
        write_scene(generate_scene(SceneSpec(n_cameras=2, n_points=60, seed=3,
                                             visibility_fraction=0.05)), unrelated)
        with pytest.raises(StageError):
            pipeline.run_pipeline(cfg, unrelated)
        assert coarse_exit_code(unrelated) == 4

        # any exception of the reconstruction is a stage failure
        def broken(*args, **kwargs):
            raise FloatingPointError("broken reconstruction")

        monkeypatch.setattr(pipeline, "incremental_reconstruct", broken)
        feat_dir, _ = scene_dir
        with pytest.raises(StageError):
            pipeline.run_pipeline(cfg, feat_dir)
        assert coarse_exit_code(feat_dir) == 4


@pytest.fixture(scope="module")
def mismatched_models(tmp_path_factory):
    """An 8-camera scene's features with models that do not fit them.

    ``bad_feature`` leaves camera 7 out and adds a point on feature 99999999
    of images 0 and 1; ``renamed`` holds camera 7 as 77.  Either way
    localize has an unregistered image to attempt.
    """
    path = tmp_path_factory.mktemp("mismatch")
    write_scene(generate_scene(SceneSpec(n_cameras=8, n_points=400, seed=17)), path)
    truth = read_model(path / "ground_truth.msfm")

    def rebuilt(rename, keep=lambda image_id: True):
        model = Model()
        for image_id, cam in sorted(truth.cameras.items()):
            if keep(image_id):
                model.attach_camera(Camera(K=cam.K, R=cam.R, t=cam.t,
                                           image_id=rename.get(image_id, image_id)))
        for point in truth.points.values():
            refs = [(rename.get(i, i), f) for i, f in sorted(point.track.items())
                    if keep(i)]
            if len(refs) >= 2:
                model.add_point(point.position, refs)
        return model

    bad = rebuilt({}, keep=lambda image_id: image_id != 7)
    bad.add_point(np.zeros(3), [(0, 99999999), (1, 99999999)])
    write_model(bad, path / "bad_feature.msfm")
    write_model(rebuilt({7: 77}), path / "renamed.msfm")
    (path / "empty_graph.txt").write_text("MSFM-GRAPH 1\n")
    first_of_7 = min(p.track[7] for p in truth.points.values() if 7 in p.track)
    return path, {"bad_feature": "0:99999999", "renamed": f"77:{first_of_7}"}


class TestModelAgainstFeatures:
    @pytest.mark.parametrize("defect", ["bad_feature", "renamed"])
    @pytest.mark.parametrize("command", ["densify", "localize"])
    def test_mismatch_exit3_names_ref(self, mismatched_models, tmp_path, capsys,
                                      command, defect):
        path, first_bad = mismatched_models
        args = [command, "--model", str(path / f"{defect}.msfm"), "--features", str(path),
                "--out", str(tmp_path / "out.msfm"), "--focal", "900"]
        if command == "localize":
            args += ["--graph", str(path / "empty_graph.txt")]
        assert main(args) == 3
        assert f"{first_bad[defect]} is not a feature" in capsys.readouterr().err
        assert not (tmp_path / "out.msfm").exists()


def _first_edge(lines):
    """Index of the first EDGE line, its (a, b) and the index of its first match."""
    k = next(i for i, line in enumerate(lines) if line.startswith("EDGE "))
    first_match = k + 2 if lines[k + 1].startswith("F ") else k + 1
    return k, lines[k].split()[1:3], first_match


def _reversed_edge(lines):
    k, (a, b), _ = _first_edge(lines)
    lines[k] = lines[k].replace(f"EDGE {a} {b} ", f"EDGE {b} {a} ", 1)
    return lines, f"graph.txt:{k + 1}: edge {b} {a} is not an ascending pair"


def _repeated_edge(lines):
    k, (a, b), first_match = _first_edge(lines)
    block = lines[k:first_match + int(lines[k].split()[3])]
    return lines + block, f"graph.txt:{len(lines) + 1}: edge {a} {b} is repeated"


def _feature_out_of_range(lines):
    _, (a, _), first_match = _first_edge(lines)
    lines[first_match] = "99999999 " + lines[first_match].split(" ", 1)[1]
    return lines, f"{a}:99999999 is not a feature"


def _inlier_count_mismatch(lines):
    k, (a, b), _ = _first_edge(lines)
    fields = lines[k].split()
    fields[4] = str(int(fields[4]) + 1)
    lines[k] = " ".join(fields)
    return lines, (f"graph.txt:{k + 1}: edge {a} {b} has {int(fields[4]) - 1} inlier flags, "
                   f"not {fields[4]}")


def _extra_edge_field(lines):
    k, _, _ = _first_edge(lines)
    lines[k] += " 99"
    return lines, f"graph.txt:{k + 1}: expected an EDGE record of 5 fields"


def _missing_image(lines):
    return lines + ["EDGE 0 77 1 1", "0 0 1.0 0.5 1"], "77:0 is not a feature"


@pytest.fixture(scope="module")
def graph_lines(scene_dir, tmp_path_factory):
    feat_dir, _ = scene_dir
    graph = tmp_path_factory.mktemp("graph") / "graph.txt"
    assert main(["match", "--features", str(feat_dir), "--out", str(graph)]) == 0
    return graph.read_text().splitlines()


class TestGraphAgainstFeatures:
    @pytest.mark.parametrize("defect", [_reversed_edge, _repeated_edge, _inlier_count_mismatch,
                                        _feature_out_of_range, _missing_image,
                                        _extra_edge_field])
    @pytest.mark.parametrize("command", ["coarse", "localize"])
    def test_graph_defect_exit3(self, scene_dir, graph_lines, tmp_path, capsys,
                                command, defect):
        # a graph that does not fit the features is a data error, whichever stage reads it
        feat_dir, _ = scene_dir
        lines, message = defect(list(graph_lines))
        graph = tmp_path / "graph.txt"
        graph.write_text("\n".join(lines) + "\n")
        args = [command, "--graph", str(graph), "--features", str(feat_dir),
                "--out", str(tmp_path / "out.msfm"), "--focal", "900"]
        if command == "localize":
            args += ["--model", str(feat_dir / "ground_truth.msfm")]
        assert main(args) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.msfm").exists()


class TestRunPipelineCli:
    def test_stage_chain_matches_run(self, tmp_path):
        # the stage commands and run map the config to stages the same way
        feat_dir = tmp_path / "features"
        write_scene(generate_scene(SceneSpec(n_cameras=10, n_points=800, seed=3)), feat_dir)
        run = tmp_path / "run"
        assert main(["run", "--features", str(feat_dir), "--out", str(run),
                     "--focal", "900", "--iterations", "1"]) == 0
        common = ["--features", str(feat_dir), "--focal", "900"]
        graph = tmp_path / "graph.txt"
        coarse = tmp_path / "coarse.msfm"
        localized = tmp_path / "localize.msfm"
        densified = tmp_path / "densify.msfm"
        assert main(["match", "--out", str(graph)] + common) == 0
        assert main(["coarse", "--graph", str(graph), "--out", str(coarse)] + common) == 0
        assert main(["localize", "--model", str(coarse), "--graph", str(graph),
                     "--out", str(localized)] + common) == 0
        assert main(["densify", "--model", str(localized),
                     "--out", str(densified)] + common) == 0
        for mine, theirs in ((coarse, "model_coarse.msfm"),
                             (localized, "model_localize_1.msfm"),
                             (densified, "model_densify_1.msfm")):
            assert mine.read_bytes() == (run / theirs).read_bytes()

    @staticmethod
    def blind(fs: FeatureSet, rng) -> FeatureSet:
        """Prepend random-descriptor clutter above every true scale, enough
        to tier the set and fill its coarse tier at eta 10."""
        n = MIN_FEATURES_FOR_TIER - len(fs)
        scale = np.sort(float(fs.scale.max()) * rng.uniform(1.05, 2.0, n))[::-1]
        xy = rng.uniform(0.0, [fs.width - 1e-3, fs.height - 1e-3], (n, 2))
        return FeatureSet(
            image_id=fs.image_id, width=fs.width, height=fs.height,
            xy=np.concatenate([xy.astype(np.float32), fs.xy]),
            scale=np.concatenate([scale.astype(np.float32), fs.scale]),
            orientation=np.concatenate([rng.uniform(0.0, 2 * np.pi, n).astype(np.float32),
                                        fs.orientation]),
            descriptors=np.concatenate([rng.integers(0, 256, (n, DESCRIPTOR_DIM), dtype=np.uint8),
                                        fs.descriptors]))

    def test_localize_report_matches_run(self, tmp_path):
        # a sparse scene with three images blinded, so the coarse tier cannot
        # reach them; camera addition registers two of them in iteration 1
        # and image 6 in iteration 2.  The stage commands read each
        # iteration from their model's STAGE tag, so the chain match, coarse,
        # localize, densify, localize writes run's second localize model, and
        # its two reports are run's records
        feat_dir = tmp_path / "features"
        scene = generate_scene(SceneSpec(
            n_cameras=10, n_points=800, visibility_fraction=0.4, pixel_noise=0.3,
            descriptor_noise=3.0, seed=3))
        write_scene(scene, feat_dir)
        rng = np.random.default_rng(0)
        for image_id in (5, 6, 7):
            write_features(self.blind(scene.feature_sets[image_id], rng),
                           feat_dir / f"image_{image_id:05d}.msft")
        common = ["--features", str(feat_dir), "--focal", "900", "--eta", "10"]
        run = tmp_path / "run"
        assert main(["run", "--out", str(run), "--iterations", "2"] + common) == 0
        graph = tmp_path / "graph.txt"
        coarse = tmp_path / "coarse.msfm"
        localized = [tmp_path / f"localize_{k}.msfm" for k in (1, 2)]
        reports = [tmp_path / f"loc_{k}.txt" for k in (1, 2)]
        densified = tmp_path / "densify_1.msfm"
        assert main(["match", "--out", str(graph)] + common) == 0
        assert main(["coarse", "--graph", str(graph), "--out", str(coarse)] + common) == 0
        assert main(["localize", "--model", str(coarse), "--graph", str(graph),
                     "--out", str(localized[0]), "--report", str(reports[0])] + common) == 0
        assert main(["densify", "--model", str(localized[0]),
                     "--out", str(densified)] + common) == 0
        assert main(["localize", "--model", str(densified), "--graph", str(graph),
                     "--out", str(localized[1]), "--report", str(reports[1])] + common) == 0
        records = [r.split() for path in reports for r in path.read_text().splitlines()]
        assert [r[:2] for r in records] == [
            ["iteration=1", "image=5"], ["iteration=1", "image=6"], ["iteration=1", "image=7"],
            ["iteration=2", "image=6"]]
        assert [r[5] for r in records] == ["ok=1", "ok=0", "ok=1", "ok=1"]
        assert read_model(localized[1]).stage_tag == "after_localize(2)"
        assert localized[1].read_bytes() == (run / "model_localize_2.msfm").read_bytes()
        assert "".join(path.read_text() for path in reports) == \
            (run / "localization.txt").read_text()

    def test_run_produces_snapshots(self, scene_dir, tmp_path, capsys):
        feat_dir, scene = scene_dir
        out = tmp_path / "run"
        assert main(["run", "--features", str(feat_dir), "--out", str(out),
                     "--focal", "900", "--iterations", "1"]) == 0
        assert (out / "model_coarse.msfm").exists()
        assert (out / "model_localize_1.msfm").exists()
        assert (out / "model_densify_1.msfm").exists()
        assert (out / "model_final.msfm").exists()
        assert (out / "points_final.ply").exists()
        stage_text = (out / "stages.txt").read_text()
        assert "stage=coarse" in stage_text
        final = read_model(out / "model_final.msfm")
        assert len(final.cameras) == 10
