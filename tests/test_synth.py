import numpy as np

from msfm.features import load_features
from msfm.synth import SceneSpec, generate_scene, write_scene

from model_oracles import ExactPositionStore, covisibility_matrix, oracle_matches


class TestGenerateScene:
    def test_exact_projection_when_noise_free(self):
        scene = generate_scene(SceneSpec(n_cameras=2, n_points=10, seed=1))
        for image_id, fs in scene.feature_sets.items():
            cam = scene.cameras[image_id]
            table = scene.point_of_feature[image_id]
            for fid in range(len(fs)):
                pid = table[fid]
                if pid < 0:
                    continue
                proj, depth = cam.project(scene.points[pid])
                assert depth[0] > 0
                assert np.linalg.norm(proj[0] - fs.xy[fid]) < 1e-3  # f32 storage

    def test_same_seed_bit_identical_files(self, tmp_path):
        spec = SceneSpec(n_cameras=3, n_points=100, pixel_noise=0.5,
                         descriptor_noise=4.0, seed=7)
        write_scene(generate_scene(spec), tmp_path / "a")
        write_scene(generate_scene(spec), tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_ring_covisibility_band(self):
        scene = generate_scene(SceneSpec(
            n_cameras=60, n_points=600, visibility_fraction=0.7, seed=3))
        mat = covisibility_matrix(scene)
        n = 60
        adjacent = np.array([mat[i, (i + 1) % n] for i in range(n)])
        opposite = np.array([mat[i, (i + n // 2) % n] for i in range(n)])
        assert adjacent.mean() > opposite.mean()

    def test_starved_camera_warning(self):
        scene = generate_scene(SceneSpec(
            n_cameras=6, n_points=12, visibility_fraction=0.05, seed=4))
        assert scene.warnings  # some camera sees almost nothing

    def test_written_files_load(self, tmp_path):
        scene = generate_scene(SceneSpec(n_cameras=2, n_points=50, seed=5))
        write_scene(scene, tmp_path)
        fs = load_features(tmp_path / "image_00000.msft")
        assert len(fs) == len(scene.feature_sets[0])
        assert (tmp_path / "ground_truth.msfm").exists()
        assert (tmp_path / "correspondences.txt").exists()

    def test_repetition_groups_share_base(self):
        spec = SceneSpec(n_cameras=2, n_points=100, seed=6,
                         repetition_groups=5, repetition_group_size=10)
        scene = generate_scene(spec)
        for g in range(5):
            members = np.flatnonzero(scene.group_of_point == g)
            assert len(members) == 10
            base = scene.base_descriptors[members[0]]
            assert (scene.base_descriptors[members] == base).all()


class TestOracles:
    def test_oracle_matches_identity_pair(self, tiny_scene):
        pairs = oracle_matches(tiny_scene, 0, 0)
        table = tiny_scene.point_of_feature[0]
        expected = sum(1 for p in table if p >= 0)
        assert len(pairs) == expected
        assert all(a == b for a, b in pairs)

    def test_oracle_matches_transitive(self, tiny_scene):
        # closure over pairwise oracles equals the per-point groupings
        m01 = dict(oracle_matches(tiny_scene, 0, 1))
        m12 = dict(oracle_matches(tiny_scene, 1, 2))
        m02 = dict(oracle_matches(tiny_scene, 0, 2))
        for f0, f1 in m01.items():
            if f1 in m12:
                assert m02.get(f0) == m12[f1]

    def test_disjoint_pair_empty(self):
        scene = generate_scene(SceneSpec(
            n_cameras=8, n_points=200, visibility_fraction=0.25, seed=8))
        assert oracle_matches(scene, 0, 4) == []

    def test_triangulable_points(self, tiny_scene):
        tri = tiny_scene.triangulable_points()
        counts = {}
        for table in tiny_scene.point_of_feature.values():
            for p in table[table >= 0]:
                counts[int(p)] = counts.get(int(p), 0) + 1
        expected = {p for p, c in counts.items() if c >= 2}
        assert tri == expected

    def test_exact_store_positions(self, tiny_scene):
        store = ExactPositionStore(tiny_scene)
        cam = tiny_scene.cameras[0]
        table = tiny_scene.point_of_feature[0]
        fid = int(np.flatnonzero(table >= 0)[0])
        X = tiny_scene.points[table[fid]]
        assert np.linalg.norm(
            store.position(0, fid) - cam.project(X)[0][0]) < 1e-12
