import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from ba_oracles import dense_jacobian, pack, residuals_at
from msfm.ba import bundle_adjust, problem_from_model, rodrigues, spd_solve
from msfm.model import Camera, reprojection_errors
from msfm.synth import SceneSpec, generate_scene


@pytest.fixture(scope="module")
def exact_scene():
    return generate_scene(SceneSpec(
        n_cameras=6, n_points=80, visibility_fraction=0.8, seed=7))


class TestRodrigues:
    def test_small_angle(self):
        w = np.array([1e-9, 0, 0])
        R = rodrigues(w)
        assert np.allclose(R, np.eye(3), atol=1e-8)

    def test_quarter_turn(self):
        R = rodrigues(np.array([0.0, 0.0, np.pi / 2]))
        assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1.0, 0], atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            R = rodrigues(rng.normal(0, 1, 3))
            assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0)


class TestSpdSolve:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(7, 420), st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy_cho_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        S = A @ A.T + n * np.eye(n)
        b = rng.normal(size=n)
        expected = cho_solve(cho_factor(S, lower=True), b)
        x = spd_solve(S, b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_indefinite_raises(self):
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(21, 21)))
        S = Q @ np.diag(np.r_[np.ones(20), -1.0]) @ Q.T
        with pytest.raises(np.linalg.LinAlgError):
            spd_solve(S, np.ones(21))


class TestProblemFromModel:
    def test_equals_per_observation_gather(self, ring_scene):
        model = ring_scene.ground_truth_model()
        store = ring_scene.store()
        problem, cam_ids, pt_ids = problem_from_model(model, store)
        cam_idx, pt_idx, uv = [], [], []
        for p, pid in enumerate(pt_ids):
            track = model.points[pid].track
            for image_id in sorted(track):
                cam_idx.append(cam_ids.index(image_id))
                pt_idx.append(p)
                uv.append(store.position(image_id, track[image_id]))
        assert np.array_equal(problem.cam_idx, cam_idx)
        assert np.array_equal(problem.pt_idx, pt_idx)
        assert problem.uv.dtype == np.float64
        assert np.array_equal(problem.uv, np.asarray(uv, dtype=np.float64))


class TestJacobian:
    def test_matches_central_differences(self, exact_scene):
        model = exact_scene.ground_truth_model()
        problem, _, _ = problem_from_model(model, exact_scene.exact_store())
        J = dense_jacobian(problem)
        params = pack(problem)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, J.shape[0], size=100)
        cols = rng.integers(0, J.shape[1], size=100)
        h = 1e-6
        for r, c in zip(rows, cols):
            plus = params.copy()
            plus[c] += h
            minus = params.copy()
            minus[c] -= h
            fd = (residuals_at(problem, plus)[r] - residuals_at(problem, minus)[r]) / (2 * h)
            an = J[r, c]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
            assert rel <= 1e-4


class TestBundleAdjust:
    def test_noise_free_fixed_point(self, exact_scene):
        store = exact_scene.exact_store()
        model = exact_scene.ground_truth_model()
        R_before = {i: c.R.copy() for i, c in model.cameras.items()}
        f_before = {i: c.K[0, 0] for i, c in model.cameras.items()}
        stats = bundle_adjust(model, store)
        assert stats.initial_cost < 1e-12
        assert abs(stats.final_cost - stats.initial_cost) < 1e-12
        for i in model.cameras:
            assert np.abs(model.cameras[i].R - R_before[i]).max() < 1e-9
            assert abs(model.cameras[i].K[0, 0] - f_before[i]) < 1e-9

    def test_single_perturbed_point_recovers(self, exact_scene):
        store = exact_scene.exact_store()
        model = exact_scene.ground_truth_model()
        pid = model.point_ids()[5]
        model.points[pid].position = model.points[pid].position + np.array([0.1, 0, 0])
        bundle_adjust(model, store)
        errors = reprojection_errors(model, store)
        assert errors.max() < 1e-6

    def test_cost_monotone(self, exact_scene):
        rng = np.random.default_rng(3)
        model = exact_scene.ground_truth_model()
        for i, cam in list(model.cameras.items()):
            dR = rodrigues(rng.normal(0, 0.01, 3))
            model.cameras[i] = Camera(K=cam.K, R=dR @ cam.R,
                                      t=cam.t + rng.normal(0, 0.02, 3), image_id=i)
        stats = bundle_adjust(model, exact_scene.exact_store())
        assert stats.final_cost <= stats.initial_cost
        assert stats.final_cost < 1e-3 * stats.initial_cost

    def test_noisy_scene_converges_to_noise_floor(self, ring_scene):
        model = ring_scene.ground_truth_model()
        rng = np.random.default_rng(4)
        for i, cam in list(model.cameras.items()):
            dR = rodrigues(rng.normal(0, 0.002, 3))
            model.cameras[i] = Camera(K=cam.K, R=dR @ cam.R,
                                      t=cam.t + rng.normal(0, 0.01, 3), image_id=i)
        stats = bundle_adjust(model, ring_scene.store())
        errors = reprojection_errors(model, ring_scene.store())
        assert stats.final_cost <= stats.initial_cost
        assert errors.mean() < 1.0  # back at the 0.5 px noise floor

    def test_behind_camera_point_pruned(self, exact_scene):
        store = exact_scene.exact_store()
        model = exact_scene.ground_truth_model()
        pid = model.point_ids()[0]
        cam = model.cameras[model.image_ids()[0]]
        # place the point far behind every camera in the track
        model.points[pid].position = cam.center() - cam.R.T @ np.array([0, 0, 100.0])
        n_before = len(model.points)
        stats = bundle_adjust(model, store)
        assert stats.pruned_points >= 1
        assert len(model.points) < n_before
        model.check_consistency()

    def test_focal_refinement(self, exact_scene):
        store = exact_scene.exact_store()
        model = exact_scene.ground_truth_model()
        true_f = {i: c.K[0, 0] for i, c in model.cameras.items()}
        for i, cam in list(model.cameras.items()):
            K = cam.K.copy()
            K[0, 0] = K[1, 1] = K[0, 0] * 1.03
            model.cameras[i] = Camera(K=K, R=cam.R, t=cam.t, image_id=i)
        bundle_adjust(model, store)
        for i in model.cameras:
            assert model.cameras[i].K[0, 0] == pytest.approx(true_f[i], rel=1e-4)
