import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ba_oracles import dense_jacobian, pack, residuals_at, ring_ba_model
from model_oracles import check_consistency, exact_store, reprojection_errors
from msfm import ba
from msfm.ba import (
    CAM_PARAMS,
    _CameraPairChunks,
    _lm_iterate,
    _normal_equations,
    _reduced_camera_system,
    _Segments,
    bundle_adjust,
    free_parameters,
    problem_from_model,
    rodrigues,
)
from msfm.config import PipelineConfig
from msfm.io import write_model
from msfm.model import Camera
from msfm.pipeline import run_coarse, run_match
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

    def test_stack_rows_equal_single_calls(self):
        # both sides of the 1e-12 rad small-angle branch, mixed in one stack
        rng = np.random.default_rng(2)
        w = np.concatenate([rng.normal(0, 1, (40, 3)), rng.normal(0, 1e-3, (20, 3)),
                            rng.normal(0, 1e-13, (20, 3)), np.zeros((1, 3))])
        w = w[rng.permutation(len(w))]
        stack = rodrigues(w)
        assert stack.shape == (len(w), 3, 3)
        assert all(stack[i].tobytes() == rodrigues(w[i]).tobytes() for i in range(len(w)))
        grid = rodrigues(w[:80].reshape(4, 20, 3))
        assert grid.tobytes() == stack[:80].tobytes()


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
        problem, _, _ = problem_from_model(model, exact_store(exact_scene))
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
        store = exact_store(exact_scene)
        model = exact_scene.ground_truth_model()
        R_before = {i: c.R.copy() for i, c in model.cameras.items()}
        f_before = {i: c.K[0, 0] for i, c in model.cameras.items()}
        stats = bundle_adjust(model, store)
        assert stats.initial_cost < 1e-12
        assert abs(stats.final_cost - stats.initial_cost) < 1e-12
        for i in model.cameras:
            assert np.abs(model.cameras[i].R - R_before[i]).max() < 1e-9
            assert abs(model.cameras[i].K[0, 0] - f_before[i]) < 1e-9

    def test_bumps_model_revision(self, exact_scene):
        model = exact_scene.ground_truth_model()
        before = model.revision
        cameras = dict(model.cameras)
        bundle_adjust(model, exact_store(exact_scene))
        # one bump per camera replaced and per point moved
        assert model.revision >= before + len(model.cameras) + len(model.points)
        assert all(model.cameras[i] is not cameras[i] for i in cameras)

    def test_single_perturbed_point_recovers(self, exact_scene):
        store = exact_store(exact_scene)
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
        stats = bundle_adjust(model, exact_store(exact_scene))
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
        store = exact_store(exact_scene)
        model = exact_scene.ground_truth_model()
        pid = model.point_ids()[0]
        cam = model.cameras[model.image_ids()[0]]
        # place the point far behind every camera in the track
        model.points[pid].position = cam.center() - cam.R.T @ np.array([0, 0, 100.0])
        n_before = len(model.points)
        stats = bundle_adjust(model, store)
        assert stats.pruned_points >= 1
        assert len(model.points) < n_before
        check_consistency(model)

    def test_focal_refinement(self, exact_scene):
        store = exact_store(exact_scene)
        model = exact_scene.ground_truth_model()
        true_f = {i: c.K[0, 0] for i, c in model.cameras.items()}
        for i, cam in list(model.cameras.items()):
            K = cam.K.copy()
            K[0, 0] = K[1, 1] = K[0, 0] * 1.03
            model.cameras[i] = Camera(K=K, R=cam.R, t=cam.t, image_id=i)
        bundle_adjust(model, store)
        for i in model.cameras:
            assert model.cameras[i].K[0, 0] == pytest.approx(true_f[i], rel=1e-4)


def rotation_vector(R: np.ndarray) -> np.ndarray:
    """w with exp([w]x) = R, for rotations well below pi, read from the
    skew part: |w| = asin of its norm, exact at small angles."""
    A = (R - R.T) / 2.0
    v = np.array([A[2, 1], A[0, 2], A[1, 0]])
    s = np.linalg.norm(v)
    return v if s == 0.0 else v * (np.arcsin(s) / s)


class TestFreeParameters:
    def test_gauge_fixes_camera_0_and_the_scale_direction_of_camera_1(self):
        # scaling the world about camera 0's centre moves t1 along
        # d t1 / ds = R1 (C0 - C1); its largest component is the one fixed
        model, store = ring_ba_model(8, 80, track=(3, 6), seed=4)
        problem, _, _ = problem_from_model(model, store)
        free = free_parameters(problem)
        C = [-problem.R[c].T @ problem.t[c] for c in (0, 1)]
        assert np.linalg.norm(C[0]) > 1.0  # camera 0 is off the origin
        scale_dir = problem.R[1] @ (C[0] - C[1])
        fixed = np.zeros_like(free)
        fixed[0, :6] = True
        fixed[1, 3 + np.argmax(np.abs(scale_dir))] = True
        assert np.array_equal(free, ~fixed)
        fixed[:, 6] = True
        assert np.array_equal(free_parameters(problem, fix_focal=True), ~fixed)

    def test_two_cameras_keep_their_focal(self):
        # two views do not fix their focals (the ring's optical axes all
        # meet), so a two-camera BA keeps them although none was given
        model, store = ring_ba_model(2, 60, track=(2, 2), seed=5)
        problem, _, _ = problem_from_model(model, store)
        assert not free_parameters(problem)[:, 6].any()
        focal = [c.K[0, 0] for c in model.cameras.values()]
        stats = bundle_adjust(model, store)
        assert stats.final_cost < stats.initial_cost
        assert [c.K[0, 0] for c in model.cameras.values()] == focal
        model, store = ring_ba_model(3, 60, track=(2, 3), seed=5)
        problem, _, _ = problem_from_model(model, store)
        assert free_parameters(problem)[:, 6].all()

    @pytest.mark.parametrize("fix_focal", [False, True])
    def test_one_iteration_is_the_dense_damped_step(self, fix_focal):
        # the dense Gauss-Newton system with the fixed columns deleted, damped
        # as the first LM try damps it (lambda 1e-6 on the diagonal)
        model, store = ring_ba_model(8, 80, track=(3, 6), seed=4)
        problem, _, _ = problem_from_model(model, store)
        free = free_parameters(problem, fix_focal=fix_focal)
        J = dense_jacobian(problem)
        r = problem.residuals().reshape(-1)
        keep = np.concatenate([np.flatnonzero(free.reshape(-1)),
                               CAM_PARAMS * problem.n_cams + np.arange(3 * problem.n_pts)])
        Jk = J[:, keep]
        H = Jk.T @ Jk
        H[np.diag_indices_from(H)] += 1e-6 * np.maximum(np.diag(H), 1e-12)
        expected = np.linalg.solve(H, -Jk.T @ r)

        R0, t0, f0, X0 = problem.R.copy(), problem.t.copy(), problem.f.copy(), problem.X.copy()
        initial, final, iters = _lm_iterate(problem, 1, free)
        assert iters == 1 and final < initial
        step = np.concatenate(
            [np.concatenate([rotation_vector(problem.R[c] @ R0[c].T), problem.t[c] - t0[c],
                             [problem.f[c] - f0[c]]]) for c in range(problem.n_cams)]
            + [(problem.X - X0).reshape(-1)])
        assert not step[np.flatnonzero(~free.reshape(-1))].any()
        np.testing.assert_allclose(step[keep], expected, rtol=0,
                                   atol=1e-9 * np.abs(expected).max())

    def test_fixed_parameters_are_bit_unchanged(self):
        model, store = ring_ba_model(10, 200, track=(3, 8), seed=6)
        problem, _, _ = problem_from_model(model, store)
        free = free_parameters(problem, fix_focal=True)
        before = [problem.R.copy(), problem.t.copy(), problem.f.copy()]
        initial, final, iters = _lm_iterate(problem, 10, free)
        assert final < initial and iters > 1
        assert problem.R[0].tobytes() == before[0][0].tobytes()
        assert problem.t[0].tobytes() == before[1][0].tobytes()
        fixed_t1 = ~free[1, 3:6]
        assert problem.t[1][fixed_t1].tobytes() == before[1][1][fixed_t1].tobytes()
        assert problem.f.tobytes() == before[2].tobytes()
        # the free translations of camera 1 and the other cameras moved
        assert not np.array_equal(problem.t[1][~fixed_t1], before[1][1][~fixed_t1])
        assert not np.array_equal(problem.t[2:], before[1][2:])

    def test_fixed_camera_is_bit_unchanged_by_bundle_adjust(self):
        # the write-back leaves a camera with no free parameter as it was
        model, store = ring_ba_model(10, 200, track=(3, 8), seed=6)
        before = [model.cameras[c] for c in (0, 1)]
        bundle_adjust(model, store, fix_focal=True)
        for name in ("R", "t", "K"):
            assert getattr(model.cameras[0], name).tobytes() == getattr(before[0], name).tobytes()
        assert not np.array_equal(model.cameras[1].R, before[1].R)

    def test_gauge_only_final_cost_matches_the_stiffness_gauge(self):
        # removing the 7 gauge parameters reaches the minimum that pinning
        # them with a 1e8 * max|H_cc| stiffness reached: 906.3113768222463
        model, store = ring_ba_model(12, 300, seed=3)
        stats = bundle_adjust(model, store)
        assert stats.final_cost == pytest.approx(906.3113768222463, rel=1e-6)

    def test_given_focal_stays_in_the_coarse_model(self, tmp_path):
        scene = generate_scene(SceneSpec(n_cameras=8, n_points=400, visibility_fraction=0.7,
                                         pixel_noise=0.4, descriptor_noise=3.0, seed=5))
        store = scene.store()
        config = PipelineConfig(focal=900.0)
        model = run_coarse(config, store, run_match(config, store))
        assert len(model.cameras) >= 3
        write_model(model, tmp_path / "coarse.msfm")
        focals = [line.split()[2] for line in (tmp_path / "coarse.msfm").read_text().splitlines()
                  if line.startswith("CAM ")]
        assert len(focals) == len(model.cameras)
        assert set(focals) == {"900.0"}


class TestReducedCameraSystem:
    def test_equals_dense_schur_complement(self, monkeypatch):
        # the camera-pair blocks against H - W M W^T with a dense W; small
        # chunks, so a camera pair's sum spans several chunks
        monkeypatch.setattr(ba, "_SCHUR_PAIR_CHUNK", 16)
        model, store = ring_ba_model(9, 60, track=(2, 6), seed=5)
        problem, _, _ = problem_from_model(model, store)
        nc, npnt, nu = problem.n_cams, problem.n_pts, CAM_PARAMS
        rng = np.random.default_rng(6)
        B = rng.normal(size=(problem.n_obs, nu, 3))
        A = rng.normal(size=(npnt, 3, 3))
        M = A @ A.transpose(0, 2, 1) + np.eye(3)
        H = rng.normal(size=(nc, nu, nu))
        by_cam = _Segments.of(np.argsort(problem.cam_idx, kind="stable"), problem.cam_idx, nc)
        by_point = _Segments.of(np.lexsort((problem.cam_idx, problem.pt_idx)),
                                problem.pt_idx, npnt)
        chunks = _CameraPairChunks(problem.cam_idx, by_cam, by_point, nc)
        S = _reduced_camera_system(chunks, B, B @ M[problem.pt_idx], H)

        W = np.zeros((nc * nu, npnt * 3))
        for o, (c, p) in enumerate(zip(problem.cam_idx, problem.pt_idx)):
            W[c * nu:(c + 1) * nu, p * 3:p * 3 + 3] = B[o]
        M_dense = np.zeros((npnt * 3, npnt * 3))
        for p in range(npnt):
            M_dense[p * 3:p * 3 + 3, p * 3:p * 3 + 3] = M[p]
        expected = -W @ M_dense @ W.T
        for c in range(nc):
            expected[c * nu:(c + 1) * nu, c * nu:(c + 1) * nu] += H[c]
        np.testing.assert_allclose(S, expected, rtol=0, atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("dropped", [5, 11])
    def test_camera_without_observations_stays_put(self, dropped):
        # an empty run of observations must sum to zero, not to the next
        # camera's first row, and the run before it must keep all its rows
        # (camera 11 is the last one)
        nc = 12
        model, store = ring_ba_model(nc, 300, seed=3)
        problem, _, _ = problem_from_model(model, store)
        keep = problem.cam_idx != dropped
        problem.cam_idx, problem.pt_idx = problem.cam_idx[keep], problem.pt_idx[keep]
        problem.uv = problem.uv[keep]

        by_cam = _Segments.of(np.argsort(problem.cam_idx, kind="stable"), problem.cam_idx, nc)
        by_point = _Segments.of(np.lexsort((problem.cam_idx, problem.pt_idx)),
                                problem.pt_idx, problem.n_pts)
        _, g_cam, _, _, _ = _normal_equations(problem, problem.residuals(), by_cam, by_point)
        Jc, _ = problem.jacobian_blocks()
        expected = np.zeros((nc, CAM_PARAMS))
        np.add.at(expected, problem.cam_idx, np.einsum("oki,ok->oi", Jc, problem.residuals()))
        np.testing.assert_allclose(g_cam, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())
        assert not g_cam[dropped].any()

        R, t, f = problem.R[dropped].copy(), problem.t[dropped].copy(), problem.f[dropped]
        initial, final, _ = _lm_iterate(problem, 20, free_parameters(problem))
        assert np.isfinite(final) and final < initial
        assert np.isfinite(problem.X).all()
        assert np.array_equal(problem.R[dropped], R)
        assert np.array_equal(problem.t[dropped], t)
        assert problem.f[dropped] == f


class TestBAMemory:
    def test_traced_peak_below_dense_coupling(self):
        # 120 cameras: a dense (points, cameras * 7, 3) coupling array alone
        # would take n_pts * 7 n_cams * 3 * 8 bytes
        n_cams, n_pts = 120, 1500
        model, store = ring_ba_model(n_cams, n_pts, seed=1)
        tracemalloc.start()
        try:
            stats = bundle_adjust(model, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.final_cost < stats.initial_cost
        assert peak < n_pts * CAM_PARAMS * n_cams * 3 * 8

    def test_pair_listing_follows_the_chunk(self):
        # long tracks: listing the camera pairs holds a chunk's pairs at a
        # time, never one int64 per pair of the whole problem
        model, store = ring_ba_model(60, 400, track=(45, 60), seed=2)
        problem, _, _ = problem_from_model(model, store)
        nc, npnt = problem.n_cams, problem.n_pts
        by_cam = _Segments.of(np.argsort(problem.cam_idx, kind="stable"), problem.cam_idx, nc)
        by_point = _Segments.of(np.lexsort((problem.cam_idx, problem.pt_idx)),
                                problem.pt_idx, npnt)
        n_pairs = int((by_point.counts * (by_point.counts + 1) // 2).sum())
        tracemalloc.start()
        try:
            chunks = _CameraPairChunks(problem.cam_idx, by_cam, by_point, nc)
            listed = sum(len(ob) for ob, _, _, _, _ in chunks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert listed == n_pairs
        assert peak < n_pairs * 8
