import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msfm.ba import rodrigues
from msfm.errors import DegenerateGeometryError, InsufficientDataError
from msfm.geometry import (
    estimate_fundamental_ransac,
    fundamental_from_poses,
    ransac_stop_count,
    relative_pose_from_fundamental,
    sampson_distance,
    triangulate_track,
)
from msfm.model import Camera, make_intrinsics

from conftest import random_rotation
from line_oracles import EpipolarLine, epipolar_line, point_line_distance


def covisible_cloud(rng, cam_q, cam_c, n=100, depth_center=None):
    """World points projecting inside both images with positive depth."""
    if depth_center is None:
        depth_center = (cam_q.center() + cam_c.center()) / 2.0 + np.array([0, 0, 0])
    pts = []
    while len(pts) < n:
        X = depth_center + rng.normal(0, 0.5, size=3)
        ok = True
        for cam in (cam_q, cam_c):
            uv, z = cam.project(X)
            if z[0] <= 0.1 or not (0 <= uv[0, 0] < 2 * cam.K[0, 2]) or not (
                    0 <= uv[0, 1] < 2 * cam.K[1, 2]):
                ok = False
        if ok:
            pts.append(X)
    return np.stack(pts)


def facing_pair(rng, baseline=1.0):
    """Two cameras near the origin looking down +z with a sideways offset."""
    K = make_intrinsics(900.0, 512.0, 384.0)
    R_q = random_rotation(rng) if False else np.eye(3)
    cam_q = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
    dR = _small_rotation(rng, 0.1)
    center = np.array([baseline, 0.2, 0.1])
    cam_c = Camera(K=K, R=dR, t=-dR @ center, image_id=1)
    return cam_q, cam_c


def _small_rotation(rng, scale):
    from msfm.ba import rodrigues
    return rodrigues(rng.normal(0, scale, 3))


class TestFundamentalFromPoses:
    def test_pure_x_baseline_horizontal_lines(self):
        K = np.eye(3)
        cam_q = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        cam_c = Camera(K=K, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]), image_id=1)
        F = fundamental_from_poses(cam_q, cam_c)
        line = epipolar_line(F, (5.0, 7.0))
        # (0, -1, y) up to scale: horizontal line y' = 7
        assert abs(line.a) < 1e-12
        assert abs(line.c / line.b - (-7.0)) < 1e-9

    def test_epipolar_constraint_on_synthetic_points(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            cam_q, cam_c = facing_pair(rng)
            pts = covisible_cloud(rng, cam_q, cam_c, n=100,
                                  depth_center=np.array([0.5, 0.0, 6.0]))
            F = fundamental_from_poses(cam_q, cam_c)
            pq, _ = cam_q.project(pts)
            pc, _ = cam_c.project(pts)
            # residuals on the normalized-coordinate scale
            E = cam_c.K.T @ F @ cam_q.K
            E = E / np.linalg.norm(E)
            hq = np.hstack([pq, np.ones((100, 1))]) @ np.linalg.inv(cam_q.K).T
            hc = np.hstack([pc, np.ones((100, 1))]) @ np.linalg.inv(cam_c.K).T
            hq /= np.linalg.norm(hq, axis=1, keepdims=True)
            hc /= np.linalg.norm(hc, axis=1, keepdims=True)
            res = np.einsum("ij,jk,ik->i", hc, E, hq)
            assert np.abs(res).max() < 1e-9

    def test_swap_gives_transpose_up_to_sign(self):
        rng = np.random.default_rng(5)
        cam_q, cam_c = facing_pair(rng)
        F_qc = fundamental_from_poses(cam_q, cam_c)
        F_cq = fundamental_from_poses(cam_c, cam_q)
        diff = min(np.abs(F_cq - F_qc.T).max(), np.abs(F_cq + F_qc.T).max())
        assert diff < 1e-12

    def test_rank_two(self):
        rng = np.random.default_rng(7)
        cam_q, cam_c = facing_pair(rng)
        F = fundamental_from_poses(cam_q, cam_c)
        s = np.linalg.svd(F, compute_uv=False)
        assert s[2] / s[0] < 1e-6

    def test_coincident_centers_raise(self):
        K = make_intrinsics(900.0, 512.0, 384.0)
        cam_q = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        rng = np.random.default_rng(0)
        R2 = _small_rotation(rng, 0.2)
        cam_c = Camera(K=K, R=R2, t=np.zeros(3), image_id=1)  # same centre
        with pytest.raises(DegenerateGeometryError):
            fundamental_from_poses(cam_q, cam_c)


class TestEpipolarLine:
    def test_from_worked_example(self):
        K = np.eye(3)
        cam_q = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        cam_c = Camera(K=K, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]), image_id=1)
        F = fundamental_from_poses(cam_q, cam_c)
        line = epipolar_line(F, (5.0, 7.0))
        assert point_line_distance((3.0, 7.0), line) < 1e-12

    def test_true_correspondence_on_line(self):
        rng = np.random.default_rng(9)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=50,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        F = fundamental_from_poses(cam_q, cam_c)
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        for i in range(50):
            line = epipolar_line(F, pq[i])
            assert point_line_distance(pc[i], line) < 1e-6

    def test_epipole_raises(self):
        rng = np.random.default_rng(11)
        cam_q, cam_c = facing_pair(rng)
        F = fundamental_from_poses(cam_q, cam_c)
        # right null vector of F is the epipole in the query image
        _, _, Vt = np.linalg.svd(F)
        e = Vt[-1]
        e = e / e[2]
        with pytest.raises(DegenerateGeometryError):
            epipolar_line(F, (e[0], e[1]))


class TestPointLineDistance:
    def test_point_on_line(self):
        line = EpipolarLine(0.6, 0.8, -5.0)
        p = (3.0, (5.0 - 0.6 * 3.0) / 0.8)
        assert point_line_distance(p, line) < 1e-12

    def test_vertical_offset(self):
        line = EpipolarLine(0.0, -1.0, 7.0)
        assert point_line_distance((3.0, 10.0), line) == pytest.approx(3.0)

    def test_matches_projection_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            theta = rng.uniform(0, 2 * np.pi)
            a, b = np.cos(theta), np.sin(theta)
            c = rng.uniform(-100, 100)
            line = EpipolarLine(a, b, c)
            p = rng.uniform(-50, 50, size=2)
            # oracle: distance via explicit projection onto the line
            n = np.array([a, b])
            p0 = -c * n  # closest point of the line to the origin
            proj = p - (p - p0) @ n * n
            assert point_line_distance(p, line) == pytest.approx(
                np.linalg.norm(p - proj), abs=1e-9)

    def test_invalid_line(self):
        with pytest.raises(DegenerateGeometryError):
            point_line_distance((0.0, 0.0), EpipolarLine(0.0, 0.0, 1.0))


class TestRansacStopCount:
    def test_closed_form(self):
        # ceil(log(1 - 0.999) / log(1 - 0.5**8)) = 1765
        assert ransac_stop_count(0.5, 8, 0.999, 10_000) == 1765
        assert ransac_stop_count(0.5, 8, 0.999, 100) == 100

    def test_tiny_inlier_share_returns_max_iters(self):
        # 1 - (1/133)**8 rounds to 1.0, so log gives 0 and no finite count exists
        assert 1.0 - (1 / 133) ** 8 == 1.0
        assert ransac_stop_count(1 / 133, 8, 0.999, 2048) == 2048


class TestEstimateFundamentalRansac:
    def test_exact_minimal_fit(self):
        rng = np.random.default_rng(17)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=8,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        F, mask = estimate_fundamental_ransac([(pq, pc, 1)])[0]
        assert mask.all()
        hq = np.hstack([pq, np.ones((8, 1))])
        hc = np.hstack([pc, np.ones((8, 1))])
        res = np.einsum("ij,jk,ik->i", hc / 1000.0, F, hq / 1000.0)
        assert np.abs(res).max() < 1e-6

    def test_outlier_recall(self):
        rng = np.random.default_rng(19)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=200,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        pq += rng.normal(0, 0.5, pq.shape)
        pc += rng.normal(0, 0.5, pc.shape)
        outliers = rng.choice(200, size=60, replace=False)
        truth = np.ones(200, dtype=bool)
        truth[outliers] = False
        pc[outliers] = rng.uniform(0, [1024, 768], size=(60, 2))
        F, mask = estimate_fundamental_ransac([(pq, pc, 2)])[0]
        recall = (mask & truth).sum() / truth.sum()
        assert recall >= 0.95

    def test_too_few_matches(self):
        with pytest.raises(InsufficientDataError):
            estimate_fundamental_ransac([(np.zeros((7, 2)), np.zeros((7, 2)), 0)])

    def test_planar_scene_still_valid(self):
        rng = np.random.default_rng(23)
        cam_q, cam_c = facing_pair(rng)
        # points on a plane z = 6 + 0.3x + 0.1y
        xy = rng.uniform(-1, 1, size=(50, 2))
        pts = np.column_stack([xy, 6.0 + 0.3 * xy[:, 0] + 0.1 * xy[:, 1]])
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        F, mask = estimate_fundamental_ransac([(pq, pc, 3)])[0]
        sd = sampson_distance(F, pq, pc)
        assert sd.max() < 1e-3

    def test_agrees_with_pose_fundamental(self):
        rng = np.random.default_rng(29)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=120,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        est, _ = estimate_fundamental_ransac([(pq, pc, 4)])[0]
        true = fundamental_from_poses(cam_q, cam_c)
        diff = min(np.linalg.norm(est - true), np.linalg.norm(est + true))
        assert diff < 1e-6

    def test_incidence_symmetry(self):
        rng = np.random.default_rng(31)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=30,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        F = fundamental_from_poses(cam_q, cam_c)
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        for i in range(30):
            d1 = point_line_distance(pc[i], epipolar_line(F, pq[i]))
            d2 = point_line_distance(pq[i], epipolar_line(F.T, pc[i]))
            assert abs(d1 - d2) < 1e-6


class TestRelativePose:
    def test_recovers_synthetic_pose(self):
        rng = np.random.default_rng(37)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=60,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        F = fundamental_from_poses(cam_q, cam_c)
        R, t, count, _ = relative_pose_from_fundamental(F, cam_q.K, cam_c.K, pq, pc)
        R_true = cam_c.R @ cam_q.R.T
        t_true = cam_c.t - R_true @ cam_q.t
        t_true = t_true / np.linalg.norm(t_true)
        rot_err = np.degrees(np.arccos(np.clip((np.trace(R @ R_true.T) - 1) / 2, -1, 1)))
        dir_err = np.degrees(np.arccos(np.clip(abs(t @ t_true), -1, 1)))
        assert rot_err < 0.01
        assert dir_err < 0.01
        assert count == 60

    def test_pure_rotation_degenerate(self):
        rng = np.random.default_rng(41)
        K = make_intrinsics(900.0, 512.0, 384.0)
        cam_q = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        R2 = _small_rotation(rng, 0.05)
        cam_c = Camera(K=K, R=R2, t=np.zeros(3), image_id=1)
        pts = covisible_cloud(rng, cam_q, cam_c, n=40,
                              depth_center=np.array([0.0, 0.0, 6.0]))
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        F, _ = estimate_fundamental_ransac([(pq, pc, 5)])[0]
        with pytest.raises(DegenerateGeometryError):
            relative_pose_from_fundamental(F, K, K, pq, pc)

    def test_unique_cheirality_winner(self):
        rng = np.random.default_rng(43)
        cam_q, cam_c = facing_pair(rng)
        pts = covisible_cloud(rng, cam_q, cam_c, n=40,
                              depth_center=np.array([0.5, 0.0, 6.0]))
        pq, _ = cam_q.project(pts)
        pc, _ = cam_c.project(pts)
        F = fundamental_from_poses(cam_q, cam_c)
        _, _, count, _ = relative_pose_from_fundamental(F, cam_q.K, cam_c.K, pq, pc)
        assert count == 40  # the winning candidate places everything in front


def cameras_on_arc(n):
    """n cameras on an arc, all looking at (0, 0, 6)."""
    cams = []
    K = make_intrinsics(900.0, 512.0, 384.0)
    for i in range(n):
        angle = -0.4 + 0.8 * i / max(n - 1, 1)
        center = np.array([6.0 * np.sin(angle), 0.3 * i, -6.0 * np.cos(angle) + 6.0])
        forward = np.array([0.0, 0.0, 6.0]) - center
        forward /= np.linalg.norm(forward)
        up = np.array([0.0, 1.0, 0.0])
        right = np.cross(forward, up)
        right /= np.linalg.norm(right)
        down = np.cross(forward, right)
        R = np.stack([right, down, forward])
        cams.append(Camera(K=K, R=R, t=-R @ center, image_id=i))
    return cams


def triangulate_one(obs, **gates):
    """``triangulate_track`` on one track of (Camera, pixel) observations."""
    points, errors, ok = triangulate_track({c.image_id: c for c, _ in obs},
                                           [[c.image_id for c, _ in obs]],
                                           [[uv for _, uv in obs]], **gates)
    return points[0], errors[0], bool(ok[0])


class TestTriangulateTrack:
    def test_two_view_exact(self):
        cams = cameras_on_arc(2)
        X = np.array([0.3, -0.2, 6.1])
        obs = [(c, c.project(X)[0][0]) for c in cams]
        point, error, ok = triangulate_one(obs)
        assert ok
        assert np.linalg.norm(point - X) < 1e-8
        assert error < 1e-8

    def test_more_views_beat_two_views(self):
        # Monte-Carlo: median error over trials, 5 views vs 2 views
        rng = np.random.default_rng(53)
        cams = cameras_on_arc(5)
        truth, pixels = [], []
        for _ in range(80):
            X = np.array([0.3, -0.2, 6.1]) + rng.normal(0, 0.2, 3)
            truth.append(X)
            pixels.append([c.project(X)[0][0] + rng.normal(0, 0.5, 2) for c in cams])
        truth, pixels = np.array(truth), np.array(pixels)
        by_id = {c.image_id: c for c in cams}
        images = np.tile(np.arange(5), (80, 1))
        t2, _, ok2 = triangulate_track(by_id, images[:, :2], pixels[:, :2],
                                       max_error=np.inf, min_angle_deg=0.0)
        t5, _, ok5 = triangulate_track(by_id, images, pixels,
                                       max_error=np.inf, min_angle_deg=0.0)
        assert ok2.all() and ok5.all()
        err2 = np.linalg.norm(t2 - truth, axis=1)
        err5 = np.linalg.norm(t5 - truth, axis=1)
        assert np.median(err5) < np.median(err2)

    def test_small_angle_rejected(self):
        K = make_intrinsics(900.0, 512.0, 384.0)
        cam_a = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        # a 0.5 degree triangulation angle: baseline chosen for depth 10
        baseline = 2.0 * 10.0 * np.tan(np.radians(0.25))
        cam_b = Camera(K=K, R=np.eye(3), t=np.array([-baseline, 0.0, 0.0]), image_id=1)
        X = np.array([baseline / 2.0, 0.0, 10.0])
        obs = [(cam_a, cam_a.project(X)[0][0]), (cam_b, cam_b.project(X)[0][0])]
        assert not triangulate_one(obs)[2]

    def test_negative_depth_rejected(self):
        K = make_intrinsics(900.0, 512.0, 384.0)
        cam_a = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        cam_b = Camera(K=K, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]), image_id=1)
        # diverging rays intersect behind the cameras
        obs = [(cam_a, np.array([100.0, 384.0])), (cam_b, np.array([900.0, 384.0]))]
        assert not triangulate_one(obs, min_angle_deg=0.0)[2]

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(59)
        cams = cameras_on_arc(4)
        for _ in range(40):
            X = np.array([0.0, 0.0, 6.0]) + rng.normal(0, 0.3, 3)
            obs = [(c, c.project(X)[0][0] + rng.normal(0, 1.0, 2)) for c in cams]
            _, error, ok = triangulate_one(obs, max_error=np.inf, min_angle_deg=0.0)
            # DLT-only solution for comparison
            A = []
            for c, uv in obs:
                P = c.K @ np.hstack([c.R, c.t.reshape(3, 1)])
                A.append(uv[0] * P[2] - P[0])
                A.append(uv[1] * P[2] - P[1])
            _, _, Vt = np.linalg.svd(np.stack(A))
            Xd = Vt[-1][:3] / Vt[-1][3]
            dlt_err = np.mean([
                np.linalg.norm(c.project(Xd)[0][0] - uv) for c, uv in obs])
            assert ok
            assert error <= dlt_err + 1e-12

    def test_identical_centers_rejected(self):
        # one centre under three rotations sees one point: rejected as
        # degenerate even with the error and angle gates off
        K = make_intrinsics(900.0, 512.0, 384.0)
        center = np.array([0.4, -0.4, 1.9])
        cams = [Camera(K=K, R=rodrigues(w), t=-rodrigues(w) @ center, image_id=i)
                for i, w in enumerate(np.array([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0.05]]))]
        X = center + np.array([0.2, -0.1, 5.0])
        obs = [(c, c.project(X)[0][0]) for c in cams]
        assert not triangulate_one(obs, max_error=np.inf, min_angle_deg=0.0)[2]

    def test_parallel_rays_rejected(self):
        # one pixel under a pure translation: the rays meet at infinity
        K = make_intrinsics(900.0, 512.0, 384.0)
        cams = [Camera(K=K, R=np.eye(3), t=np.array([-float(i), 0.0, 0.0]), image_id=i)
                for i in range(2)]
        obs = [(c, np.array([500.0, 400.0])) for c in cams]
        assert not triangulate_one(obs, max_error=np.inf, min_angle_deg=0.0)[2]

    def test_one_observation_raises(self):
        cam = cameras_on_arc(1)[0]
        with pytest.raises(InsufficientDataError):
            triangulate_track({0: cam}, [[0]], [[[1.0, 2.0]]])


def _gate_rig():
    """Cameras for every gate: an arc, a 0.06 degree cluster, one shared
    centre under five rotations, and five translated copies of one pose."""
    K = make_intrinsics(900.0, 512.0, 384.0)
    cams = cameras_on_arc(6)
    cams += [Camera(K=K, R=np.eye(3), t=np.array([-0.002 * i, 0.0, 0.0]), image_id=10 + i)
             for i in range(5)]
    cams += [Camera(K=K, R=random_rotation(np.random.default_rng(i)), t=np.zeros(3),
                    image_id=20 + i) for i in range(5)]
    cams += [Camera(K=K, R=np.eye(3), t=np.array([-0.5 * i, 0.1 * i, 0.0]), image_id=30 + i)
             for i in range(5)]
    return {c.image_id: c for c in cams}


GATE_RIG = _gate_rig()
# the outcome each kind of track must get from the default gates
TRACK_KINDS = {"good": True, "noisy": False, "small_angle": False, "behind": False,
               "shared_centre": False, "parallel": False}


def gate_track(kind: str, k: int, rng):
    """(image ids, pixels) of one k-observation track of the given kind."""
    if kind == "shared_centre":
        ids = 20 + np.arange(k)
        return ids, rng.uniform(0.0, 1000.0, (k, 2))
    if kind == "parallel":
        # one pixel in pure translations: the rays meet at infinity
        return 30 + np.arange(k), np.tile(rng.uniform(100.0, 900.0, 2), (k, 1))
    ids = (10 if kind == "small_angle" else 0) + rng.permutation(5)[:k]
    X = np.array([0.0, 0.0, 6.0]) + rng.normal(0.0, 0.3, 3)
    if kind == "small_angle":
        X = np.array([0.0, 0.0, 10.0]) + rng.normal(0.0, 0.3, 3)
    if kind == "behind":
        X = np.array([0.0, 0.0, -6.0]) + rng.normal(0.0, 0.3, 3)
    pix = np.stack([GATE_RIG[i].project(X)[0][0] for i in ids.tolist()])
    if kind == "noisy":
        pix[0, 1] += 200.0  # across the epipolar lines: no point fits
    return ids, pix + rng.normal(0.0, 0.3, pix.shape)


def loop_triangulate(obs, max_error=4.0, min_angle_deg=1.0):
    """Reference: one track, one observation at a time; (point, error) or None."""
    cams = [c for c, _ in obs]
    pix = np.array([uv for _, uv in obs], dtype=np.float64)
    centers = np.stack([c.center() for c in cams])
    if np.all(np.linalg.norm(centers - centers[0], axis=1) < 1e-12):
        return None
    A = []
    for c, uv in zip(cams, pix):
        P = c.K @ np.hstack([c.R, c.t.reshape(3, 1)])
        A += [uv[0] * P[2] - P[0], uv[1] * P[2] - P[1]]
    Xh = np.linalg.svd(np.array(A))[2][-1]
    if abs(Xh[3]) < 1e-12 * np.linalg.norm(Xh[:3]):
        return None
    X = Xh[:3] / Xh[3]

    def reproject(Xw):
        res, depths = np.full((len(cams), 2), np.inf), np.zeros(len(cams))
        for i, c in enumerate(cams):
            xc = c.R @ Xw + c.t
            depths[i] = xc[2]
            if xc[2] > 1e-12:
                res[i] = c.K[0, 0] * xc[:2] / xc[2] + c.K[:2, 2] - pix[i]
        err = np.mean(np.linalg.norm(res, axis=1)) if np.isfinite(res).all() else np.inf
        return err, depths

    err, depths = reproject(X)
    if np.isfinite(err):
        J, r = [], []
        for c, uv in zip(cams, pix):
            x, y, z = c.R @ X + c.t
            f = c.K[0, 0]
            J.append(np.array([[f / z, 0.0, -f * x / (z * z)],
                               [0.0, f / z, -f * y / (z * z)]]) @ c.R)
            r.append(f * np.array([x, y]) / z + c.K[:2, 2] - uv)
        J, r = np.vstack(J), np.concatenate(r)
        H = J.T @ J + 1e-12 * np.eye(3)
        try:
            X_new = X + np.linalg.solve(H, -(J.T @ r))
            err_new, depths_new = reproject(X_new)
            if err_new <= err:
                X, err, depths = X_new, err_new, depths_new
        except np.linalg.LinAlgError:
            pass
    rays = X - centers
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    cosang = rays @ rays.T
    np.fill_diagonal(cosang, 1.0)
    angle = np.degrees(np.arccos(np.clip(cosang.min(), -1.0, 1.0)))
    if not np.isfinite(err) or (depths <= 0).any() or err > max_error or angle < min_angle_deg:
        return None
    return X, err


class TestStackedTriangulation:
    @given(k=st.integers(2, 5),
           kinds=st.lists(st.sampled_from(sorted(TRACK_KINDS)), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_one_track_stacks(self, k, kinds, seed):
        rng = np.random.default_rng(seed)
        tracks = [gate_track(kind, k, rng) for kind in kinds]
        images = np.stack([ids for ids, _ in tracks])
        pixels = np.stack([pix for _, pix in tracks])
        points, errors, ok = triangulate_track(GATE_RIG, images, pixels)
        assert ok.tolist() == [TRACK_KINDS[kind] for kind in kinds]
        for i in range(len(kinds)):
            one_point, one_error, one_ok = triangulate_track(GATE_RIG, images[i:i + 1],
                                                             pixels[i:i + 1])
            reference = loop_triangulate([(GATE_RIG[j], uv) for j, uv in
                                          zip(images[i].tolist(), pixels[i])])
            assert one_ok[0] == ok[i] == (reference is not None)
            if ok[i]:
                # a failing track elsewhere in the stack changes no bit
                assert one_point[0].tobytes() == points[i].tobytes() == reference[0].tobytes()
                assert one_error[0].tobytes() == errors[i].tobytes() == reference[1].tobytes()
