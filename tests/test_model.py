import copy

import numpy as np
import pytest

from msfm.errors import AlreadyRegisteredError, NotRegisteredError
from msfm.model import (
    Camera,
    FeatureRef,
    Model,
    model_stats,
    reprojection_errors,
)

from conftest import random_camera


def simple_model(n_cams=3, rng=None):
    rng = rng or np.random.default_rng(0)
    model = Model()
    for i in range(n_cams):
        model.attach_camera(random_camera(rng, image_id=i))
    return model


class TestCameraType:
    def test_rotation_validated(self):
        rng = np.random.default_rng(1)
        cam = random_camera(rng)
        with pytest.raises(ValueError):
            Camera(K=cam.K, R=cam.R * 1.01, t=cam.t, image_id=0)

    def test_k22_validated(self):
        rng = np.random.default_rng(2)
        cam = random_camera(rng)
        K = cam.K.copy()
        K[2, 2] = 2.0
        with pytest.raises(ValueError):
            Camera(K=K, R=cam.R, t=cam.t, image_id=0)

    def test_center_projection_consistency(self):
        rng = np.random.default_rng(3)
        cam = random_camera(rng)
        # the centre projects to a zero vector (undefined); a point along +z
        # of the camera frame lands on the principal point
        X = cam.center() + cam.R.T @ np.array([0.0, 0.0, 2.0])
        uv, depth = cam.project(X)
        assert depth[0] == pytest.approx(2.0)
        assert uv[0] == pytest.approx([cam.K[0, 2], cam.K[1, 2]])


class TestVisibilityQueries:
    def test_empty_model_raises(self):
        model = Model()
        with pytest.raises(NotRegisteredError):
            model.points_visible_in(0)

    def test_single_point_two_images(self):
        model = simple_model(2)
        pid = model.add_point(np.zeros(3), [FeatureRef(0, 4), FeatureRef(1, 9)])
        assert model.points_visible_in(0) == {pid}
        assert model.points_visible_in(1) == {pid}

    def test_visibility_matches_track_scan(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        for image_id in model.image_ids():
            expected = {
                pid for pid, point in model.points.items()
                if image_id in point.track
            }
            assert model.points_visible_in(image_id) == expected

    def test_covisible_self_is_full_visibility(self):
        model = simple_model(2)
        model.add_point(np.zeros(3), [FeatureRef(0, 1), FeatureRef(1, 1)])
        assert model.covisible_points(0, 0) == model.points_visible_in(0)

    def test_covisible_unregistered_raises(self):
        model = simple_model(2)
        with pytest.raises(NotRegisteredError):
            model.covisible_points(0, 5)

    def test_covisible_matches_oracle(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        ids = model.image_ids()
        for a in ids[:4]:
            for b in ids[:4]:
                expected = model.points_visible_in(a) & model.points_visible_in(b)
                assert model.covisible_points(a, b) == expected

    def test_disjoint_views_share_nothing(self):
        from msfm.synth import SceneSpec, generate_scene
        scene = generate_scene(SceneSpec(
            n_cameras=8, n_points=200, visibility_fraction=0.25, seed=5))
        model = scene.ground_truth_model()
        # opposite cameras on the ring see disjoint parts of the cloud
        assert model.covisible_points(0, 4) == set()


class TestAttachCamera:
    def test_empty_inliers(self):
        rng = np.random.default_rng(5)
        model = simple_model(2, rng)
        n_before = {pid: p.track_length() for pid, p in model.points.items()}
        conflicts = model.attach_camera(random_camera(rng, image_id=7))
        assert conflicts == 0
        assert model.is_registered(7)
        assert {pid: p.track_length() for pid, p in model.points.items()} == n_before

    def test_twenty_inliers_grow_twenty_tracks(self):
        rng = np.random.default_rng(6)
        model = simple_model(2, rng)
        pids = [model.add_point(rng.normal(size=3),
                                [FeatureRef(0, i), FeatureRef(1, i)])
                for i in range(20)]
        inliers = [(pid, FeatureRef(9, k)) for k, pid in enumerate(pids)]
        model.attach_camera(random_camera(rng, image_id=9), inliers)
        for pid in pids:
            assert model.points[pid].track_length() == 3
        model.check_consistency()

    def test_duplicate_registration_is_idempotent(self):
        rng = np.random.default_rng(7)
        model = simple_model(2, rng)
        pid = model.add_point(np.zeros(3), [FeatureRef(0, 0), FeatureRef(1, 0)])
        snapshot = copy.deepcopy(model)
        with pytest.raises(AlreadyRegisteredError):
            model.attach_camera(random_camera(rng, image_id=1),
                                [(pid, FeatureRef(1, 5))])
        assert model.points[pid].track == snapshot.points[pid].track
        assert model.image_ids() == snapshot.image_ids()

    def test_conflicting_ref_dropped_not_fatal(self):
        rng = np.random.default_rng(8)
        model = simple_model(2, rng)
        p1 = model.add_point(np.zeros(3), [FeatureRef(0, 0), FeatureRef(1, 0)])
        p2 = model.add_point(np.ones(3), [FeatureRef(0, 1), FeatureRef(1, 1)])
        # feature (2, 3) claimed for both points: second claim drops
        conflicts = model.attach_camera(
            random_camera(rng, image_id=2),
            [(p1, FeatureRef(2, 3)), (p2, FeatureRef(2, 3)), (p2, FeatureRef(2, 4))])
        assert conflicts == 1
        assert model.points[p1].track[2] == 3
        assert model.points[p2].track[2] == 4
        model.check_consistency()

    def test_oracle_visibility_after_attach(self, tiny_scene):
        scene = tiny_scene
        model = scene.ground_truth_model()
        held_out = max(model.image_ids())
        # rebuild without the last camera, then attach it with oracle inliers
        rebuilt = Model()
        for image_id in model.image_ids():
            if image_id != held_out:
                rebuilt.attach_camera(model.cameras[image_id])
        kept = {}
        for pid, point in model.points.items():
            refs = [FeatureRef(i, f) for i, f in sorted(point.track.items())
                    if i != held_out]
            if len(refs) >= 2:
                kept[pid] = rebuilt.add_point(point.position, refs)
        inliers = []
        for pid, point in model.points.items():
            if held_out in point.track and pid in kept:
                inliers.append((kept[pid], FeatureRef(held_out, point.track[held_out])))
        rebuilt.attach_camera(model.cameras[held_out], inliers)
        expected = {
            kept[pid] for pid, point in model.points.items()
            if held_out in point.track and pid in kept
        }
        assert rebuilt.points_visible_in(held_out) == expected
        rebuilt.check_consistency()


class TestModelStats:
    def test_pts3_definition(self):
        rng = np.random.default_rng(9)
        model = simple_model(2, rng)
        model.add_point(np.zeros(3), [FeatureRef(0, 0), FeatureRef(1, 0)])

        class FakeStore:
            def position(self, image_id, feature_id):
                cam = model.cameras[image_id]
                return cam.project(model.points[0].position)[0][0]

        stats = model_stats(model, FakeStore())
        assert stats.n_points == 1
        assert stats.n_points3 == 0
        assert stats.n_points3 <= stats.n_points

    def test_noise_free_reprojection(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        errors = reprojection_errors(model, tiny_scene.exact_store())
        assert errors.mean() < 1e-6

    def test_noisy_reprojection_in_band(self, ring_scene):
        model = ring_scene.ground_truth_model()
        stats = model_stats(model, ring_scene.store())
        assert 0.3 <= stats.reproj_median <= 1.0

    def test_matches_per_observation_reference(self, ring_scene):
        # reference: project every observation on its own, list every pair
        model = ring_scene.ground_truth_model()
        store = ring_scene.store()
        errors, pairs = [], set()
        for pid in model.point_ids():
            point = model.points[pid]
            ids = sorted(point.track)
            for image_id in ids:
                proj, _ = model.cameras[image_id].project(point.position)
                pix = store.position(image_id, point.track[image_id])
                errors.append(np.linalg.norm(proj[0] - pix))
            pairs |= {(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]}
        np.testing.assert_allclose(reprojection_errors(model, store), errors, rtol=0, atol=1e-9)
        stats = model_stats(model, store)
        assert stats.connected_pairs == len(pairs)
        assert stats.n_points3 == sum(len(p.track) >= 3 for p in model.points.values())
        assert stats.reproj_mean == pytest.approx(np.mean(errors), abs=1e-12)

    def test_connected_pairs_counts_sharing(self):
        rng = np.random.default_rng(10)
        model = simple_model(3, rng)
        model.add_point(np.zeros(3), [FeatureRef(0, 0), FeatureRef(1, 0)])

        class NullStore:
            def position(self, image_id, feature_id):
                return np.zeros(2)

        stats = model_stats(model, NullStore())
        assert stats.connected_pairs == 1  # only (0, 1)

    def test_hand_computed_toy_stats(self):
        # 3 cameras along x looking down +z, 2 points, observation errors
        # planted by hand: per-observation errors 1 px and 2 px on point 1
        from msfm.model import make_intrinsics

        K = make_intrinsics(100.0, 50.0, 50.0)
        model = Model()
        for i in range(3):
            model.attach_camera(Camera(K=K, R=np.eye(3),
                                       t=np.array([-float(i), 0.0, 0.0]),
                                       image_id=i))
        p0 = model.add_point(np.array([0.0, 0.0, 10.0]),
                             [FeatureRef(0, 0), FeatureRef(1, 0), FeatureRef(2, 0)])
        p1 = model.add_point(np.array([1.0, 1.0, 10.0]),
                             [FeatureRef(0, 1), FeatureRef(1, 1)])

        planted = {
            (0, 0): 0.0, (1, 0): 0.0, (2, 0): 0.0,
            (0, 1): 1.0, (1, 1): 2.0,
        }

        class Store:
            def position(self, image_id, feature_id):
                point = model.points[p0 if feature_id == 0 else p1]
                cam = model.cameras[image_id]
                exact = cam.project(point.position)[0][0]
                return exact + np.array([planted[(image_id, feature_id)], 0.0])

        stats = model_stats(model, Store())
        assert stats.n_cameras == 3
        assert stats.n_points == 2
        assert stats.n_points3 == 1
        assert stats.reproj_mean == pytest.approx((0 + 0 + 0 + 1 + 2) / 5)
        assert stats.reproj_median == pytest.approx(0.0)
        assert stats.connected_pairs == 3  # (0,1), (0,2), (1,2)


class TestTrackExclusivity:
    def test_no_ref_in_two_tracks(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        seen = set()
        for point in model.points.values():
            for image_id, feature_id in point.track.items():
                ref = (image_id, feature_id)
                assert ref not in seen
                seen.add(ref)

    def test_extend_track_conflict_returns_false(self):
        rng = np.random.default_rng(11)
        model = simple_model(3, rng)
        p1 = model.add_point(np.zeros(3), [FeatureRef(0, 0), FeatureRef(1, 0)])
        p2 = model.add_point(np.ones(3), [FeatureRef(0, 1), FeatureRef(1, 1)])
        assert model.extend_track(p1, FeatureRef(2, 0))
        assert not model.extend_track(p2, FeatureRef(2, 0))  # taken
        assert not model.extend_track(p1, FeatureRef(2, 5))  # image already in track
        model.check_consistency()
