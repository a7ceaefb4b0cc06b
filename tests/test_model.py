import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msfm.errors import AlreadyRegisteredError, NotRegisteredError
from msfm.io import read_model, write_model
from msfm.model import (
    Camera,
    Model,
    covisible_pairs,
    make_intrinsics,
    model_stats,
    pixel_jacobian,
    pixels,
)

from conftest import random_camera
from model_oracles import (
    check_consistency,
    exact_store,
    points_visible_in,
    reprojection_errors,
    track_length,
)


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


def camera_frame_points(rng, shape):
    """Points (*shape, 3) in front of a camera, within a 90 degree cone."""
    z = rng.uniform(0.5, 20.0, shape)
    return np.stack([rng.uniform(-z, z), rng.uniform(-z, z), z], axis=-1)


class TestPinholeModel:
    @given(shape=st.lists(st.integers(1, 4), max_size=3), per_point_f=st.booleans(),
           per_point_pp=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pixels_and_jacobian(self, shape, per_point_f, per_point_pp, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(shape)
        xc = camera_frame_points(rng, shape)
        f = rng.uniform(100.0, 3000.0, shape) if per_point_f else rng.uniform(100.0, 3000.0)
        pp = rng.uniform(0.0, 2000.0, shape + (2,) if per_point_pp else (2,))
        uv = pixels(xc, f, pp)
        assert uv.shape == shape + (2,)
        # an independent projection: K (3, 3) per point, x ~ K xc
        f_all = np.broadcast_to(f, shape).reshape(-1)
        pp_all = np.broadcast_to(pp, shape + (2,)).reshape(-1, 2)
        for i, (x, fi, (cx, cy)) in enumerate(zip(xc.reshape(-1, 3), f_all, pp_all)):
            h = make_intrinsics(fi, cx, cy) @ x
            assert np.abs(h[:2] / h[2] - uv.reshape(-1, 2)[i]).max() < 1e-9
        # d pixel / d xc against central differences
        J = pixel_jacobian(xc, f)
        assert J.shape == shape + (2, 3)
        step = 1e-6 * np.linalg.norm(xc, axis=-1)[..., None]
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            numeric = (pixels(xc + step * e, f, pp) - pixels(xc - step * e, f, pp)) / (2 * step)
            assert np.allclose(J[..., j], numeric, rtol=1e-6, atol=1e-6)

    def test_project_is_pixels_of_its_camera_frame(self):
        rng = np.random.default_rng(4)
        cam = random_camera(rng)
        X = cam.center() + camera_frame_points(rng, (50,)) @ cam.R
        uv, depth = cam.project(X)
        xc = np.einsum("ij,nj->ni", cam.R, X) + cam.t
        assert np.array_equal(uv, pixels(xc, cam.K[0, 0], cam.K[:2, 2]))
        assert np.array_equal(depth, xc[:, 2])


class TestVisibilityQueries:
    def test_empty_model_raises(self):
        model = Model()
        with pytest.raises(NotRegisteredError):
            points_visible_in(model, 0)

    def test_single_point_two_images(self):
        model = simple_model(2)
        pid = model.add_point(np.zeros(3), [(0, 4), (1, 9)])
        assert points_visible_in(model, 0) == {pid}
        assert points_visible_in(model, 1) == {pid}

    def test_visibility_matches_track_scan(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        for image_id in model.image_ids():
            expected = {
                pid for pid, point in model.points.items()
                if image_id in point.track
            }
            assert points_visible_in(model, image_id) == expected


def tracks_oracle(model):
    """Image -> feature -> point, rebuilt from the tracks alone."""
    tracked = {image_id: {} for image_id in model.cameras}
    for pid, point in model.points.items():
        for image_id, feature_id in point.track.items():
            tracked[image_id][feature_id] = pid
    return tracked


class TestOwnershipIndex:
    N_FEATURES = 4  # few features per image, so refs collide and get reused

    def assert_index_matches_tracks(self, model):
        tracked = tracks_oracle(model)
        for image_id in model.image_ids():
            assert model.tracked(image_id) == tracked[image_id]
            assert points_visible_in(model, image_id) == set(tracked[image_id].values())
            for feature_id in range(self.N_FEATURES):
                assert (model.tracked(image_id).get(feature_id)
                        == tracked[image_id].get(feature_id))
        check_consistency(model)
        expected = [(pid, i, f) for pid in sorted(model.points)
                    for i, f in sorted(model.points[pid].track.items())]
        columns = model.observations()
        assert all(c.dtype == np.int64 for c in columns)
        assert list(zip(*(c.tolist() for c in columns))) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_mutations_match_track_oracle(self, data):
        rng = np.random.default_rng(0)
        model = simple_model(2, rng)
        feature = st.integers(0, self.N_FEATURES - 1)
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            op = data.draw(st.sampled_from(["attach", "add", "extend", "remove"]), label="op")
            images = model.image_ids()
            pids = sorted(model.points)
            tracked = tracks_oracle(model)
            if op == "attach":
                image_id = images[-1] + 1
                inliers = data.draw(st.lists(st.tuples(st.sampled_from(pids), feature),
                                             max_size=6), label="inliers") if pids else []
                # a claim conflicts when an earlier linked claim took its
                # feature or its point
                taken, seen, conflicts = set(), set(), 0
                for pid, feature_id in inliers:
                    if feature_id in taken or pid in seen:
                        conflicts += 1
                    else:
                        taken.add(feature_id)
                        seen.add(pid)
                assert model.attach_camera(random_camera(rng, image_id=image_id),
                                           inliers) == conflicts
            elif op == "add":
                chosen = data.draw(st.lists(st.sampled_from(images), min_size=2, max_size=3,
                                            unique=True), label="images")
                pairs = [(i, data.draw(feature, label="feature")) for i in chosen]
                if any(f in tracked[i] for i, f in pairs):
                    with pytest.raises(ValueError):
                        model.add_point(np.zeros(3), pairs)
                else:
                    pid = model.add_point(np.zeros(3), pairs)
                    assert model.points[pid].track == dict(pairs)
            elif op == "extend" and pids:
                pid = data.draw(st.sampled_from(pids), label="point")
                image_id = data.draw(st.sampled_from(images), label="image")
                feature_id = data.draw(feature, label="feature")
                free = (feature_id not in tracked[image_id]
                        and image_id not in model.points[pid].track)
                assert model.extend_track(pid, image_id, feature_id) == free
            elif op == "remove" and pids:
                model.remove_point(data.draw(st.sampled_from(pids), label="point"))
            self.assert_index_matches_tracks(model)
        # the file form keeps every track; point ids are renumbered in order
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.msfm"
            write_model(model, path)
            loaded = read_model(path)
        self.assert_index_matches_tracks(loaded)
        point, image, feature = model.observations()
        loaded_point, loaded_image, loaded_feature = loaded.observations()
        assert np.array_equal(np.searchsorted(model.point_ids(), point), loaded_point)
        assert np.array_equal(image, loaded_image)
        assert np.array_equal(feature, loaded_feature)

    def test_tracked_is_live_and_checks_registration(self):
        model = simple_model(2)
        owned = model.tracked(0)
        pid = model.add_point(np.zeros(3), [(0, 4), (1, 9)])
        assert owned == {4: pid}
        model.remove_point(pid)
        assert owned == {}
        with pytest.raises(NotRegisteredError):
            model.tracked(5)


class TestAttachCamera:
    def test_empty_inliers(self):
        rng = np.random.default_rng(5)
        model = simple_model(2, rng)
        n_before = {pid: track_length(p) for pid, p in model.points.items()}
        conflicts = model.attach_camera(random_camera(rng, image_id=7))
        assert conflicts == 0
        assert model.is_registered(7)
        assert {pid: track_length(p) for pid, p in model.points.items()} == n_before

    def test_twenty_inliers_grow_twenty_tracks(self):
        rng = np.random.default_rng(6)
        model = simple_model(2, rng)
        pids = [model.add_point(rng.normal(size=3),
                                [(0, i), (1, i)])
                for i in range(20)]
        inliers = [(pid, k) for k, pid in enumerate(pids)]
        model.attach_camera(random_camera(rng, image_id=9), inliers)
        for pid in pids:
            assert track_length(model.points[pid]) == 3
        check_consistency(model)

    def test_duplicate_registration_is_idempotent(self):
        rng = np.random.default_rng(7)
        model = simple_model(2, rng)
        pid = model.add_point(np.zeros(3), [(0, 0), (1, 0)])
        snapshot = copy.deepcopy(model)
        with pytest.raises(AlreadyRegisteredError):
            model.attach_camera(random_camera(rng, image_id=1),
                                [(pid, 5)])
        assert model.points[pid].track == snapshot.points[pid].track
        assert model.image_ids() == snapshot.image_ids()

    def test_conflicting_ref_dropped_not_fatal(self):
        rng = np.random.default_rng(8)
        model = simple_model(2, rng)
        p1 = model.add_point(np.zeros(3), [(0, 0), (1, 0)])
        p2 = model.add_point(np.ones(3), [(0, 1), (1, 1)])
        # feature (2, 3) claimed for both points: second claim drops
        conflicts = model.attach_camera(random_camera(rng, image_id=2),
                                        [(p1, 3), (p2, 3), (p2, 4)])
        assert conflicts == 1
        assert model.points[p1].track[2] == 3
        assert model.points[p2].track[2] == 4
        check_consistency(model)

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
            pairs = [(i, f) for i, f in sorted(point.track.items()) if i != held_out]
            if len(pairs) >= 2:
                kept[pid] = rebuilt.add_point(point.position, pairs)
        inliers = []
        for pid, point in model.points.items():
            if held_out in point.track and pid in kept:
                inliers.append((kept[pid], point.track[held_out]))
        rebuilt.attach_camera(model.cameras[held_out], inliers)
        expected = {
            kept[pid] for pid, point in model.points.items()
            if held_out in point.track and pid in kept
        }
        assert points_visible_in(rebuilt, held_out) == expected
        check_consistency(rebuilt)


class TestRevision:
    def test_every_mutator_bumps_revision(self):
        rng = np.random.default_rng(8)
        model = Model()
        assert model.revision == 0

        def bumps(change):
            before = model.revision
            out = change()
            assert model.revision > before
            return out

        for i in range(3):
            bumps(lambda: model.attach_camera(random_camera(rng, image_id=i)))
        pid = bumps(lambda: model.add_point(np.zeros(3), [(0, 1), (1, 1)]))
        bumps(lambda: model.attach_camera(random_camera(rng, image_id=3), [(pid, 4)]))
        assert bumps(lambda: model.extend_track(pid, 2, 5))
        bumps(lambda: model.set_position(pid, np.ones(3)))
        bumps(lambda: model.replace_camera(random_camera(rng, image_id=1)))
        bumps(lambda: model.remove_point(pid))

    def test_calls_that_change_nothing_keep_revision(self):
        rng = np.random.default_rng(9)
        model = simple_model(3, rng)
        pid = model.add_point(np.zeros(3), [(0, 1), (1, 1)])
        before = model.revision
        with pytest.raises(AlreadyRegisteredError):
            model.attach_camera(random_camera(rng, image_id=0))
        with pytest.raises(ValueError):
            model.add_point(np.zeros(3), [(0, 1), (2, 1)])
        with pytest.raises(NotRegisteredError):
            model.replace_camera(random_camera(rng, image_id=7))
        assert not model.extend_track(pid, 1, 2)
        model.stage_tag = "relabelled"
        model.observations()
        assert model.revision == before

    def test_replace_camera_keeps_tracks(self):
        rng = np.random.default_rng(10)
        model = simple_model(2, rng)
        pid = model.add_point(np.zeros(3), [(0, 3), (1, 4)])
        camera = random_camera(rng, image_id=1)
        model.replace_camera(camera)
        assert model.cameras[1] is camera
        assert model.tracked(1) == {4: pid}
        check_consistency(model)


class TestModelStats:
    def test_pts3_definition(self):
        rng = np.random.default_rng(9)
        model = simple_model(2, rng)
        model.add_point(np.zeros(3), [(0, 0), (1, 0)])

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
        errors = reprojection_errors(model, exact_store(tiny_scene))
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
        model.add_point(np.zeros(3), [(0, 0), (1, 0)])

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
                             [(0, 0), (1, 0), (2, 0)])
        p1 = model.add_point(np.array([1.0, 1.0, 10.0]),
                             [(0, 1), (1, 1)])

        planted = {
            (0, 0): 0.0, (1, 0): 0.0, (2, 0): 0.0,
            (0, 1): 1.0, (1, 1): 2.0,
        }

        class Store:
            def position(self, image_id, feature_ids):
                points = [model.points[p0 if f == 0 else p1].position for f in feature_ids]
                exact = model.cameras[image_id].project(np.stack(points))[0]
                return exact + [[planted[(image_id, f)], 0.0] for f in feature_ids]

        stats = model_stats(model, Store())
        assert stats.n_cameras == 3
        assert stats.n_points == 2
        assert stats.n_points3 == 1
        assert stats.reproj_mean == pytest.approx((0 + 0 + 0 + 1 + 2) / 5)
        assert stats.reproj_median == pytest.approx(0.0)
        assert stats.connected_pairs == 3  # (0,1), (0,2), (1,2)


class TestCovisiblePairs:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 7), min_size=2, max_size=6, unique=True),
                    max_size=25))
    def test_matches_set_intersections(self, tracks):
        model = simple_model(8)
        for k, images in enumerate(tracks):
            model.add_point(np.zeros(3), [(i, k) for i in images])
        point, image, _ = model.observations()
        a, b, shared = covisible_pairs(point, image)
        assert all(c.dtype == np.int64 for c in (a, b, shared))
        seen = {i: points_visible_in(model, i) for i in model.image_ids()}
        expected = [(i, j, len(seen[i] & seen[j])) for i in seen for j in seen
                    if i < j and seen[i] & seen[j]]
        assert list(zip(a.tolist(), b.tolist(), shared.tolist())) == expected


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
        p1 = model.add_point(np.zeros(3), [(0, 0), (1, 0)])
        p2 = model.add_point(np.ones(3), [(0, 1), (1, 1)])
        assert model.extend_track(p1, 2, 0)
        assert not model.extend_track(p2, 2, 0)  # taken
        assert not model.extend_track(p1, 2, 5)  # image already in track
        check_consistency(model)
