import numpy as np
import pytest

from msfm.errors import DegenerateGeometryError, InsufficientDataError
from msfm.evaluate import align_models, mean_camera_distance, umeyama
from msfm.model import Camera, Model

from conftest import random_rotation


def transformed_copy(model, scale, Q, shift):
    """The same cameras seen in a world remapped by X' = scale * Q X + shift."""
    out = Model()
    for image_id, cam in model.cameras.items():
        R_new = cam.R @ Q.T
        t_new = scale * cam.t - R_new @ shift
        out.attach_camera(Camera(K=cam.K, R=R_new, t=t_new, image_id=image_id))
    return out


class TestUmeyama:
    def test_recovers_known_transform(self):
        rng = np.random.default_rng(1)
        src = rng.normal(size=(20, 3))
        Q = random_rotation(rng)
        s, t = 2.5, np.array([1.0, -2.0, 0.5])
        dst = s * src @ Q.T + t
        sim = umeyama(src, dst)
        assert sim.scale == pytest.approx(s)
        assert np.allclose(sim.R, Q)
        assert np.allclose(sim.t, t)
        assert np.allclose(sim.apply(src), dst)


class TestAlignModels:
    def test_self_alignment_zero_errors(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        rep = align_models(model, model)
        assert rep.transform.scale == pytest.approx(1.0)
        assert rep.mean_rotation_deg < 1e-5
        assert rep.mean_translation_abs < 1e-9
        assert len(rep.image_ids) == len(model.cameras)

    def test_reads_a_rotation_of_1e_7_degrees(self, tiny_scene):
        # the arccos of the trace reads no angle below 8.5e-7 deg; the chord does
        from msfm.ba import rodrigues
        model = tiny_scene.ground_truth_model()
        turned = Model()
        for image_id, cam in model.cameras.items():
            R = cam.R
            if image_id == 3:
                R = rodrigues(np.radians(1e-7) * np.array([0.6, 0.0, 0.8])) @ cam.R
            turned.attach_camera(Camera(K=cam.K, R=R, t=-R @ cam.center(), image_id=image_id))
        rep = align_models(turned, model)
        errors = dict(zip(rep.image_ids, rep.rotation_errors_deg))
        assert abs(errors.pop(3) - 1e-7) < 1e-9
        assert max(errors.values()) < 1e-9

    def test_similarity_invariance(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        rng = np.random.default_rng(2)
        Q = random_rotation(rng)
        copy = transformed_copy(model, 2.0, Q, np.array([3.0, 4.0, 5.0]))
        rep = align_models(copy, model)
        assert rep.mean_rotation_deg < 1e-5
        assert rep.mean_translation_rel < 1e-9
        assert rep.transform.scale == pytest.approx(0.5)  # maps back down

    def test_reported_errors_invariant_under_transform(self, ring_scene):
        # perturb a model, then apply a similarity: the report is unchanged
        gt = ring_scene.ground_truth_model()
        rng = np.random.default_rng(3)
        noisy = Model()
        for image_id, cam in gt.cameras.items():
            from msfm.ba import rodrigues
            dR = rodrigues(rng.normal(0, 0.001, 3))
            noisy.attach_camera(Camera(K=cam.K, R=dR @ cam.R,
                                       t=cam.t + rng.normal(0, 0.01, 3),
                                       image_id=image_id))
        rep1 = align_models(noisy, gt)
        Q = random_rotation(rng)
        moved = transformed_copy(noisy, 3.0, Q, np.array([-1.0, 2.0, 0.0]))
        rep2 = align_models(moved, gt)
        assert np.allclose(rep1.rotation_errors_deg, rep2.rotation_errors_deg,
                           atol=1e-9)
        assert np.allclose(rep1.translation_errors_abs, rep2.translation_errors_abs,
                           atol=1e-9)

    def test_too_few_common_cameras(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        small = Model()
        ids = model.image_ids()[:2]
        for image_id in ids:
            small.attach_camera(model.cameras[image_id])
        with pytest.raises(InsufficientDataError):
            align_models(small, model)

    def test_collinear_centers_degenerate(self):
        ref = Model()
        est = Model()
        K = np.array([[900.0, 0, 512], [0, 900.0, 384], [0, 0, 1.0]])
        for i in range(4):
            center = np.array([float(i), 0.0, 0.0])
            cam = Camera(K=K, R=np.eye(3), t=-center, image_id=i)
            ref.attach_camera(cam)
            est.attach_camera(Camera(K=K, R=np.eye(3), t=-center, image_id=i))
        with pytest.raises(DegenerateGeometryError):
            align_models(est, ref)

    def test_outlier_cameras_ignored_by_ransac(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        rng = np.random.default_rng(4)
        broken = Model()
        ids = model.image_ids()
        for image_id in ids:
            cam = model.cameras[image_id]
            if image_id == ids[-1]:
                # one camera far off: must not drag the transform
                broken.attach_camera(Camera(K=cam.K, R=cam.R,
                                            t=cam.t + np.array([50.0, 0, 0]),
                                            image_id=image_id))
            else:
                broken.attach_camera(Camera(K=cam.K, R=cam.R, t=cam.t,
                                            image_id=image_id))
        rep = align_models(broken, model)
        good = [k for k, i in enumerate(rep.image_ids) if i != ids[-1]]
        assert rep.translation_errors_abs[good].max() < 1e-9


class TestMeanCameraDistance:
    def test_two_cameras(self):
        centers = np.array([[0.0, 0, 0], [3.0, 4.0, 0]])
        assert mean_camera_distance(centers) == pytest.approx(5.0)
