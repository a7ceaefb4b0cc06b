"""Model-to-reference alignment and camera error reports.

A similarity transform (scale, rotation, translation) is estimated over the
common camera centres with RANSAC on 3-camera samples, each solved in closed
form, then refit on the inliers.  Rotation errors are the residual angles
after alignment, read from the chord ||R_a - R_b||_F = 2 sqrt(2) sin(angle / 2)
(the trace's arccos reads 0 below 8.5e-7 deg); translation errors are reported
both absolutely and relative to the reference's mean inter-camera distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InsufficientDataError
from .model import Model

ALIGN_INLIER_FRACTION = 0.05
ALIGN_SAMPLES = 256


@dataclass
class Similarity:
    scale: float
    R: np.ndarray
    t: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(X) @ self.R.T) + self.t


@dataclass
class AlignmentReport:
    transform: Similarity
    image_ids: list[int]
    rotation_errors_deg: np.ndarray
    translation_errors_abs: np.ndarray
    translation_errors_rel: np.ndarray
    reference_mean_cam_distance: float

    @property
    def mean_rotation_deg(self) -> float:
        return float(self.rotation_errors_deg.mean())

    @property
    def median_rotation_deg(self) -> float:
        return float(np.median(self.rotation_errors_deg))

    @property
    def mean_translation_abs(self) -> float:
        return float(self.translation_errors_abs.mean())

    @property
    def median_translation_abs(self) -> float:
        return float(np.median(self.translation_errors_abs))

    @property
    def mean_translation_rel(self) -> float:
        return float(self.translation_errors_rel.mean())

    @property
    def median_translation_rel(self) -> float:
        return float(np.median(self.translation_errors_rel))

    def lines(self) -> list[str]:
        return [
            f"aligned_cameras={len(self.image_ids)}",
            f"scale={self.transform.scale:.9g}",
            f"rot_err_deg_mean={self.mean_rotation_deg:.6f}",
            f"rot_err_deg_median={self.median_rotation_deg:.6f}",
            f"trans_err_abs_mean={self.mean_translation_abs:.6g}",
            f"trans_err_abs_median={self.median_translation_abs:.6g}",
            f"trans_err_rel_mean={self.mean_translation_rel:.6g}",
            f"trans_err_rel_median={self.median_translation_rel:.6g}",
        ]


def umeyama(src: np.ndarray, dst: np.ndarray) -> Similarity:
    """Closed-form similarity with dst ~ s R src + t (least squares)."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cs = src - mu_s
    cd = dst - mu_d
    cov = cd.T @ cs / len(src)
    U, S, Vt = np.linalg.svd(cov)
    sign = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        sign[2, 2] = -1.0
    R = U @ sign @ Vt
    var_s = (cs ** 2).sum() / len(src)
    scale = float((S @ np.diag(sign).T).sum() / max(var_s, 1e-30))
    t = mu_d - scale * R @ mu_s
    return Similarity(scale=scale, R=R, t=t)


def mean_camera_distance(centers: np.ndarray) -> float:
    """Mean pairwise distance between camera centres."""
    n = len(centers)
    diffs = centers[:, None, :] - centers[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    iu = np.triu_indices(n, k=1)
    return float(dist[iu].mean())


def _collinear(pts: np.ndarray) -> bool:
    v1 = pts[1] - pts[0]
    v2 = pts[2] - pts[0]
    cross = np.linalg.norm(np.cross(v1, v2))
    scale = max(np.linalg.norm(v1) * np.linalg.norm(v2), 1e-30)
    return cross < 1e-9 * scale


def align_models(estimated: Model, reference: Model) -> AlignmentReport:
    """Align the estimated model onto the reference and report camera errors."""
    common = sorted(set(estimated.cameras) & set(reference.cameras))
    if len(common) < 3:
        raise InsufficientDataError(f"only {len(common)} cameras in common")
    est_centers = np.stack([estimated.cameras[i].center() for i in common])
    ref_centers = np.stack([reference.cameras[i].center() for i in common])
    ref_dist = mean_camera_distance(ref_centers)
    threshold = ALIGN_INLIER_FRACTION * ref_dist

    rng = np.random.default_rng(0)
    n = len(common)
    best_mask = None
    best_count = -1
    degenerate_only = True
    for _ in range(ALIGN_SAMPLES):
        pick = rng.choice(n, size=3, replace=False)
        if _collinear(ref_centers[pick]) or _collinear(est_centers[pick]):
            continue
        degenerate_only = False
        sim = umeyama(est_centers[pick], ref_centers[pick])
        err = np.linalg.norm(sim.apply(est_centers) - ref_centers, axis=1)
        mask = err < threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
        if count == n:
            break
    if best_mask is None or best_count < 3:
        if degenerate_only:
            raise DegenerateGeometryError("all camera-centre samples are collinear")
        raise DegenerateGeometryError("alignment found no inlier consensus")
    sim = umeyama(est_centers[best_mask], ref_centers[best_mask])

    R_al = np.stack([estimated.cameras[i].R for i in common]) @ sim.R.T
    R_ref = np.stack([reference.cameras[i].R for i in common])
    chord = np.linalg.norm(R_al - R_ref, axis=(1, 2)) / (2.0 * np.sqrt(2.0))
    rot_err = np.degrees(2.0 * np.arcsin(np.minimum(chord, 1.0)))
    trans_abs = np.linalg.norm(sim.apply(est_centers) - ref_centers, axis=1)
    return AlignmentReport(
        transform=sim,
        image_ids=common,
        rotation_errors_deg=rot_err,
        translation_errors_abs=trans_abs,
        translation_errors_rel=trans_abs / max(ref_dist, 1e-30),
        reference_mean_cam_distance=ref_dist,
    )
