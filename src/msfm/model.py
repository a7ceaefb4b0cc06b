"""Reconstruction state: cameras, 3D points, tracks and one ownership index.

The pinhole model is written once, here: ``pixels`` projects camera-frame
points and ``pixel_jacobian`` is its derivative; resection, triangulation
and bundle adjustment each form their own camera-frame points R X + t and
call these two.

Next to the tracks (point -> image -> feature), the model keeps their inverse:
one map per registered image from feature id to the point that owns it.
Every change goes through attach_camera / replace_camera / add_point /
extend_track / set_position / remove_point, so the index can never drift
from the tracks, and each change bumps ``Model.revision``: two reads at one
revision see the same cameras, points and tracks.  Observations
go in as (image, feature) pairs or (point, feature) rows of one image, and
come out as one array view, ``Model.observations()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import AlreadyRegisteredError, NotRegisteredError


@dataclass
class Camera:
    """Pinhole camera: x ~ K (R X + t), centre at -R^T t."""

    K: np.ndarray
    R: np.ndarray
    t: np.ndarray
    image_id: int

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=np.float64).reshape(3, 3)
        self.R = np.asarray(self.R, dtype=np.float64).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)
        if abs(np.linalg.det(self.R) - 1.0) > 1e-9:
            raise ValueError(f"camera {self.image_id}: det(R) = {np.linalg.det(self.R)}")
        if self.K[2, 2] != 1.0:
            raise ValueError(f"camera {self.image_id}: K[2][2] must be 1")

    def center(self) -> np.ndarray:
        return -self.R.T @ self.t

    def project(self, X: np.ndarray):
        """Project world points (n,3); returns (pixels (n,2), depths (n,))."""
        X = np.asarray(X, dtype=np.float64).reshape(-1, 3)
        xc = np.einsum("ij,nj->ni", self.R, X) + self.t  # R X + t as BA forms it
        return pixels(xc, self.K[0, 0], self.K[:2, 2]), xc[:, 2]


def pixels(xc: np.ndarray, f, pp) -> np.ndarray:
    """Pinhole pixels (..., 2) of camera-frame points ``xc`` (..., 3).

    ``f`` is the focal length, a scalar or an array over the leading axes
    of ``xc``, and ``pp`` the principal point, broadcast against (..., 2).
    """
    return np.asarray(f)[..., None] * xc[..., :2] / xc[..., 2:3] + pp


def pixel_jacobian(xc: np.ndarray, f) -> np.ndarray:
    """d pixel / d camera-frame point (..., 2, 3) of ``pixels`` at ``xc``."""
    x, y, z = xc[..., 0], xc[..., 1], xc[..., 2]
    J = np.zeros((*xc.shape[:-1], 2, 3))
    J[..., 0, 0] = J[..., 1, 1] = f / z
    J[..., 0, 2] = -f * x / z ** 2
    J[..., 1, 2] = -f * y / z ** 2
    return J


def make_intrinsics(focal: float, cx: float, cy: float) -> np.ndarray:
    return np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])


@dataclass
class Point3D:
    """World point with its observing track (at most one feature per image)."""

    position: np.ndarray
    track: dict[int, int] = field(default_factory=dict)  # image_id -> feature_id


class Model:
    """Cameras plus points, with the feature -> point map of each image."""

    def __init__(self, stage_tag: str = ""):
        self.cameras: dict[int, Camera] = {}
        self.points: dict[int, Point3D] = {}
        self.stage_tag = stage_tag  # a label, outside the revision count
        self.revision = 0
        self._next_point_id = 0
        self._owner: dict[int, dict[int, int]] = {}  # image -> feature -> point

    # -- queries ---------------------------------------------------------

    def is_registered(self, image_id: int) -> bool:
        return image_id in self.cameras

    def image_ids(self) -> list[int]:
        return sorted(self.cameras)

    def point_ids(self) -> list[int]:
        return sorted(self.points)

    def tracked(self, image_id: int) -> dict[int, int]:
        """Feature id -> point map of a registered image: live, not to be mutated."""
        try:
            return self._owner[image_id]
        except KeyError:
            raise NotRegisteredError(f"image {image_id} is not registered") from None

    def observations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point, image, feature) int64 columns of every track entry,
        grouped by point in id order, images ascending within a track."""
        tracks = [p.track for p in self.points.values()]
        lengths = list(map(len, tracks))
        n = sum(lengths)
        point = np.repeat(np.fromiter(self.points, np.int64, len(tracks)), lengths)
        image = np.fromiter(chain.from_iterable(tracks), np.int64, n)
        feature = np.fromiter(chain.from_iterable(map(dict.values, tracks)), np.int64, n)
        # keys are unique; a stable sort is the fast one on the nearly sorted order
        order = np.argsort(point << 32 | image, kind="stable")
        return point[order], image[order], feature[order]

    # -- mutators (serialized merge step only) ----------------------------

    def attach_camera(self, camera: Camera, rows=()) -> int:
        """Register a camera and extend tracks with its features.

        ``rows`` are (point_id, feature_id) pairs of this image, such as the
        (n, 2) inlier array of a resection.  Returns the number of dropped
        conflicting rows (feature already owned, or the point already
        observed in this image).  A rejected call (duplicate registration,
        unknown point) mutates nothing.
        """
        image_id = camera.image_id
        if image_id in self.cameras:
            raise AlreadyRegisteredError(f"image {image_id} already registered")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2).tolist()
        for point_id, _ in rows:
            if point_id not in self.points:
                raise KeyError(f"unknown point id {point_id}")
        self.cameras[image_id] = camera
        self.revision += 1
        owned = self._owner[image_id] = {}
        conflicts = 0
        for point_id, feature_id in rows:
            if feature_id in owned or image_id in self.points[point_id].track:
                conflicts += 1
                continue
            self._link(point_id, image_id, feature_id)
        return conflicts

    def replace_camera(self, camera: Camera) -> None:
        """Give a registered image a new camera; its observations stay."""
        if camera.image_id not in self.cameras:
            raise NotRegisteredError(f"image {camera.image_id} is not registered")
        self.cameras[camera.image_id] = camera
        self.revision += 1

    def add_point(self, position: np.ndarray, pairs) -> int:
        """Create a point from >= 2 (image_id, feature_id) pairs of distinct
        registered images; returns its id."""
        pairs = list(pairs)
        if len(pairs) < 2 or len({i for i, _ in pairs}) < len(pairs):
            raise ValueError("a track needs >= 2 features from distinct images")
        for image_id, feature_id in pairs:
            if image_id not in self.cameras:
                raise NotRegisteredError(f"image {image_id} is not registered")
            owner = self._owner[image_id].get(feature_id)
            if owner is not None:
                raise ValueError(f"feature {image_id}:{feature_id} already belongs "
                                 f"to point {owner}")
        point_id = self._next_point_id
        self._next_point_id += 1
        self.revision += 1
        self.points[point_id] = Point3D(position=np.asarray(position, dtype=np.float64).copy())
        for image_id, feature_id in pairs:
            self._link(point_id, image_id, feature_id)
        return point_id

    def extend_track(self, point_id: int, image_id: int, feature_id: int) -> bool:
        """Add one observation to a track; returns False on conflict."""
        point = self.points[point_id]
        if image_id not in self.cameras:
            raise NotRegisteredError(f"image {image_id} is not registered")
        if feature_id in self._owner[image_id] or image_id in point.track:
            return False
        self._link(point_id, image_id, feature_id)
        self.revision += 1
        return True

    def set_position(self, point_id: int, position: np.ndarray) -> None:
        self.points[point_id].position = np.asarray(position, dtype=np.float64).copy()
        self.revision += 1

    def remove_point(self, point_id: int) -> None:
        point = self.points.pop(point_id)
        self.revision += 1
        for image_id, feature_id in point.track.items():
            del self._owner[image_id][feature_id]

    def _link(self, point_id: int, image_id: int, feature_id: int) -> None:
        self.points[point_id].track[image_id] = feature_id
        self._owner[image_id][feature_id] = point_id


@dataclass
class StatsReport:
    n_cameras: int
    n_points: int
    n_points3: int
    reproj_mean: float
    reproj_median: float
    connected_pairs: int

    def lines(self) -> list[str]:
        return [
            f"cameras={self.n_cameras}",
            f"points={self.n_points}",
            f"points3+={self.n_points3}",
            f"reproj_mean_px={self.reproj_mean:.6f}",
            f"reproj_median_px={self.reproj_median:.6f}",
            f"connected_pairs={self.connected_pairs}",
        ]


def _observations(model: Model, feature_store):
    """The model's observation arrays, as bundle adjustment sees them."""
    from .ba import problem_from_model  # ba builds on this module

    return problem_from_model(model, feature_store)[0]


def covisible_pairs(point: np.ndarray, image: np.ndarray):
    """(a, b, shared) int64 arrays over every image pair a < b that shares
    points, sorted by (a, b); ``shared`` counts the points both observe.

    ``point`` and ``image`` are observation columns grouped by point,
    images ascending within a track (``Model.observations()``'s order).
    """
    n = len(point)
    # pair each observation with the later ones of its track, then count
    # each pair as a run of one sort (np.unique hashes, and is far slower)
    later = np.cumsum(np.bincount(point))[point] - 1 - np.arange(n)
    first = np.repeat(np.arange(n), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    keys = np.sort(image[first] << 32 | image[second])
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    shared = np.diff(starts, append=len(keys))
    return keys[starts] >> 32, keys[starts] & 0xFFFFFFFF, shared


def model_stats(model: Model, feature_store) -> StatsReport:
    """Camera/point counts, reprojection errors and connected-pair count."""
    errors = np.zeros(0)
    n_points3 = connected_pairs = 0
    if model.points:
        obs = _observations(model, feature_store)
        errors = np.linalg.norm(obs.residuals(), axis=1)
        n_points3 = int((np.bincount(obs.pt_idx) >= 3).sum())
        connected_pairs = len(covisible_pairs(obs.pt_idx, obs.cam_idx)[2])
    return StatsReport(
        n_cameras=len(model.cameras),
        n_points=len(model.points),
        n_points3=n_points3,
        reproj_mean=float(errors.mean()) if errors.size else 0.0,
        reproj_median=float(np.median(errors)) if errors.size else 0.0,
        connected_pairs=connected_pairs,
    )
