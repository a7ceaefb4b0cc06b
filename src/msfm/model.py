"""Reconstruction state: cameras, 3D points, tracks and one ownership index.

Next to the tracks (point -> image -> feature), the model keeps their inverse:
one map per registered image from feature id to the point that owns it.
Every mutator goes through attach_camera / add_point / extend_track /
remove_point, so the index can never drift from the tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyRegisteredError, NotRegisteredError


@dataclass(frozen=True, order=True)
class FeatureRef:
    """(image, feature) handle; feature_id indexes the image's FeatureSet."""

    image_id: int
    feature_id: int


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
        xc = X @ self.R.T + self.t
        depths = xc[:, 2]
        uv = xc @ self.K.T
        return uv[:, :2] / uv[:, 2:3], depths


def make_intrinsics(focal: float, cx: float, cy: float) -> np.ndarray:
    return np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])


@dataclass
class Point3D:
    """World point with its observing track (at most one feature per image)."""

    position: np.ndarray
    track: dict[int, int] = field(default_factory=dict)  # image_id -> feature_id
    mean_descriptor: np.ndarray | None = None

    def refs(self) -> list[FeatureRef]:
        return [FeatureRef(i, f) for i, f in sorted(self.track.items())]

    def track_length(self) -> int:
        return len(self.track)


class Model:
    """Cameras plus points, with the feature -> point map of each image."""

    def __init__(self, stage_tag: str = ""):
        self.cameras: dict[int, Camera] = {}
        self.points: dict[int, Point3D] = {}
        self.stage_tag = stage_tag
        self._next_point_id = 0
        self._owner: dict[int, dict[int, int]] = {}  # image -> feature -> point

    # -- queries ---------------------------------------------------------

    def is_registered(self, image_id: int) -> bool:
        return image_id in self.cameras

    def image_ids(self) -> list[int]:
        return sorted(self.cameras)

    def point_ids(self) -> list[int]:
        return sorted(self.points)

    def owner(self, ref: FeatureRef) -> int | None:
        return self._owner.get(ref.image_id, {}).get(ref.feature_id)

    def tracked(self, image_id: int) -> dict[int, int]:
        """Feature id -> point map of a registered image: live, not to be mutated."""
        try:
            return self._owner[image_id]
        except KeyError:
            raise NotRegisteredError(f"image {image_id} is not registered") from None

    def points_visible_in(self, image_id: int) -> set[int]:
        return set(self.tracked(image_id).values())

    # -- mutators (serialized merge step only) ----------------------------

    def attach_camera(self, camera: Camera, inliers=()) -> int:
        """Register a camera and extend the listed tracks with its features.

        Returns the number of dropped conflicting correspondences (feature
        already owned, or the point already observed in this image).  A
        rejected call (duplicate registration, bad references) mutates
        nothing.
        """
        image_id = camera.image_id
        if image_id in self.cameras:
            raise AlreadyRegisteredError(f"image {image_id} already registered")
        for point_id, ref in inliers:
            if point_id not in self.points:
                raise KeyError(f"unknown point id {point_id}")
            if ref.image_id != image_id:
                raise ValueError(f"{ref} does not belong to image {image_id}")
        self.cameras[image_id] = camera
        owned = self._owner[image_id] = {}
        conflicts = 0
        for point_id, ref in inliers:
            if ref.feature_id in owned or image_id in self.points[point_id].track:
                conflicts += 1
                continue
            self._link(point_id, ref)
        return conflicts

    def add_point(self, position: np.ndarray, refs) -> int:
        """Create a point from >= 2 single-image observations; returns its id."""
        refs = list(refs)
        images = {r.image_id for r in refs}
        if len(refs) < 2 or len(images) < len(refs):
            raise ValueError("a track needs >= 2 features from distinct images")
        for r in refs:
            if r.image_id not in self.cameras:
                raise NotRegisteredError(f"image {r.image_id} is not registered")
            owner = self._owner[r.image_id].get(r.feature_id)
            if owner is not None:
                raise ValueError(f"{r} already belongs to point {owner}")
        point_id = self._next_point_id
        self._next_point_id += 1
        self.points[point_id] = Point3D(position=np.asarray(position, dtype=np.float64).copy())
        for r in refs:
            self._link(point_id, r)
        return point_id

    def extend_track(self, point_id: int, ref: FeatureRef) -> bool:
        """Add one observation to a track; returns False on conflict."""
        point = self.points[point_id]
        if ref.image_id not in self.cameras:
            raise NotRegisteredError(f"image {ref.image_id} is not registered")
        if ref.feature_id in self._owner[ref.image_id] or ref.image_id in point.track:
            return False
        self._link(point_id, ref)
        return True

    def set_position(self, point_id: int, position: np.ndarray) -> None:
        self.points[point_id].position = np.asarray(position, dtype=np.float64).copy()

    def remove_point(self, point_id: int) -> None:
        point = self.points.pop(point_id)
        for image_id, feature_id in point.track.items():
            del self._owner[image_id][feature_id]

    def _link(self, point_id: int, ref: FeatureRef) -> None:
        self.points[point_id].track[ref.image_id] = ref.feature_id
        self.points[point_id].mean_descriptor = None  # track grew, cache stale
        self._owner[ref.image_id][ref.feature_id] = point_id

    # -- integrity ---------------------------------------------------------

    def check_consistency(self) -> None:
        """Exhaustive invariant check (tests); raises AssertionError on drift."""
        assert self._owner.keys() == self.cameras.keys()
        for pid, point in self.points.items():
            assert len(point.track) >= 2, f"point {pid} has a short track"
            for image_id, feature_id in point.track.items():
                owner = self._owner.get(image_id, {}).get(feature_id)
                assert owner == pid, f"{image_id}:{feature_id} of point {pid} owned by {owner}"
        # every track entry is indexed, so equal counts leave no stale entry
        n_obs = sum(len(point.track) for point in self.points.values())
        assert sum(map(len, self._owner.values())) == n_obs


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


def reprojection_errors(model: Model, feature_store) -> np.ndarray:
    """Per-observation reprojection error in pixels over every track."""
    if not model.points:
        return np.zeros(0)
    return np.linalg.norm(_observations(model, feature_store).residuals(), axis=1)


def model_stats(model: Model, feature_store) -> StatsReport:
    """Camera/point counts, reprojection errors and connected-pair count."""
    errors = np.zeros(0)
    n_points3 = connected_pairs = 0
    if model.points:
        obs = _observations(model, feature_store)
        errors = np.linalg.norm(obs.residuals(), axis=1)
        lengths = np.bincount(obs.pt_idx)
        n_points3 = int((lengths >= 3).sum())
        # observations come grouped by point, cameras ascending: pair each
        # with the later observations of its track, count distinct pairs as
        # the run starts of one sort (np.unique hashes, and is far slower)
        later = np.cumsum(lengths)[obs.pt_idx] - 1 - np.arange(obs.n_obs)
        first = np.repeat(np.arange(obs.n_obs), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        keys = np.sort(obs.cam_idx[first] * obs.n_cams + obs.cam_idx[second])
        connected_pairs = int(keys.size > 0) + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return StatsReport(
        n_cameras=len(model.cameras),
        n_points=len(model.points),
        n_points3=n_points3,
        reproj_mean=float(errors.mean()) if errors.size else 0.0,
        reproj_median=float(np.median(errors)) if errors.size else 0.0,
        connected_pairs=connected_pairs,
    )
