"""Synthetic scenes with exact ground truth for testing every stage.

A scene fixes cameras, world points, per-point descriptors and visibility,
then renders per-image feature sets with controlled pixel and descriptor
noise.  Repetition groups share one base descriptor (think rows of windows),
which is what defeats the plain ratio test and motivates guided matching.
Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .features import DESCRIPTOR_DIM, FeatureSet, FeatureStore, write_features
from .model import Camera, Model, make_intrinsics

SCALE_LEVELS = 24  # 8 octaves x 3 intervals


@dataclass
class SceneSpec:
    n_cameras: int = 20
    layout: str = "ring"  # ring | grid | sphere_cap
    n_points: int = 2000
    image_width: int = 1024
    image_height: int = 768
    focal: float = 900.0
    ring_radius: float = 6.0
    cloud_radius: float = 2.0
    pixel_noise: float = 0.0
    descriptor_noise: float = 0.0
    repetition_groups: int = 0
    repetition_group_size: int = 0
    visibility_fraction: float = 1.0
    clutter_per_image: int = 0
    seed: int = 0

    def validate(self) -> None:
        """Reject a spec that ``generate_scene`` cannot draw, naming the field."""
        if self.layout not in ("ring", "grid", "sphere_cap"):
            raise ConfigError(f"layout must be ring, grid or sphere_cap, got {self.layout!r}")
        for name in ("n_cameras", "n_points", "repetition_groups", "repetition_group_size",
                     "clutter_per_image"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.repetition_groups * self.repetition_group_size > self.n_points:
            raise ConfigError(
                f"repetition_groups x repetition_group_size must be <= n_points, got "
                f"{self.repetition_groups} x {self.repetition_group_size} > {self.n_points}")


@dataclass
class SyntheticScene:
    spec: SceneSpec
    cameras: list[Camera]
    points: np.ndarray                  # (n_points, 3)
    group_of_point: np.ndarray          # (n_points,) repetition group id, -1 = unique
    base_descriptors: np.ndarray        # (n_points, 128) uint8 (group members share rows)
    feature_sets: dict[int, FeatureSet]
    point_of_feature: dict[int, np.ndarray]  # image_id -> (n_features,) point id, -1 = clutter
    warnings: list[str] = field(default_factory=list)

    # -- oracle queries ----------------------------------------------------

    def store(self) -> FeatureStore:
        return FeatureStore(self.feature_sets)

    def feature_of_point(self, image_id: int, point_id: int) -> int | None:
        hits = np.flatnonzero(self.point_of_feature[image_id] == point_id)
        return int(hits[0]) if hits.size else None

    def triangulable_points(self) -> set[int]:
        """Points observed in at least two images."""
        counts = np.zeros(len(self.points), dtype=np.int64)
        for table in self.point_of_feature.values():
            seen = np.unique(table[table >= 0])
            counts[seen] += 1
        return set(np.flatnonzero(counts >= 2).astype(int))

    def ground_truth_model(self) -> Model:
        """Model holding every camera and every point with >= 2 observations."""
        model = Model(stage_tag="ground_truth")
        for cam in self.cameras:
            model.attach_camera(cam)
        for pid in sorted(self.triangulable_points()):
            track = []
            for image_id in sorted(self.feature_sets):
                fid = self.feature_of_point(image_id, pid)
                if fid is not None:
                    track.append((image_id, fid))
            model.add_point(self.points[pid], track)
        return model


def _camera_positions(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.n_cameras
    if spec.layout == "ring":
        theta = 2.0 * np.pi * np.arange(n) / n
        return np.stack([
            spec.ring_radius * np.cos(theta),
            spec.ring_radius * np.sin(theta),
            0.3 * np.sin(3.0 * theta),
        ], axis=1)
    if spec.layout == "grid":
        side = int(np.ceil(np.sqrt(n)))
        ix, iy = np.meshgrid(np.arange(side), np.arange(side))
        flat = np.stack([ix.ravel(), iy.ravel()], axis=1)[:n].astype(np.float64)
        span = spec.ring_radius
        pos = np.zeros((n, 3))
        pos[:, 0] = (flat[:, 0] / max(side - 1, 1) - 0.5) * span
        pos[:, 2] = (flat[:, 1] / max(side - 1, 1) - 0.5) * span
        pos[:, 1] = -spec.ring_radius
        return pos
    if spec.layout == "sphere_cap":
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        cos_cap = np.cos(np.pi / 3.0)
        z = rng.uniform(cos_cap, 1.0, size=n)
        s = np.sqrt(1.0 - z ** 2)
        return spec.ring_radius * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    raise ValueError(f"unknown layout {spec.layout!r}")


def _look_at(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera rotation with +z looking from position toward target."""
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(forward @ up) > 0.98:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def _sample_scale_levels(rng: np.random.Generator, n: int) -> np.ndarray:
    # twice as many features on each finer level
    weights = 2.0 ** -np.arange(SCALE_LEVELS, dtype=np.float64)
    weights /= weights.sum()
    return rng.choice(SCALE_LEVELS, size=n, p=weights)


def level_to_scale(levels: np.ndarray, jitter: np.ndarray | None = None) -> np.ndarray:
    lv = levels.astype(np.float64)
    if jitter is not None:
        lv = lv + jitter
    return (1.6 * 2.0 ** (lv / 3.0)).astype(np.float32)


def generate_scene(spec: SceneSpec) -> SyntheticScene:
    """Build the scene: cameras, points, descriptors, rendered feature sets."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    positions = _camera_positions(spec, rng)
    cameras = []
    K = make_intrinsics(spec.focal, spec.image_width / 2.0, spec.image_height / 2.0)
    for i in range(spec.n_cameras):
        R = _look_at(positions[i], np.zeros(3))
        t = -R @ positions[i]
        cameras.append(Camera(K=K, R=R, t=t, image_id=i))

    # world points inside a ball, slightly flattened to stay in frame
    pts = rng.normal(size=(spec.n_points, 3))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12)
    pts *= spec.cloud_radius * rng.uniform(0.2, 1.0, size=(spec.n_points, 1)) ** (1.0 / 3.0)

    # outward normals drive the occlusion cone; points near the middle face up
    normals = pts.copy()
    small = np.linalg.norm(normals, axis=1) < 1e-9
    normals[small] = np.array([0.0, 0.0, 1.0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    group_of_point = np.full(spec.n_points, -1, dtype=np.int64)
    for g in range(spec.repetition_groups):
        lo = g * spec.repetition_group_size
        group_of_point[lo:lo + spec.repetition_group_size] = g

    base_descriptors = rng.integers(0, 256, size=(spec.n_points, DESCRIPTOR_DIM), dtype=np.uint8)
    for g in range(spec.repetition_groups):
        members = np.flatnonzero(group_of_point == g)
        base_descriptors[members] = base_descriptors[members[0]]

    point_levels = _sample_scale_levels(rng, spec.n_points)
    half_cone = spec.visibility_fraction * np.pi

    feature_sets: dict[int, FeatureSet] = {}
    point_of_feature: dict[int, np.ndarray] = {}
    warnings: list[str] = []
    w, h = spec.image_width, spec.image_height
    for cam in cameras:
        proj, depth = cam.project(pts)
        if spec.pixel_noise > 0:
            proj = proj + rng.normal(0.0, spec.pixel_noise, size=proj.shape)
        to_cam = cam.center()[None, :] - pts
        to_cam /= np.maximum(np.linalg.norm(to_cam, axis=1, keepdims=True), 1e-12)
        facing = np.einsum("ij,ij->i", normals, to_cam) >= np.cos(half_cone)
        in_frame = (
            (depth > 0.1)
            & (proj[:, 0] >= 0) & (proj[:, 0] < w)
            & (proj[:, 1] >= 0) & (proj[:, 1] < h)
        )
        visible = np.flatnonzero(facing & in_frame)
        if len(visible) < 8:
            warnings.append(f"camera {cam.image_id} sees only {len(visible)} points")
        n_feat = len(visible) + spec.clutter_per_image
        xy = np.zeros((n_feat, 2), dtype=np.float64)
        desc = np.zeros((n_feat, DESCRIPTOR_DIM), dtype=np.float64)
        point_ids = np.full(n_feat, -1, dtype=np.int64)
        xy[: len(visible)] = proj[visible]
        desc[: len(visible)] = base_descriptors[visible]
        point_ids[: len(visible)] = visible
        levels = np.concatenate([
            point_levels[visible],
            _sample_scale_levels(rng, spec.clutter_per_image),
        ])
        if spec.clutter_per_image:
            xy[len(visible):] = rng.uniform(0.0, [w - 1e-3, h - 1e-3],
                                            size=(spec.clutter_per_image, 2))
            desc[len(visible):] = rng.integers(0, 256,
                                               size=(spec.clutter_per_image, DESCRIPTOR_DIM))
        if spec.descriptor_noise > 0:
            desc = desc + rng.normal(0.0, spec.descriptor_noise, size=desc.shape)
        desc = np.clip(np.round(desc), 0, 255).astype(np.uint8)
        jitter = rng.uniform(-0.45, 0.45, size=n_feat)
        scale = level_to_scale(levels, jitter)
        orientation = rng.uniform(0.0, 2.0 * np.pi, size=n_feat).astype(np.float32)
        # order by descending scale up front so feature ids match loaded files
        order = np.argsort(-scale, kind="stable")
        fs = FeatureSet(
            image_id=cam.image_id, width=w, height=h,
            xy=np.ascontiguousarray(xy[order], dtype=np.float32),
            scale=np.ascontiguousarray(scale[order]),
            orientation=np.ascontiguousarray(orientation[order]),
            descriptors=np.ascontiguousarray(desc[order]),
        )
        feature_sets[cam.image_id] = fs
        point_of_feature[cam.image_id] = point_ids[order]

    return SyntheticScene(
        spec=spec, cameras=cameras, points=pts, group_of_point=group_of_point,
        base_descriptors=base_descriptors, feature_sets=feature_sets,
        point_of_feature=point_of_feature, warnings=warnings,
    )


def write_scene(scene: SyntheticScene, directory) -> None:
    """Write feature files, the ground-truth model and the correspondence table."""
    from .io import write_model

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for image_id in sorted(scene.feature_sets):
        write_features(scene.feature_sets[image_id], directory / f"image_{image_id:05d}.msft")
    write_model(scene.ground_truth_model(), directory / "ground_truth.msfm")
    with open(directory / "correspondences.txt", "w") as fh:
        fh.write("# image_id feature_id point_id\n")
        for image_id in sorted(scene.point_of_feature):
            table = scene.point_of_feature[image_id]
            for fid in range(len(table)):
                if table[fid] >= 0:
                    fh.write(f"{image_id} {fid} {int(table[fid])}\n")
