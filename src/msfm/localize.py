"""Camera addition: register every unregistered image against a model snapshot.

Every attempt reads the same snapshot and none adds to it, so the images
register independently of one another: first direct 3D-2D matching of point
mean descriptors into the image's features, then, if that fails the
correspondence gate, ranked 2D-2D matching through the image's
best-connected localized neighbours.  Successful poses are applied in one
deterministic merge pass.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

import numpy as np

from .descriptors import two_nearest_bruteforce
from .errors import InsufficientDataError
from .matching import NO_ENTRIES, MatchGraph, RATIO_UNGUIDED, closest_one_to_one, ratio_filter
from .model import Camera, Model, Point3D
from .reconstruct import PNP_MIN_INLIERS, resect_image

log = logging.getLogger(__name__)

SET_COVER_K = 400
SET_COVER_ENGAGE_POINTS = 100_000
RANKED_TOP_K = 10
MIN_CORRESPONDENCES = 16
NO_CORRESPONDENCES = np.empty((0, 2), dtype=np.int64)


@dataclass
class SetCover:
    selected: list[int]
    k: int
    coverage: dict[int, int]  # image_id -> achieved coverage


@dataclass(eq=False)
class LocalizationResult:
    """One image's attempt; ``correspondences`` and the resection's
    ``inlier_refs`` among them hold (point_id, feature_id) rows."""

    image_id: int
    method: str  # "direct3d2d" | "ranked2d2d" | "failed"
    correspondences: np.ndarray = field(default_factory=NO_CORRESPONDENCES.copy)
    pose: Camera | None = None
    inliers: int = 0
    inlier_refs: np.ndarray = field(default_factory=NO_CORRESPONDENCES.copy)
    reason: str = ""


def mean_descriptor(point: Point3D, feature_store) -> np.ndarray:
    """Mean of the track's descriptors, cached on the point until it grows."""
    if point.mean_descriptor is None:
        descs = [
            feature_store.descriptor(image_id, feature_id).astype(np.float32)
            for image_id, feature_id in sorted(point.track.items())
        ]
        point.mean_descriptor = np.mean(descs, axis=0)
    return point.mean_descriptor


def compute_set_cover(model: Model, k: int = SET_COVER_K) -> SetCover:
    """Greedy point subset covering every camera k times (or to saturation).

    Picks the point covering the most not-yet-satisfied cameras; ties prefer
    longer tracks, then lower point ids.
    """
    if k < 1:
        raise ValueError(f"coverage target must be >= 1, got {k}")
    remaining = {image_id: k for image_id in model.cameras}
    pending = sorted(model.points)
    selected: list[int] = []
    coverage = {image_id: 0 for image_id in model.cameras}

    # lazy greedy: scores only decrease, so a stale top entry is re-scored
    def score(pid: int) -> int:
        return sum(1 for image_id in model.points[pid].track if remaining.get(image_id, 0) > 0)

    heap = [(-score(pid), -len(model.points[pid].track), pid) for pid in pending]
    heapq.heapify(heap)
    while heap:
        neg_s, neg_len, pid = heapq.heappop(heap)
        s = score(pid)
        if s == 0:
            continue
        if -neg_s != s:
            heapq.heappush(heap, (-s, neg_len, pid))
            continue
        selected.append(pid)
        for image_id in model.points[pid].track:
            if remaining.get(image_id, 0) > 0:
                remaining[image_id] -= 1
            coverage[image_id] = coverage.get(image_id, 0) + 1
        if all(v == 0 for v in remaining.values()):
            break
    return SetCover(selected=selected, k=k, coverage=coverage)


def direct_3d2d_search(model: Model, point_ids, image_fs, feature_store, *,
                       ratio: float = RATIO_UNGUIDED) -> np.ndarray:
    """Match covered points' mean descriptors into an image's features.

    Returns (n, 2) (point_id, feature_id) rows sorted by point; a feature
    backs at most one point.
    """
    point_ids = np.array(sorted(point_ids), dtype=np.int64)
    if len(point_ids) == 0 or len(image_fs) == 0:
        return NO_CORRESPONDENCES
    queries = np.stack([mean_descriptor(model.points[pid], feature_store)
                        for pid in point_ids.tolist()])
    dist, idx = two_nearest_bruteforce(queries, image_fs.descriptors_f32())
    rows, feats, d, _ = ratio_filter(dist, idx, ratio)
    return closest_one_to_one(point_ids[rows], feats, d)


def ranked_2d2d_search(model: Model, graph: MatchGraph, image_id: int, image_fs,
                       feature_store, *,
                       ratio: float = RATIO_UNGUIDED,
                       min_correspondences: int = MIN_CORRESPONDENCES) -> np.ndarray:
    """3D-2D correspondences via track features of well-matched neighbours.

    The localized neighbours are ranked by shared coarse matches; each
    neighbour's tracked 2D features, in (point, feature) order, act as
    proxies for their points.  Returns (n, 2) (point_id, feature_id) rows
    sorted by point, or none unless more than ``min_correspondences`` were
    found.  Raises InsufficientDataError when no localized neighbour exists.
    """
    neighbors = [
        (graph.match_count(image_id, other), -other, other)
        for other in graph.neighbors(image_id)
        if model.is_registered(other)
    ]
    if not neighbors:
        raise InsufficientDataError(f"image {image_id} has no localized neighbours")
    neighbors.sort(reverse=True)
    entries = [NO_ENTRIES]
    for _, _, other in neighbors[:RANKED_TOP_K]:
        tracked = model.tracked(other)
        feats, pids = (np.fromiter(v, np.int64, len(tracked)) for v in (tracked, tracked.values()))
        order = np.lexsort((feats, pids))
        queries = feature_store.sets[other].descriptors_f32()[feats[order]]
        dist, idx = two_nearest_bruteforce(queries, image_fs.descriptors_f32())
        rows, found, d, _ = ratio_filter(dist, idx, ratio)
        entries.append((pids[order][rows], found, d))
    corr = closest_one_to_one(*map(np.concatenate, zip(*entries)))
    if len(corr) <= min_correspondences:
        return NO_CORRESPONDENCES
    return corr


def localize_image(model: Model, graph: MatchGraph, image_id: int, feature_store,
                   intrinsics: np.ndarray, *,
                   cover_points=None,
                   ratio: float = RATIO_UNGUIDED,
                   min_correspondences: int = MIN_CORRESPONDENCES,
                   pnp_min_inliers: int = PNP_MIN_INLIERS,
                   seed: int = 0) -> LocalizationResult:
    """Pure function of (snapshot, image): direct search, then ranked fallback."""
    image_fs = feature_store.sets[image_id]
    points = cover_points if cover_points is not None else sorted(model.points)
    corr = direct_3d2d_search(model, points, image_fs, feature_store, ratio=ratio)
    method = "direct3d2d"
    if len(corr) <= min_correspondences:
        try:
            corr = ranked_2d2d_search(model, graph, image_id, image_fs, feature_store,
                                      ratio=ratio,
                                      min_correspondences=min_correspondences)
        except InsufficientDataError:
            corr = NO_CORRESPONDENCES
        method = "ranked2d2d"
        if len(corr) <= min_correspondences:
            return LocalizationResult(image_id=image_id, method=method,
                                      reason="below correspondence gate")
    resected = resect_image(model, feature_store.sets, image_id, corr, intrinsics,
                            min_inliers=pnp_min_inliers, seed=seed)
    if resected is None:
        return LocalizationResult(image_id=image_id, method=method,
                                  correspondences=corr, reason="resection failed")
    pose, inlier_refs = resected
    return LocalizationResult(image_id=image_id, method=method, correspondences=corr,
                              pose=pose, inliers=len(inlier_refs), inlier_refs=inlier_refs)


def localize_all(model: Model, feature_store, graph: MatchGraph,
                 intrinsics: dict[int, np.ndarray], *,
                 iteration: int = 1,
                 set_cover_k: int = SET_COVER_K,
                 set_cover_engage: int = SET_COVER_ENGAGE_POINTS,
                 ratio: float = RATIO_UNGUIDED,
                 min_correspondences: int = MIN_CORRESPONDENCES,
                 pnp_min_inliers: int = PNP_MIN_INLIERS,
                 seed: int = 0,
                 order=None) -> tuple[list[int], list[LocalizationResult]]:
    """Attempt every unregistered image against the current snapshot.

    All attempts read the same snapshot, to which no attempt adds; successful
    poses are attached afterwards in a single image-id-ordered merge, so the
    outcome does not depend on the order of the attempts.  Returns (newly
    registered ids, per-image results in attempt order).
    """
    unregistered = [i for i in sorted(feature_store.sets) if not model.is_registered(i)]
    if order is not None:
        wanted = set(unregistered)
        unregistered = [i for i in order if i in wanted]
    if not unregistered:
        model.stage_tag = f"after_localize({iteration})"
        return [], []
    cover_points = None
    if len(model.points) > set_cover_engage:
        cover_points = compute_set_cover(model, set_cover_k).selected

    results = [
        localize_image(model, graph, image_id, feature_store, intrinsics[image_id],
                       cover_points=cover_points, ratio=ratio,
                       min_correspondences=min_correspondences,
                       pnp_min_inliers=pnp_min_inliers, seed=seed)
        for image_id in unregistered
    ]

    newly = []
    for result in sorted(results, key=lambda r: r.image_id):
        if result.pose is None:
            log.info("image %d not localized (%s: %s)",
                     result.image_id, result.method, result.reason)
            continue
        conflicts = model.attach_camera(result.pose, result.inlier_refs)
        if conflicts:
            log.info("image %d attached with %d dropped conflicts",
                     result.image_id, conflicts)
        newly.append(result.image_id)
    model.stage_tag = f"after_localize({iteration})"
    return newly, results
