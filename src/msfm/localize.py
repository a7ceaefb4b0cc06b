"""Camera addition: register every unregistered image against a model snapshot.

The snapshot's query side is built once: the sorted point ids (all points,
or a greedy set cover of them on very large models) and their mean
descriptors.  Every attempt reads those arrays and the model and writes
nothing, so the images register independently of one another: first direct
3D-2D matching of the mean descriptors into the image's features, then, if
that fails the inlier gate, ranked 2D-2D matching through the image's
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
from .features import DESCRIPTOR_DIM
from .matching import (NO_ENTRIES, MatchGraph, RATIO_UNGUIDED, closest_one_to_one, ratio_filter,
                       sorted_unique)
from .model import Camera, Model
from .reconstruct import PNP_MIN_INLIERS, resect_image

log = logging.getLogger(__name__)

SET_COVER_K = 400
SET_COVER_ENGAGE_POINTS = 100_000
RANKED_TOP_K = 10
NO_CORRESPONDENCES = np.empty((0, 2), dtype=np.int64)


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


def track_means(observations, feature_sets) -> tuple[np.ndarray, np.ndarray]:
    """Each observed point's mean float32 descriptor, in one array pass.

    ``observations`` are (point, image, feature) columns grouped by point,
    images ascending within a track (``Model.observations()``'s order, or a
    subset of its points).  Returns (sorted point ids, (n, 128) float32
    means).  Each track is summed in float32 and divided in float32, which
    is what ``np.mean`` over the track's rows does.  The rows are gathered
    as uint8: their float32 sums are integers below 2^24, so exact in any
    order.
    """
    point, image, feature = observations
    rows = np.empty((len(point), DESCRIPTOR_DIM), dtype=np.uint8)
    for image_id in sorted_unique(image).tolist():
        at = np.flatnonzero(image == image_id)
        rows[at] = feature_sets[image_id].descriptors[feature[at]]
    starts = np.flatnonzero(np.diff(point, prepend=-1))  # the column is grouped by point
    point_ids, lengths = point[starts], np.diff(starts, append=len(point))
    # one step per track position
    sums = rows[starts].astype(np.float32)
    for k in range(1, lengths.max(initial=0)):
        longer = lengths > k
        sums[longer] += rows[starts[longer] + k]
    return point_ids, sums / lengths.astype(np.float32)[:, None]


def compute_set_cover(model: Model, k: int = SET_COVER_K) -> list[int]:
    """Greedy point subset covering every camera k times (or to saturation).

    Picks the point covering the most not-yet-satisfied cameras; ties prefer
    longer tracks, then lower point ids.  Returns the ids in the order picked.
    """
    if k < 1:
        raise ValueError(f"coverage target must be >= 1, got {k}")
    remaining = {image_id: k for image_id in model.cameras}
    pending = sorted(model.points)
    selected: list[int] = []

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
        if all(v == 0 for v in remaining.values()):
            break
    return selected


def direct_3d2d_search(point_ids: np.ndarray, queries: np.ndarray, image_fs, *,
                       ratio: float = RATIO_UNGUIDED) -> np.ndarray:
    """Match points' mean descriptors (``queries``, one row per id of the
    sorted ``point_ids``) into an image's features.

    Returns (n, 2) (point_id, feature_id) rows sorted by point; a feature
    backs at most one point.
    """
    if len(point_ids) == 0 or len(image_fs) == 0:
        return NO_CORRESPONDENCES
    dist, idx = two_nearest_bruteforce(queries, image_fs.descriptors)
    rows, feats, d, _ = ratio_filter(dist, idx, ratio)
    return closest_one_to_one(point_ids[rows], feats, d)


def ranked_2d2d_search(model: Model, graph: MatchGraph, image_id: int, image_fs,
                       feature_store, *,
                       ratio: float = RATIO_UNGUIDED,
                       min_inliers: int = PNP_MIN_INLIERS) -> np.ndarray:
    """3D-2D correspondences via track features of well-matched neighbours.

    The localized neighbours are ranked by shared coarse matches; each
    neighbour's tracked 2D features, in (point, feature) order, act as
    proxies for their points.  Returns (n, 2) (point_id, feature_id) rows
    sorted by point, or none unless more than ``min_inliers`` were found.
    Raises InsufficientDataError when no localized neighbour exists.
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
    targets = image_fs.descriptors.astype(np.float32)  # once for every neighbour
    for _, _, other in neighbors[:RANKED_TOP_K]:
        tracked = model.tracked(other)
        feats, pids = (np.fromiter(v, np.int64, len(tracked)) for v in (tracked, tracked.values()))
        order = np.lexsort((feats, pids))
        queries = feature_store.sets[other].descriptors[feats[order]]
        dist, idx = two_nearest_bruteforce(queries, targets)
        rows, found, d, _ = ratio_filter(dist, idx, ratio)
        entries.append((pids[order][rows], found, d))
    corr = closest_one_to_one(*map(np.concatenate, zip(*entries)))
    if len(corr) <= min_inliers:
        return NO_CORRESPONDENCES
    return corr


def localize_image(model: Model, graph: MatchGraph, image_id: int, feature_store,
                   intrinsics: np.ndarray, point_ids: np.ndarray, queries: np.ndarray, *,
                   ratio: float = RATIO_UNGUIDED,
                   min_inliers: int = PNP_MIN_INLIERS,
                   seed: int = 0) -> LocalizationResult:
    """Pure function of (snapshot, image): direct search, then ranked fallback.

    ``point_ids`` and ``queries`` are the snapshot's query side, as
    ``track_means`` gives it.  More than ``min_inliers`` correspondences go
    on to resection, which must keep ``min_inliers`` of them.
    """
    image_fs = feature_store.sets[image_id]
    corr = direct_3d2d_search(point_ids, queries, image_fs, ratio=ratio)
    method = "direct3d2d"
    if len(corr) <= min_inliers:
        try:
            corr = ranked_2d2d_search(model, graph, image_id, image_fs, feature_store,
                                      ratio=ratio, min_inliers=min_inliers)
        except InsufficientDataError:
            corr = NO_CORRESPONDENCES
        method = "ranked2d2d"
        if len(corr) <= min_inliers:
            return LocalizationResult(image_id=image_id, method=method,
                                      reason="below correspondence gate")
    resected = resect_image(model, feature_store.sets, image_id, corr, intrinsics,
                            min_inliers=min_inliers, seed=seed)
    if resected is None:
        return LocalizationResult(image_id=image_id, method=method,
                                  correspondences=corr, reason="resection failed")
    pose, inlier_refs = resected
    return LocalizationResult(image_id=image_id, method=method, correspondences=corr,
                              pose=pose, inliers=len(inlier_refs), inlier_refs=inlier_refs)


def localize_all(model: Model, feature_store, graph: MatchGraph,
                 intrinsics: dict[int, np.ndarray], *,
                 set_cover_k: int = SET_COVER_K,
                 set_cover_engage: int = SET_COVER_ENGAGE_POINTS,
                 ratio: float = RATIO_UNGUIDED,
                 min_inliers: int = PNP_MIN_INLIERS,
                 seed: int = 0,
                 order=None) -> tuple[list[int], list[LocalizationResult]]:
    """Attempt every unregistered image against the current snapshot.

    All attempts read the same snapshot and its query side, built once
    here, and none writes to them; successful poses are attached afterwards
    in a single image-id-ordered merge, so the outcome does not depend on
    the order of the attempts.  Returns (newly registered ids, per-image
    results in attempt order).
    """
    unregistered = [i for i in sorted(feature_store.sets) if not model.is_registered(i)]
    if order is not None:
        wanted = set(unregistered)
        unregistered = [i for i in order if i in wanted]
    if not unregistered:
        return [], []
    observations = model.observations()
    if len(model.points) > set_cover_engage:
        keep = np.isin(observations[0], compute_set_cover(model, set_cover_k))
        observations = tuple(column[keep] for column in observations)
    point_ids, queries = track_means(observations, feature_store.sets)

    results = [
        localize_image(model, graph, image_id, feature_store, intrinsics[image_id],
                       point_ids, queries, ratio=ratio, min_inliers=min_inliers, seed=seed)
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
    return newly, results
