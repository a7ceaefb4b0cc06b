"""Model and scene queries that only tests need.

``msfm.model`` and ``msfm.synth`` keep what the pipeline runs; the checks
here (invariants, per-image visibility, exact positions, true matches, the
coarse loop's per-call gather of 3D-2D correspondences) are for tests alone.
"""

from itertools import repeat

import numpy as np

from msfm.ba import problem_from_model
from msfm.matching import NO_ENTRIES, closest_one_to_one


def track_length(point) -> int:
    return len(point.track)


def points_visible_in(model, image_id: int) -> set[int]:
    return set(model.tracked(image_id).values())


def visible_points(scene, image_id: int) -> set[int]:
    """The true points that the scene's image ``image_id`` observes."""
    table = scene.point_of_feature[image_id]
    return set(int(p) for p in table[table >= 0])


def check_consistency(model) -> None:
    """Exhaustive invariant check; raises AssertionError on drift."""
    owners = model._owner
    assert owners.keys() == model.cameras.keys()
    for pid, point in model.points.items():
        assert len(point.track) >= 2, f"point {pid} has a short track"
        for image_id, feature_id in point.track.items():
            owner = owners.get(image_id, {}).get(feature_id)
            assert owner == pid, f"{image_id}:{feature_id} of point {pid} owned by {owner}"
    # every track entry is indexed, so equal counts leave no stale entry
    n_obs = sum(len(point.track) for point in model.points.values())
    assert sum(map(len, owners.values())) == n_obs


def reprojection_errors(model, feature_store) -> np.ndarray:
    """Per-observation reprojection error in pixels over every track."""
    if not model.points:
        return np.zeros(0)
    return np.linalg.norm(problem_from_model(model, feature_store)[0].residuals(), axis=1)


class ExactPositionStore:
    """Float64 projections of the true points, keyed like a FeatureStore.

    Only positions are exact; descriptors and pixel noise come from the
    rendered feature sets, so this is for numerical tests, not matching.
    """

    def __init__(self, scene):
        self._positions: dict[int, np.ndarray] = {}
        for image_id in sorted(scene.feature_sets):
            cam = scene.cameras[image_id]
            table = scene.point_of_feature[image_id]
            fs = scene.feature_sets[image_id]
            proj, _ = cam.project(scene.points)
            arr = fs.xy.astype(np.float64).copy()
            tracked = table >= 0
            arr[tracked] = proj[table[tracked]]
            self._positions[image_id] = arr

    def position(self, image_id: int, feature_id) -> np.ndarray:
        """A feature's pixel position; (k, 2) positions for an array of ids."""
        return self._positions[image_id][feature_id]


def exact_store(scene) -> ExactPositionStore:
    """Positions recomputed in float64, bypassing file-format quantization.

    The feature files keep pixels as float32 (~1e-5 px of rounding at
    1000-pixel coordinates); numerical contracts at 1e-6 px and below need
    the exact projections.
    """
    return ExactPositionStore(scene)


def oracle_matches(scene, image_a: int, image_b: int) -> list[tuple[int, int]]:
    """(feature_a, feature_b) pairs that project the same world point."""
    ta = scene.point_of_feature[image_a]
    tb = scene.point_of_feature[image_b]
    where_b = {int(p): j for j, p in enumerate(tb) if p >= 0}
    out = []
    for i, p in enumerate(ta):
        if p >= 0 and int(p) in where_b:
            out.append((i, where_b[int(p)]))
    return out


def covisibility_matrix(scene) -> np.ndarray:
    ids = sorted(scene.feature_sets)
    vis = [visible_points(scene, i) for i in ids]
    n = len(ids)
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = len(vis[i] & vis[j])
    return mat


def correspondence_entries(model, graph, image_id: int):
    """(points, features, distances) linking an unregistered image to the
    model's tracks, gathered per call as the coarse loop once did: each
    registered neighbour of ``graph.neighbors`` in turn, its inlier matches
    looked up in the live ``model.tracked`` map."""
    entries = [NO_ENTRIES]
    for other in graph.neighbors(image_id):
        if not model.is_registered(other) or other == image_id:
            continue
        a, b = (image_id, other) if image_id < other else (other, image_id)
        m = graph.edges[(a, b)].inliers()
        own, theirs = (m.query, m.target) if a == image_id else (m.target, m.query)
        owned = model.tracked(other)
        pids = np.fromiter(map(owned.get, theirs.tolist(), repeat(-1)), np.int64, len(theirs))
        hit = pids >= 0
        entries.append((pids[hit], own[hit], m.distance[hit]))
    return tuple(map(np.concatenate, zip(*entries)))


def correspondences_to_model(model, graph, image_id: int) -> np.ndarray:
    """(n, 2) (point_id, feature_id) rows of ``correspondence_entries``."""
    return closest_one_to_one(*correspondence_entries(model, graph, image_id))
