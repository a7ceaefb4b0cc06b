"""Incremental reconstruction over the coarse match graph.

Seeded from the strongest well-conditioned edge, then grown image by image:
the unregistered image with the most 2D matches into already-triangulated
tracks (more than ``min_inliers``, as in camera addition) is registered by
robust resection, its fresh correspondences are triangulated
(``_triangulate_new_tracks``, which also makes the seed pair's points), and
bundle adjustment runs every few registrations plus once at the end.  This
is the only stage that bundle-adjusts.  Camera and point addition reuse its
resection (``resect_image``) and track triangulation (``triangulate_refs``,
one stacked pass per track length) with the same gates.

The loop reads the match graph once (``_inlier_links``).  Each round builds
one feature -> point array per registered image (``_track_lookup``), so an
unregistered image's 3D-2D entries are one lookup per link, and ranks the
images by the size of their one-to-one correspondence sets without building
them (``_one_to_one_count``); rows are built only for the images resection
tries.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from operator import itemgetter

import numpy as np

from .ba import bundle_adjust, pose_jacobian, rodrigues
from .errors import InsufficientDataError, MsfmError, NoSeedError
from .geometry import (
    TRI_MAX_ERROR_PX,
    block_ransac,
    relative_pose_from_fundamental,
    triangulate_track,
)
from .matching import NO_ENTRIES, MatchGraph, closest_one_to_one, sorted_unique
from .model import Camera, Model, pixels

log = logging.getLogger(__name__)

PNP_THRESHOLD_PX = 4.0
PNP_MIN_INLIERS = 16
PNP_SAMPLE_SIZE = 6
PNP_MAX_ITERS = 2048
PNP_CONFIDENCE = 0.999
PNP_LM_ITERS = 20

SEED_MIN_MEDIAN_ANGLE_DEG = 2.0
SEED_ANGLE_SAMPLES = 64
BA_BATCH = 8
BA_ITERS_EARLY = 50
BA_ITERS_FINAL = 100


def dlt_pose(points3d: np.ndarray, pixels: np.ndarray, K: np.ndarray):
    """Projection-matrix DLT resections of a stack of b 3D-2D sets, x ~ K(RX + t).

    ``points3d`` is (b, n, 3) and ``pixels`` (b, n, 2), n >= 6 in general
    position.  Returns R (b, 3, 3), t (b, 3) and ok (b,); the projective
    sign is fixed by cheirality on the input points, and ok is False where
    neither sign gives a proper rotation of positive scale with a point in
    front.  Raises np.linalg.LinAlgError when any slice's SVD fails.
    """
    X = np.asarray(points3d, dtype=np.float64)
    uv = np.asarray(pixels, dtype=np.float64)
    b, n = X.shape[:2]
    if n < 6:
        raise InsufficientDataError(f"resection needs >= 6 points, got {n}")
    # normalize for conditioning
    cx = X.mean(axis=1, keepdims=True)
    sx = np.sqrt(3.0) / np.maximum(np.linalg.norm(X - cx, axis=-1).mean(axis=-1), 1e-12)
    cu = uv.mean(axis=1, keepdims=True)
    su = np.sqrt(2.0) / np.maximum(np.linalg.norm(uv - cu, axis=-1).mean(axis=-1), 1e-12)
    Xn = (X - cx) * sx[:, None, None]
    un = (uv - cu) * su[:, None, None]
    A = np.zeros((b, 2 * n, 12))
    Xh = np.concatenate([Xn, np.ones((b, n, 1))], axis=-1)
    A[:, 0::2, 0:4] = Xh
    A[:, 0::2, 8:12] = -un[..., 0:1] * Xh
    A[:, 1::2, 4:8] = Xh
    A[:, 1::2, 8:12] = -un[..., 1:2] * Xh
    # A is (b, 2n, 12) with 2n >= 12: the thin SVD keeps the null vector
    _, _, Vt = np.linalg.svd(A, full_matrices=False)
    Pn = Vt[:, -1].reshape(b, 3, 4)
    # undo normalization
    Tu = np.zeros((b, 3, 3))
    Tu[:, 0, 0] = Tu[:, 1, 1] = su
    Tu[:, :2, 2] = -su[:, None] * cu[:, 0]
    Tu[:, 2, 2] = 1.0
    Tx = np.tile(np.eye(4), (b, 1, 1))
    Tx[:, :3, :3] *= sx[:, None, None]
    Tx[:, :3, 3] = -sx[:, None] * cx[:, 0]
    G = np.linalg.inv(K) @ (np.linalg.inv(Tu) @ Pn @ Tx)
    # both projective signs at once: axis 1 is sign +1, then -1
    sign = np.array([1.0, -1.0])
    U, S, Vt2 = np.linalg.svd(sign[:, None, None] * G[:, None, :, :3])
    R = U @ Vt2
    scale = S.mean(axis=-1)
    valid = ~(np.linalg.det(R) < 0) & ~(scale < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = sign[:, None] * G[:, None, :, 3] / scale[..., None]
    depths = (X[:, None] @ R.transpose(0, 1, 3, 2) + t[:, :, None])[..., 2]
    front = (depths > 0).sum(axis=-1)
    # sign +1 wins unless only -1 is valid or -1 has more points in front
    pick = (valid[:, 1] & (~valid[:, 0] | (front[:, 1] > front[:, 0]))).astype(np.int64)
    rows = np.arange(b)
    ok = valid[rows, pick] & (front[rows, pick] > 0)
    return R[rows, pick], t[rows, pick], ok


def refine_pose_lm(R, t, K, points3d, uv):
    """Levenberg-Marquardt on (rotation, translation) with K fixed."""
    X = np.asarray(points3d, dtype=np.float64)
    uv = np.asarray(uv, dtype=np.float64)
    f = K[0, 0]
    pp = K[:2, 2]

    def residuals(Rc, tc):
        xc = X @ Rc.T + tc
        return pixels(xc, f, pp) - uv, xc

    res, xc = residuals(R, t)
    cost = float((res ** 2).sum())
    lam = 1e-6
    for _ in range(PNP_LM_ITERS):
        J = pose_jacobian(xc, t, f)[1]
        Jf = J.reshape(-1, 6)
        rf = res.reshape(-1)
        H = Jf.T @ Jf
        g = Jf.T @ rf
        stepped = False
        for _ in range(8):
            Hd = H + lam * np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = np.linalg.solve(Hd, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            R_new = rodrigues(delta[0:3]) @ R
            t_new = t + delta[3:6]
            res_new, xc_new = residuals(R_new, t_new)
            cost_new = float((res_new ** 2).sum())
            if np.isfinite(cost_new) and cost_new < cost:
                rel = (cost - cost_new) / max(cost, 1e-30)
                R, t, res, xc, cost = R_new, t_new, res_new, xc_new, cost_new
                lam = max(lam / 10.0, 1e-15)
                stepped = True
                if rel < 1e-10:
                    return R, t
                break
            lam *= 10.0
        if not stepped:
            break
    return R, t


def _pnp_inliers(R, t, K, X, uv) -> np.ndarray:
    """Inlier masks (..., n) of poses R (..., 3, 3), t (..., 3): in front and
    within ``PNP_THRESHOLD_PX`` of the pixels."""
    xc = X @ np.swapaxes(R, -1, -2) + t[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.linalg.norm(pixels(xc, K[0, 0], K[:2, 2]) - uv, axis=-1)
    return (xc[..., 2] > 0) & np.isfinite(err) & (err < PNP_THRESHOLD_PX)


def _refit_pose(X, uv, K, mask):
    """The consensus step of resection: a DLT on the masked correspondences,
    polished by ``refine_pose_lm`` and rescored on all of them.

    Returns (R, t, inlier mask), or None below 6 correspondences or when
    the DLT fails.
    """
    if int(mask.sum()) < PNP_SAMPLE_SIZE:
        return None
    try:
        R, t, ok = dlt_pose(X[mask][None], uv[mask][None], K)
    except np.linalg.LinAlgError:
        return None
    if not ok[0]:
        return None
    R, t = refine_pose_lm(R[0], t[0], K, X[mask], uv[mask])
    return R, t, _pnp_inliers(R, t, K, X, uv)


def pnp_ransac(points3d, pixels, K, *, min_inliers: int = PNP_MIN_INLIERS, seed: int = 0):
    """Robust resection from 3D-2D correspondences.

    6-point DLT hypotheses in stacked blocks (``block_ransac``); each new
    best consensus is locally optimised by ``_refit_pose``, which also
    makes the final all-inlier fit.  Returns (R, t, inlier_mask) or None
    when the best consensus has fewer than ``min_inliers`` supporters.
    Raises InsufficientDataError below 6 correspondences.
    """
    X = np.asarray(points3d, dtype=np.float64).reshape(-1, 3)
    uv = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    n = len(X)
    if n < PNP_SAMPLE_SIZE:
        raise InsufficientDataError(f"resection needs >= 6 correspondences, got {n}")

    def fit(_, samples):
        R, t, ok = dlt_pose(X[samples], uv[samples], K)
        return np.concatenate([R, t[..., None]], axis=-1), ok

    def score(_, poses):
        return _pnp_inliers(poses[..., :3], poses[..., 3], K, X, uv)

    last = {}

    def refine(_, mask):
        last["mask"], last["refit"] = mask, _refit_pose(X, uv, K, mask)
        return None if last["refit"] is None else last["refit"][2]

    [(best_mask, best_count)] = block_ransac(
        [n], [seed], PNP_SAMPLE_SIZE, fit, score,
        confidence=PNP_CONFIDENCE, max_iters=PNP_MAX_ITERS, refine=refine)
    if best_count < max(min_inliers, PNP_SAMPLE_SIZE):
        return None
    # block_ransac refines each new best until it stops growing, so the
    # last refit is that of the best consensus
    refit = last["refit"] if last.get("mask") is best_mask else _refit_pose(X, uv, K, best_mask)
    if refit is None or int(refit[2].sum()) < min_inliers:
        return None
    return refit


def resect_image(model: Model, feature_sets, image_id: int, corr: np.ndarray,
                 K: np.ndarray, *, min_inliers: int, seed: int):
    """Register one image from an (n, 2) array of (point_id, feature_id) rows.

    The resection shared by the coarse stage and camera addition: robust
    PnP seeded with ``seed + image_id``.  Returns (camera, the inlier rows
    ``corr[mask]``, the form ``Model.attach_camera`` takes) or None when
    resection fails.
    """
    X = np.stack([model.points[pid].position for pid in corr[:, 0].tolist()])
    uv = feature_sets[image_id].xy[corr[:, 1]].astype(np.float64)
    try:
        result = pnp_ransac(X, uv, K, min_inliers=min_inliers, seed=seed + image_id)
    except InsufficientDataError:
        return None
    if result is None:
        return None
    R, t, mask = result
    return Camera(K=K, R=R, t=t, image_id=image_id), corr[mask]


def triangulate_refs(model: Model, feature_sets, tracks) -> list:
    """Points of (image_id, feature_id) tracks through the model's cameras
    (4 px / 1 deg gates).

    One stacked ``triangulate_track`` call per track length, its pixels
    gathered with one index per image.  Returns each track's point, or None
    where it fails the gates, in input order.
    """
    points = [None] * len(tracks)
    by_length = defaultdict(list)
    for i, track in enumerate(tracks):
        by_length[len(track)].append(i)
    for length, rows in by_length.items():
        pairs = [pair for i in rows for pair in tracks[i]]
        image = np.fromiter((i for i, _ in pairs), np.int64, len(pairs))
        feature = np.fromiter((f for _, f in pairs), np.int64, len(pairs))
        uv = np.empty((len(image), 2))
        for image_id in sorted_unique(image).tolist():
            at = np.flatnonzero(image == image_id)
            uv[at] = feature_sets[image_id].xy[feature[at]]
        X, _, ok = triangulate_track(model.cameras, image.reshape(len(rows), length),
                                     uv.reshape(len(rows), length, 2))
        for j in np.flatnonzero(ok).tolist():
            points[rows[j]] = X[j]
    return points


def _edge_points(graph: MatchGraph, feature_sets, a: int, b: int):
    matches = graph.edges[(a, b)].inliers()
    return (matches, feature_sets[a].xy[matches.query].astype(np.float64),
            feature_sets[b].xy[matches.target].astype(np.float64))


def _edge_median_angle(edge, intrinsics, a, b, pts_q, pts_c):
    """Median triangulation angle (degrees) of an edge, or None when its pose
    fails (an ``MsfmError`` or a failed SVD); any other error propagates."""
    step = max(1, len(pts_q) // SEED_ANGLE_SAMPLES)
    try:
        *_, angle = relative_pose_from_fundamental(
            edge.F, intrinsics[a], intrinsics[b], pts_q[::step], pts_c[::step])
    except (MsfmError, np.linalg.LinAlgError):
        return None
    return float(np.degrees(angle))


def select_seed_pair(graph: MatchGraph, feature_sets, intrinsics) -> tuple[int, int]:
    """Edge with the most inliers among those with adequate parallax.

    Edges are tried in descending inlier count (ties lexicographic), so the
    usual case evaluates the parallax gate on one edge only.  Raises
    NoSeedError when nothing qualifies.
    """
    order = sorted(
        (key for key in graph.edges if graph.edges[key].F is not None),
        key=lambda key: (-len(graph.edges[key].inliers()), key))
    for (a, b) in order:
        matches, pts_q, pts_c = _edge_points(graph, feature_sets, a, b)
        if len(matches) < 8:
            continue
        median_angle = _edge_median_angle(graph.edges[(a, b)], intrinsics, a, b, pts_q, pts_c)
        if median_angle is not None and median_angle >= SEED_MIN_MEDIAN_ANGLE_DEG:
            return a, b
    raise NoSeedError("no geometry-verified edge has enough parallax to seed")


def _inlier_links(graph: MatchGraph) -> dict[int, list]:
    """Each image's inlier links, neighbours ascending: (neighbour, the
    image's own feature ids, the neighbour's feature ids, distances)."""
    links = defaultdict(list)
    for (a, b), edge in graph.edges.items():
        m = edge.inliers()
        links[a].append((b, m.query, m.target, m.distance))
        links[b].append((a, m.target, m.query, m.distance))
    for image_links in links.values():
        image_links.sort(key=itemgetter(0))
    return links


def _track_lookup(model: Model, feature_sets) -> dict[int, np.ndarray]:
    """One int64 feature -> point array per registered image, -1 where a
    feature is untracked."""
    lookup = {}
    for image_id in model.cameras:
        owned = model.tracked(image_id)
        table = np.full(len(feature_sets[image_id]), -1, dtype=np.int64)
        table[np.fromiter(owned, np.int64, len(owned))] = np.fromiter(
            owned.values(), np.int64, len(owned))
        lookup[image_id] = table
    return lookup


def _model_entries(links, lookup, image_id: int):
    """(points, features, distances) of an unregistered image's inlier
    links into the tracks of registered images (``_track_lookup``), in
    link order: the entries ``closest_one_to_one`` takes."""
    entries = [NO_ENTRIES]
    for other, own, theirs, distance in links[image_id]:
        if other in lookup:
            pids = lookup[other][theirs]
            hit = pids >= 0
            entries.append((pids[hit], own[hit], distance[hit]))
    return tuple(map(np.concatenate, zip(*entries)))


def _one_to_one_count(points, features, distances) -> int:
    """``len(closest_one_to_one(points, features, distances))`` without its
    rows: the distinct features among each point's closest entry (ties to
    its first entry, as a stable sort keeps them)."""
    order = np.lexsort((distances, points))
    first = np.ones(len(order), dtype=bool)
    np.not_equal(points[order[1:]], points[order[:-1]], out=first[1:])
    return len(sorted_unique(features[order[first]]))


def _triangulate_new_tracks(model: Model, links, feature_sets, image_id: int) -> None:
    """Grow tracks between a fresh camera and its registered neighbours.

    A match whose other feature already belongs to a track extends that track
    (reprojection gated); a match between two untracked features triangulates
    a new two-view point, added in match order unless a feature is tracked by
    then.  Extending first keeps one physical point from spawning parallel
    tracks across edges.
    """
    def maybe_extend(pid: int, image: int, feat: int) -> None:
        pix = feature_sets[image].xy[feat].astype(np.float64)
        proj, depth = model.cameras[image].project(model.points[pid].position)
        if depth[0] <= 0 or np.linalg.norm(proj[0] - pix) > TRI_MAX_ERROR_PX:
            return
        model.extend_track(pid, image, feat)

    pending = []
    for other, own, theirs, _ in links[image_id]:
        if not model.is_registered(other):
            continue
        # each match as its edge (a, b), a < b, holds it
        a, b, qs, ts = ((image_id, other, own, theirs) if image_id < other
                        else (other, image_id, theirs, own))
        # live maps: a track extended earlier in the loop is seen later
        owned_a, owned_b = model.tracked(a), model.tracked(b)
        for q, t in zip(qs.tolist(), ts.tolist()):
            own_q = owned_a.get(q)
            own_t = owned_b.get(t)
            if own_q is not None and own_t is None:
                maybe_extend(own_q, b, t)
            elif own_t is not None and own_q is None:
                maybe_extend(own_t, a, q)
            elif own_q is None and own_t is None:
                pending.append(((a, q), (b, t)))
    for track, point in zip(pending, triangulate_refs(model, feature_sets, pending)):
        (a, q), (b, t) = track
        if point is not None and q not in model.tracked(a) and t not in model.tracked(b):
            model.add_point(point, track)


def incremental_reconstruct(graph: MatchGraph, feature_store, intrinsics: dict[int, np.ndarray],
                            *, min_inliers: int = PNP_MIN_INLIERS, seed: int = 0,
                            fix_focal: bool = False) -> Model:
    """Grow a model from the match graph until no image clears the gate.

    As in camera addition, an image with more than ``min_inliers``
    correspondences to the model is resected, and its resection must keep
    ``min_inliers`` of them; ``seed`` seeds its RANSAC.  With ``fix_focal``
    (a given focal length) bundle adjustment keeps the intrinsics' focal.
    """
    feature_sets = feature_store.sets
    if not graph.edges:
        raise NoSeedError("empty match graph")
    a, b = select_seed_pair(graph, feature_sets, intrinsics)
    links = _inlier_links(graph)
    _, pts_q, pts_c = _edge_points(graph, feature_sets, a, b)
    R, t, _, _ = relative_pose_from_fundamental(
        graph.edges[(a, b)].F, intrinsics[a], intrinsics[b], pts_q, pts_c)
    model = Model()
    model.attach_camera(Camera(K=intrinsics[a], R=np.eye(3), t=np.zeros(3), image_id=a))
    model.attach_camera(Camera(K=intrinsics[b], R=R, t=t, image_id=b))
    _triangulate_new_tracks(model, links, feature_sets, b)
    log.info("seed pair (%d, %d): %d points", a, b, len(model.points))
    bundle_adjust(model, feature_store, max_iters=BA_ITERS_EARLY, fix_focal=fix_focal)

    since_ba = 0
    while True:
        lookup = _track_lookup(model, feature_sets)
        candidates = []
        for image_id in sorted(feature_sets):
            if model.is_registered(image_id):
                continue
            entries = _model_entries(links, lookup, image_id)
            count = _one_to_one_count(*entries)
            if count > min_inliers:
                candidates.append((count, -image_id, image_id, entries))
        if not candidates:
            break
        # most correspondences first, ties to the lower image id; rows are
        # built only for the images resection tries
        candidates.sort(key=itemgetter(0, 1), reverse=True)
        for _, _, image_id, entries in candidates:
            corr = closest_one_to_one(*entries)
            resected = resect_image(model, feature_sets, image_id, corr, intrinsics[image_id],
                                    min_inliers=min_inliers, seed=seed)
            if resected is not None:
                break
            log.info("image %d failed resection this round", image_id)
        if resected is None:
            # remaining images are left for the localization stage
            break
        cam, inliers = resected
        model.attach_camera(cam, inliers)
        _triangulate_new_tracks(model, links, feature_sets, image_id)
        since_ba += 1
        log.info("registered image %d (%d inliers), model: %d cams %d pts",
                 image_id, len(inliers), len(model.cameras), len(model.points))
        if since_ba >= BA_BATCH:
            bundle_adjust(model, feature_store, max_iters=BA_ITERS_EARLY, fix_focal=fix_focal)
            since_ba = 0
    bundle_adjust(model, feature_store, max_iters=BA_ITERS_FINAL, fix_focal=fix_focal)
    return model
