"""Two-view epipolar geometry and multi-view triangulation.

Conventions: pixels project as x ~ K (R X + t), camera centre C = -R^T t,
pixel origin at the top-left with y growing downward.  Fundamental matrices
map query-image points to target-image lines, i.e. p_target^T F p_query = 0,
and are kept Frobenius-normalized with rank 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InsufficientDataError

RANK2_TOL = 1e-6
SAMPSON_THRESHOLD_PX = 2.0
RANSAC_CONFIDENCE = 0.999
RANSAC_MAX_ITERS = 2048
MIN_EDGE_INLIERS = 16

TRI_MAX_ERROR_PX = 4.0
TRI_MIN_ANGLE_DEG = 1.0


@dataclass
class TwoViewGeometry:
    """Fundamental matrix for an image pair plus estimation metadata."""

    F: np.ndarray
    inlier_count: int = 0
    source: str = "estimated"  # "from_poses" | "estimated"
    degenerate_planar: bool = False


@dataclass(frozen=True)
class EpipolarLine:
    """Line a*x + b*y + c = 0 with (a, b) unit length."""

    a: float
    b: float
    c: float


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _normalize_f(F: np.ndarray) -> np.ndarray:
    F = F / np.linalg.norm(F)
    # canonical sign: the largest-magnitude entry is positive
    flat = np.abs(F).argmax()
    if F.flat[flat] < 0:
        F = -F
    return F


def fundamental_from_poses(cam_q, cam_c) -> TwoViewGeometry:
    """Fundamental matrix of a pose-known pair, p_c^T F p_q = 0.

    Raises DegenerateGeometryError when the camera centres coincide.
    """
    centre_diff = cam_q.center() - cam_c.center()  # = Rc^T tc - Rq^T tq
    scale = max(np.linalg.norm(cam_q.center()), np.linalg.norm(cam_c.center()), 1.0)
    if np.linalg.norm(centre_diff) < 1e-12 * scale:
        raise DegenerateGeometryError(
            f"cameras {cam_q.image_id} and {cam_c.image_id} share a centre"
        )
    Kq_inv = np.linalg.inv(cam_q.K)
    Kc_inv = np.linalg.inv(cam_c.K)
    F = Kc_inv.T @ cam_c.R @ skew(centre_diff) @ cam_q.R.T @ Kq_inv
    return TwoViewGeometry(F=_normalize_f(F), source="from_poses")


def _hartley_normalize(pts: np.ndarray):
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    rms = np.sqrt((centered ** 2).sum(axis=1).mean())
    s = np.sqrt(2.0) / max(rms, 1e-12)
    T = np.array([
        [s, 0.0, -s * centroid[0]],
        [0.0, s, -s * centroid[1]],
        [0.0, 0.0, 1.0],
    ])
    return centered * s, T


def eight_point(pts_q: np.ndarray, pts_c: np.ndarray):
    """Normalized 8-point fit; returns (F, smallest design-space gap ratio).

    The second value is s[-2]/s[0] of the design matrix: a near-zero gap means
    the system admits a solution family (coplanar scene), which callers flag.
    """
    pts_q = np.asarray(pts_q, dtype=np.float64)
    pts_c = np.asarray(pts_c, dtype=np.float64)
    nq, Tq = _hartley_normalize(pts_q)
    nc, Tc = _hartley_normalize(pts_c)
    x, y = nq[:, 0], nq[:, 1]
    xp, yp = nc[:, 0], nc[:, 1]
    A = np.stack([xp * x, xp * y, xp, yp * x, yp * y, yp, x, y, np.ones_like(x)], axis=1)
    _, s, Vt = np.linalg.svd(A)
    gap = s[-2] / s[0] if len(s) >= 9 else 0.0
    F0 = Vt[-1].reshape(3, 3)
    U, sv, Vt2 = np.linalg.svd(F0)
    F0 = U @ np.diag([sv[0], sv[1], 0.0]) @ Vt2
    F = Tc.T @ F0 @ Tq
    return _normalize_f(F), float(gap)


def sampson_distance(F: np.ndarray, pts_q: np.ndarray, pts_c: np.ndarray) -> np.ndarray:
    """First-order geometric error of the epipolar constraint, in pixels."""
    ones = np.ones((len(pts_q), 1))
    hq = np.hstack([pts_q, ones])
    hc = np.hstack([pts_c, ones])
    Fq = hq @ F.T      # lines in the target image
    Ftc = hc @ F       # lines in the query image
    num = np.einsum("ij,ij->i", hc, Fq)
    den = Fq[:, 0] ** 2 + Fq[:, 1] ** 2 + Ftc[:, 0] ** 2 + Ftc[:, 1] ** 2
    return np.abs(num) / np.sqrt(np.maximum(den, 1e-30))


def ransac_stop_count(inlier_ratio: float, sample_size: int,
                      confidence: float, max_iters: int) -> int:
    """Adaptive RANSAC iteration count for the best inlier ratio so far.

    The number of samples needed to draw one all-inlier sample with the
    given confidence, capped at ``max_iters``.  When ``1 - w**k`` rounds to
    1 (a tiny inlier ratio) no finite count exists and ``max_iters`` is
    returned.
    """
    denom = np.log(max(1.0 - inlier_ratio ** sample_size, 1e-15))
    if denom == 0.0:
        return max_iters
    return min(max_iters, int(np.ceil(np.log(1.0 - confidence) / denom)))


def estimate_fundamental_ransac(pts_q, pts_c, *, seed: int = 0):
    """Robust fundamental-matrix estimation by 8-point RANSAC.

    Returns (TwoViewGeometry, inlier_mask); the caller decides whether the
    inlier count clears its gate.  Raises InsufficientDataError below 8
    correspondences.
    """
    pts_q = np.asarray(pts_q, dtype=np.float64).reshape(-1, 2)
    pts_c = np.asarray(pts_c, dtype=np.float64).reshape(-1, 2)
    n = len(pts_q)
    if n < 8:
        raise InsufficientDataError(f"need >= 8 correspondences, got {n}")
    rng = np.random.default_rng(seed)
    best_mask = np.zeros(n, dtype=bool)
    best_count = 0
    needed = RANSAC_MAX_ITERS
    it = 0
    while it < needed and it < RANSAC_MAX_ITERS:
        sample = rng.choice(n, size=8, replace=False)
        try:
            F, _ = eight_point(pts_q[sample], pts_c[sample])
        except np.linalg.LinAlgError:
            it += 1
            continue
        mask = sampson_distance(F, pts_q, pts_c) < SAMPSON_THRESHOLD_PX
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            needed = ransac_stop_count(count / n, 8, RANSAC_CONFIDENCE, RANSAC_MAX_ITERS)
        it += 1
    if best_count < 8:
        geom = TwoViewGeometry(F=np.eye(3) / np.sqrt(3.0), inlier_count=0)
        return geom, np.zeros(n, dtype=bool)
    F, gap = eight_point(pts_q[best_mask], pts_c[best_mask])
    mask = sampson_distance(F, pts_q, pts_c) < SAMPSON_THRESHOLD_PX
    geom = TwoViewGeometry(F=F, inlier_count=int(mask.sum()),
                           degenerate_planar=gap < 1e-9)
    return geom, mask


def _dlt_rows(P: np.ndarray, pix: np.ndarray) -> np.ndarray:
    """DLT rows x P[2] - P[0], y P[2] - P[1]: (..., k, 3, 4), (..., k, 2) -> (..., 2k, 4)."""
    A = pix[..., None] * P[..., 2:3, :] - P[..., :2, :]
    return A.reshape(*A.shape[:-3], -1, 4)


def _triangulate_two_view_normalized(R, t, xq, xc):
    """DLT triangulation of normalized-coordinate pairs under P=[I|0], [R|t].

    Batched: one (n, 4, 4) SVD instead of n small ones.
    """
    P = np.stack([np.hstack([np.eye(3), np.zeros((3, 1))]), np.hstack([R, t.reshape(3, 1)])])
    _, _, Vt = np.linalg.svd(_dlt_rows(P, np.stack([xq, xc], axis=1)))
    X = Vt[:, -1, :]
    w = X[:, 3].copy()
    w[np.abs(w) < 1e-15] = 1e-15
    return X[:, :3] / w[:, None]


def relative_pose_from_fundamental(geom: TwoViewGeometry, K_q, K_c, pts_q, pts_c):
    """Decompose E = K_c^T F K_q into the (R, t) of the target w.r.t. the query.

    Returns (R, t, cheirality_count, median triangulation angle in radians)
    with unit-norm t.  Raises DegenerateGeometryError when no candidate
    passes the positive-depth majority (e.g. a zero-baseline pair).
    """
    pts_q = np.asarray(pts_q, dtype=np.float64).reshape(-1, 2)
    pts_c = np.asarray(pts_c, dtype=np.float64).reshape(-1, 2)
    n = len(pts_q)
    if n < 5:
        raise InsufficientDataError(f"need >= 5 inliers, got {n}")
    E = K_c.T @ geom.F @ K_q
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    xq = (np.linalg.inv(K_q) @ np.hstack([pts_q, np.ones((n, 1))]).T).T[:, :2]
    xc = (np.linalg.inv(K_c) @ np.hstack([pts_c, np.ones((n, 1))]).T).T[:, :2]
    best = None
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        for tc in (t, -t):
            X = _triangulate_two_view_normalized(R, tc, xq, xc)
            z1 = X[:, 2]
            z2 = (X @ R.T + tc)[:, 2]
            count = int(((z1 > 0) & (z2 > 0)).sum())
            if best is None or count > best[0]:
                rays = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-15)
                centre2 = -R.T @ tc
                rays2 = X - centre2
                rays2 /= np.maximum(np.linalg.norm(rays2, axis=1, keepdims=True), 1e-15)
                cosang = np.clip(np.einsum("ij,ij->i", rays, rays2), -1.0, 1.0)
                best = (count, R, tc, float(np.median(np.arccos(cosang))))
    count, R, tc, median_angle = best
    if count <= n // 2:
        raise DegenerateGeometryError(
            f"no pose candidate places a majority of points in front ({count}/{n})"
        )
    if median_angle < 1e-4:
        raise DegenerateGeometryError("near-zero parallax; relative pose unobservable")
    return R, tc, count, median_angle


def _reproject(K, R, t, X, pix):
    """Residuals (n, k, 2), camera-frame points (n, k, 3) and mean errors (n,)
    of points X (n, 3); a point at or behind a camera reads an inf error."""
    xc = (R @ X[:, None, :, None])[..., 0] + t
    uv = (K @ xc[..., None])[..., 0]
    res = uv[..., :2] / uv[..., 2:3] - pix
    res[xc[..., 2] <= 1e-12] = np.inf
    err = np.linalg.norm(res, axis=-1).mean(axis=-1)
    return res, xc, np.where(np.isfinite(res).all(axis=(1, 2)), err, np.inf)


def triangulate_track(cameras, images, pixels, *,
                      max_error: float = TRI_MAX_ERROR_PX,
                      min_angle_deg: float = TRI_MIN_ANGLE_DEG):
    """Triangulate n tracks of k observations each in one stacked pass.

    ``images`` (n, k) holds image ids looked up in ``cameras`` (image id ->
    Camera) and ``pixels`` (n, k, 2) the observations.  Linear DLT, then one
    Gauss-Newton step on reprojection error, kept when it does not increase
    the error.  Returns (points (n, 3), mean errors (n,), ok (n,)): ok is
    False where a track fails a gate (reprojection, angle, positive depth)
    or is degenerate (one shared centre, parallel rays).
    """
    images = np.asarray(images, dtype=np.int64)
    pix = np.asarray(pixels, dtype=np.float64)
    n, k = images.shape
    if k < 2:
        raise InsufficientDataError("need >= 2 observations")
    ids, slot = np.unique(images, return_inverse=True)
    cams = [cameras[i] for i in ids.tolist()]
    slot = slot.reshape(n, k)
    K = np.stack([c.K for c in cams])[slot]
    R = np.stack([c.R for c in cams])[slot]
    t = np.stack([c.t for c in cams])[slot]
    centers = np.stack([c.center() for c in cams])[slot]
    P = np.stack([c.K @ np.hstack([c.R, c.t.reshape(3, 1)]) for c in cams])[slot]
    shared_centre = (np.linalg.norm(centers - centers[:, :1], axis=-1) < 1e-12).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, Vt = np.linalg.svd(_dlt_rows(P, pix))
        Xh = Vt[:, -1]
        parallel = np.abs(Xh[:, 3]) < 1e-12 * np.linalg.norm(Xh[:, :3], axis=-1)
        X = Xh[:, :3] / Xh[:, 3:]
        res, xc, err = _reproject(K, R, t, X, pix)

        # one Gauss-Newton pass on the reprojection residuals; a singular
        # system skips its own track's step only
        live = np.flatnonzero(np.isfinite(err))
        x, y, z = xc[live].transpose(2, 0, 1)
        f = K[live, :, 0, 0]
        # libm pow, as a scalar z ** 2 rounds; z * z can differ in the last bit
        z2 = np.float_power(z, 2)
        d_uv = np.zeros((len(live), k, 2, 3))
        d_uv[..., 0, 0] = d_uv[..., 1, 1] = f / z
        d_uv[..., 0, 2] = -f * x / z2
        d_uv[..., 1, 2] = -f * y / z2
        J = (d_uv @ R[live]).reshape(len(live), 2 * k, 3)
        Jt = J.transpose(0, 2, 1)
        H = Jt @ J
        H[:, np.arange(3), np.arange(3)] += 1e-12
        g = Jt @ res[live].reshape(len(live), 2 * k, 1)
        solvable = np.linalg.det(H) != 0
        live = live[solvable]
        X_new = X[live] + np.linalg.solve(H[solvable], -g[solvable])[..., 0]
        _, xc_new, err_new = _reproject(K[live], R[live], t[live], X_new, pix[live])
        better = err_new <= err[live]
        keep = live[better]
        X[keep], xc[keep], err[keep] = X_new[better], xc_new[better], err_new[better]

        rays = X[:, None, :] - centers
        rays /= np.maximum(np.linalg.norm(rays, axis=-1, keepdims=True), 1e-15)
        cosang = rays @ rays.transpose(0, 2, 1)
        cosang[:, np.arange(k), np.arange(k)] = 1.0
        angle = np.degrees(np.arccos(np.clip(cosang.min(axis=(1, 2)), -1.0, 1.0)))
    ok = (np.isfinite(err) & (xc[..., 2] > 0).all(axis=1) & (err <= max_error)
          & (angle >= min_angle_deg) & ~shared_centre & ~parallel)
    return X, err, ok
