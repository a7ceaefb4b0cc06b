"""Two-view epipolar geometry and multi-view triangulation.

Conventions: pixels project as x ~ K (R X + t), camera centre C = -R^T t,
pixel origin at the top-left with y growing downward.  Fundamental matrices
map query-image points to target-image lines, i.e. p_target^T F p_query = 0,
and are kept Frobenius-normalized with rank 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class Triangulated(NamedTuple):
    point: np.ndarray
    mean_error: float


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


def epipolar_line(geom: TwoViewGeometry | np.ndarray, p) -> EpipolarLine:
    """Map a query-image pixel to its target-image epipolar line."""
    F = geom.F if isinstance(geom, TwoViewGeometry) else geom
    x, y = float(p[0]), float(p[1])
    l = F @ np.array([x, y, 1.0])
    n = float(np.hypot(l[0], l[1]))
    if n < 1e-9 * max(1.0, np.hypot(x, y)):
        raise DegenerateGeometryError(f"point ({x}, {y}) is the epipole")
    l = l / n
    return EpipolarLine(float(l[0]), float(l[1]), float(l[2]))


def point_line_distance(p, line: EpipolarLine) -> float:
    """Unsigned pixel distance from a point to a line."""
    n = np.hypot(line.a, line.b)
    if n == 0.0:
        raise DegenerateGeometryError("line has a = b = 0")
    return abs(line.a * float(p[0]) + line.b * float(p[1]) + line.c) / n


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


def _triangulate_two_view_normalized(R, t, xq, xc):
    """DLT triangulation of normalized-coordinate pairs under P=[I|0], [R|t].

    Batched: one (n, 4, 4) SVD instead of n small ones.
    """
    n = len(xq)
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([R, t.reshape(3, 1)])
    A = np.empty((n, 4, 4))
    A[:, 0] = xq[:, 0, None] * P1[2] - P1[0]
    A[:, 1] = xq[:, 1, None] * P1[2] - P1[1]
    A[:, 2] = xc[:, 0, None] * P2[2] - P2[0]
    A[:, 3] = xc[:, 1, None] * P2[2] - P2[1]
    _, _, Vt = np.linalg.svd(A)
    X = Vt[:, -1, :]
    w = X[:, 3].copy()
    w[np.abs(w) < 1e-15] = 1e-15
    return X[:, :3] / w[:, None]


def relative_pose_from_fundamental(geom: TwoViewGeometry, K_q, K_c, pts_q, pts_c):
    """Decompose E = K_c^T F K_q into the (R, t) of the target w.r.t. the query.

    Returns (R, t, cheirality_count) with unit-norm t.  Raises
    DegenerateGeometryError when no candidate passes the positive-depth
    majority (e.g. a zero-baseline pair).
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
    return R, tc, count


def triangulate_track(observations: Sequence, *,
                      max_error: float = TRI_MAX_ERROR_PX,
                      min_angle_deg: float = TRI_MIN_ANGLE_DEG) -> Triangulated | None:
    """Triangulate a track of (Camera, pixel) observations.

    Linear DLT solution refined by one Gauss-Newton step on reprojection
    error (the step is kept only when it does not increase the error).
    Returns None when the track fails the acceptance gates (reprojection,
    triangulation angle, positive depth); raises DegenerateGeometryError for
    structurally parallel rays.
    """
    cams = [obs[0] for obs in observations]
    pix = np.array([obs[1] for obs in observations], dtype=np.float64)
    n = len(cams)
    if n < 2:
        raise InsufficientDataError("need >= 2 observations")
    centers = np.stack([c.center() for c in cams])
    if np.all(np.linalg.norm(centers - centers[0], axis=1) < 1e-12):
        raise DegenerateGeometryError("all observations share one camera centre")
    P = [c.K @ np.hstack([c.R, c.t.reshape(3, 1)]) for c in cams]
    A = np.zeros((2 * n, 4))
    for i in range(n):
        A[2 * i] = pix[i, 0] * P[i][2] - P[i][0]
        A[2 * i + 1] = pix[i, 1] * P[i][2] - P[i][1]
    _, _, Vt = np.linalg.svd(A)
    Xh = Vt[-1]
    if abs(Xh[3]) < 1e-12 * np.linalg.norm(Xh[:3]):
        raise DegenerateGeometryError("triangulation rays are parallel")
    X = Xh[:3] / Xh[3]

    def reproject(Xw):
        res = np.zeros((n, 2))
        depths = np.zeros(n)
        for i, c in enumerate(cams):
            xc = c.R @ Xw + c.t
            depths[i] = xc[2]
            if xc[2] <= 1e-12:
                res[i] = np.inf
                continue
            uv = c.K @ xc
            res[i] = uv[:2] / uv[2] - pix[i]
        return res, depths

    res, depths = reproject(X)
    err = float(np.mean(np.linalg.norm(res, axis=1))) if np.all(np.isfinite(res)) else np.inf

    # one Gauss-Newton pass on the reprojection residuals
    if np.isfinite(err):
        J = np.zeros((2 * n, 3))
        for i, c in enumerate(cams):
            xc = c.R @ X + c.t
            f = c.K[0, 0]
            x, y, z = xc
            d_uv = np.array([[f / z, 0.0, -f * x / z ** 2],
                             [0.0, f / z, -f * y / z ** 2]])
            J[2 * i:2 * i + 2] = d_uv @ c.R
        r = res.reshape(-1)
        H = J.T @ J
        H[np.arange(3), np.arange(3)] += 1e-12
        try:
            step = np.linalg.solve(H, -(J.T @ r))
            X_new = X + step
            res_new, depths_new = reproject(X_new)
            if np.all(np.isfinite(res_new)):
                err_new = float(np.mean(np.linalg.norm(res_new, axis=1)))
                if err_new <= err:
                    X, res, depths, err = X_new, res_new, depths_new, err_new
        except np.linalg.LinAlgError:
            pass

    if not np.isfinite(err) or np.any(depths <= 0):
        return None
    if err > max_error:
        return None
    rays = X[None, :] - centers
    rays /= np.maximum(np.linalg.norm(rays, axis=1, keepdims=True), 1e-15)
    cosang = rays @ rays.T
    np.fill_diagonal(cosang, 1.0)
    max_angle = np.arccos(np.clip(cosang.min(), -1.0, 1.0))
    if np.degrees(max_angle) < min_angle_deg:
        return None
    return Triangulated(point=X, mean_error=err)
