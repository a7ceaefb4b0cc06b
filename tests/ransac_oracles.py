"""One-sample reference implementations of the RANSAC fits and loops.

``msfm.geometry.block_ransac`` draws, fits and scores hypotheses in stacked
blocks, and ``eight_point`` and ``dlt_pose`` fit a stack of samples at once.
The functions here do the same work one sample at a time, in the
hand-written hypothesis loops the stacked code replaced: one draw per
sample, and for resection the local optimisation of each new best
consensus; the tests require bit-identical results from both.
"""

import numpy as np

from msfm.errors import InsufficientDataError
from msfm.geometry import (
    RANSAC_CONFIDENCE,
    RANSAC_MAX_ITERS,
    SAMPSON_THRESHOLD_PX,
    ransac_stop_count,
)
from msfm.reconstruct import (
    PNP_CONFIDENCE,
    PNP_MAX_ITERS,
    PNP_SAMPLE_SIZE,
    PNP_MIN_INLIERS,
    PNP_THRESHOLD_PX,
    refine_pose_lm,
)


def draw_sample(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """One sample of k distinct items of n: those of the k smallest of n
    uniform keys, sorted."""
    return np.sort(np.argpartition(rng.random(n), k - 1)[:k])


def normalize_f(F: np.ndarray) -> np.ndarray:
    F = F / np.linalg.norm(F)
    # canonical sign: the largest-magnitude entry is positive
    flat = np.abs(F).argmax()
    if F.flat[flat] < 0:
        F = -F
    return F


def hartley_normalize(pts: np.ndarray):
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
    """Normalized 8-point fit of one sample."""
    pts_q = np.asarray(pts_q, dtype=np.float64)
    pts_c = np.asarray(pts_c, dtype=np.float64)
    nq, Tq = hartley_normalize(pts_q)
    nc, Tc = hartley_normalize(pts_c)
    x, y = nq[:, 0], nq[:, 1]
    xp, yp = nc[:, 0], nc[:, 1]
    A = np.stack([xp * x, xp * y, xp, yp * x, yp * y, yp, x, y, np.ones_like(x)], axis=1)
    if len(A) < 9:
        # the minimal sample's null vector, as msfm.geometry takes it
        F0 = np.linalg.qr(A.T, mode="complete")[0][:, -1].reshape(3, 3)
    else:
        F0 = np.linalg.svd(A, full_matrices=False)[2][-1].reshape(3, 3)
    U, sv, Vt2 = np.linalg.svd(F0)
    F0 = U @ np.diag([sv[0], sv[1], 0.0]) @ Vt2
    F = Tc.T @ F0 @ Tq
    return normalize_f(F)


def sampson_distance(F: np.ndarray, pts_q: np.ndarray, pts_c: np.ndarray) -> np.ndarray:
    ones = np.ones((len(pts_q), 1))
    hq = np.hstack([pts_q, ones])
    hc = np.hstack([pts_c, ones])
    Fq = hq @ F.T
    Ftc = hc @ F
    num = np.einsum("ij,ij->i", hc, Fq)
    den = Fq[:, 0] ** 2 + Fq[:, 1] ** 2 + Ftc[:, 0] ** 2 + Ftc[:, 1] ** 2
    return np.abs(num) / np.sqrt(np.maximum(den, 1e-30))


def estimate_fundamental_ransac(pts_q, pts_c, *, seed: int = 0):
    """The hand-written 8-point RANSAC loop of one image pair."""
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
        sample = draw_sample(rng, n, 8)
        try:
            F = eight_point(pts_q[sample], pts_c[sample])
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
        return np.eye(3) / np.sqrt(3.0), np.zeros(n, dtype=bool)
    F = eight_point(pts_q[best_mask], pts_c[best_mask])
    return F, sampson_distance(F, pts_q, pts_c) < SAMPSON_THRESHOLD_PX


def dlt_pose(points3d: np.ndarray, pixels: np.ndarray, K: np.ndarray):
    """Projection-matrix DLT resection of one sample; returns (R, t).

    Raises InsufficientDataError below 6 points or when no orientation has
    a point in front.
    """
    X = np.asarray(points3d, dtype=np.float64)
    uv = np.asarray(pixels, dtype=np.float64)
    n = len(X)
    if n < 6:
        raise InsufficientDataError(f"resection needs >= 6 points, got {n}")
    cx = X.mean(axis=0)
    sx = np.sqrt(3.0) / max(np.linalg.norm(X - cx, axis=1).mean(), 1e-12)
    cu = uv.mean(axis=0)
    su = np.sqrt(2.0) / max(np.linalg.norm(uv - cu, axis=1).mean(), 1e-12)
    Xn = (X - cx) * sx
    un = (uv - cu) * su
    A = np.zeros((2 * n, 12))
    Xh = np.hstack([Xn, np.ones((n, 1))])
    A[0::2, 0:4] = Xh
    A[0::2, 8:12] = -un[:, 0:1] * Xh
    A[1::2, 4:8] = Xh
    A[1::2, 8:12] = -un[:, 1:2] * Xh
    _, _, Vt = np.linalg.svd(A, full_matrices=False)
    Pn = Vt[-1].reshape(3, 4)
    Tu = np.array([[su, 0, -su * cu[0]], [0, su, -su * cu[1]], [0, 0, 1.0]])
    Tx = np.eye(4)
    Tx[:3, :3] *= sx
    Tx[:3, 3] = -sx * cx
    P = np.linalg.inv(Tu) @ Pn @ Tx
    G = np.linalg.inv(K) @ P
    best = None
    for sign in (1.0, -1.0):
        M = sign * G[:, :3]
        U, S, Vt2 = np.linalg.svd(M)
        R = U @ Vt2
        if np.linalg.det(R) < 0:
            continue
        scale = S.mean()
        if scale < 1e-12:
            continue
        t = sign * G[:, 3] / scale
        depths = (X @ R.T + t)[:, 2]
        front = int((depths > 0).sum())
        if best is None or front > best[0]:
            best = (front, R, t)
    if best is None or best[0] == 0:
        raise InsufficientDataError("resection produced no valid orientation")
    return best[1], best[2]


def _pnp_mask(R, t, K, X, uv):
    xc = X @ R.T + t
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = K[0, 0] * xc[:, :2] / xc[:, 2:3] + K[:2, 2]
        err = np.linalg.norm(proj - uv, axis=1)
    return (xc[:, 2] > 0) & np.isfinite(err) & (err < PNP_THRESHOLD_PX)


def refit_pose(X, uv, K, mask):
    """DLT on a consensus, LM polish, rescore: (R, t, mask) or None."""
    try:
        R, t = dlt_pose(X[mask], uv[mask], K)
    except (InsufficientDataError, np.linalg.LinAlgError):
        return None
    R, t = refine_pose_lm(R, t, K, X[mask], uv[mask])
    return R, t, _pnp_mask(R, t, K, X, uv)


def pnp_ransac(points3d, pixels, K, *, min_inliers: int = PNP_MIN_INLIERS, seed: int = 0):
    """The hand-written resection RANSAC loop, refitting each new best
    consensus while it grows."""
    X = np.asarray(points3d, dtype=np.float64).reshape(-1, 3)
    uv = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    n = len(X)
    if n < PNP_SAMPLE_SIZE:
        raise InsufficientDataError(f"resection needs >= 6 correspondences, got {n}")
    rng = np.random.default_rng(seed)
    best_mask = None
    best_count = 0
    needed = PNP_MAX_ITERS
    it = 0
    while it < needed and it < PNP_MAX_ITERS:
        it += 1
        sample = draw_sample(rng, n, 6)
        try:
            R, t = dlt_pose(X[sample], uv[sample], K)
        except (InsufficientDataError, np.linalg.LinAlgError):
            continue
        mask = _pnp_mask(R, t, K, X, uv)
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            while True:
                refit = refit_pose(X, uv, K, best_mask)
                if refit is None or int(refit[2].sum()) <= best_count:
                    break
                best_mask = refit[2]
                best_count = int(best_mask.sum())
            needed = ransac_stop_count(best_count / n, 6, PNP_CONFIDENCE, PNP_MAX_ITERS)
    if best_mask is None or best_count < max(min_inliers, PNP_SAMPLE_SIZE):
        return None
    refit = refit_pose(X, uv, K, best_mask)
    if refit is None or int(refit[2].sum()) < min_inliers:
        return None
    return refit
