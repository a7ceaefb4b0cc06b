"""Two-view epipolar geometry and multi-view triangulation.

Conventions: pixels project as x ~ K (R X + t) (``model.pixels``), camera
centre C = -R^T t, pixel origin at the top-left with y growing downward.
A two-view geometry is its fundamental matrix F, a (3, 3) array mapping
query-image points to target-image lines, i.e. p_target^T F p_query = 0,
kept Frobenius-normalized with rank 2.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DegenerateGeometryError, InsufficientDataError
from .model import Camera, pixel_jacobian, pixels

SAMPSON_THRESHOLD_PX = 2.0
RANSAC_CONFIDENCE = 0.999
RANSAC_MAX_ITERS = 2048
MIN_EDGE_INLIERS = 16
# samples per problem in each lockstep round of block_ransac; the last repeats
RANSAC_BLOCKS = (8, 16, 32, 64, 128)
# samples per stacked fit: a round's lockstep block is fitted in stacks of at
# most this many, which bounds the fit's temporaries (a stacked SVD or QR works
# one matrix at a time, so the stack size changes no result)
RANSAC_FIT_STACK = 256

TRI_MAX_ERROR_PX = 4.0
TRI_MIN_ANGLE_DEG = 1.0


def skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _normalize_f(F: np.ndarray) -> np.ndarray:
    """Frobenius-normalize F (..., 3, 3); the largest-magnitude entry turns positive."""
    # vecdot is the dot product np.linalg.norm takes, one slice at a time
    flat = F.reshape(*F.shape[:-2], 9)
    F = F / np.sqrt(np.vecdot(flat, flat))[..., None, None]
    flat = F.reshape(*F.shape[:-2], 9)
    big = np.take_along_axis(flat, np.abs(flat).argmax(axis=-1)[..., None], axis=-1)
    return np.where(big[..., None] < 0, -F, F)


def fundamental_from_poses(cam_q, cam_c) -> np.ndarray:
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
    return _normalize_f(F)


def _hartley_normalize(pts: np.ndarray):
    """Centred, scaled points (..., n, 2) and their transforms T (..., 3, 3)."""
    centroid = pts.mean(axis=-2, keepdims=True)
    centered = pts - centroid
    rms = np.sqrt((centered ** 2).sum(axis=-1).mean(axis=-1))
    s = np.sqrt(2.0) / np.maximum(rms, 1e-12)
    T = np.zeros((*s.shape, 3, 3))
    T[..., 0, 0] = T[..., 1, 1] = s
    T[..., :2, 2] = -s[..., None] * centroid[..., 0, :]
    T[..., 2, 2] = 1.0
    return centered * s[..., None, None], T


def eight_point(pts_q: np.ndarray, pts_c: np.ndarray):
    """Normalized 8-point fits of a stack of b correspondence sets.

    ``pts_q`` and ``pts_c`` are (b, n, 2), n >= 8.  Returns F (b, 3, 3).
    A minimal sample (n = 8) takes its null vector from a QR of A^T, a
    taller system from the thin SVD of A.  Raises np.linalg.LinAlgError
    when any slice's factorization fails.
    """
    nq, Tq = _hartley_normalize(np.asarray(pts_q, dtype=np.float64))
    nc, Tc = _hartley_normalize(np.asarray(pts_c, dtype=np.float64))
    x, y = nq[..., 0], nq[..., 1]
    xp, yp = nc[..., 0], nc[..., 1]
    A = np.stack([xp * x, xp * y, xp, yp * x, yp * y, yp, x, y, np.ones_like(x)], axis=-1)
    if A.shape[-2] < A.shape[-1]:
        # an 8 x 9 minimal sample has an exact null vector: the last column
        # of the complete Q of A^T, orthogonal to A's rows
        null = np.linalg.qr(np.swapaxes(A, -1, -2), mode="complete")[0][..., -1]
    else:
        # tall: the thin SVD keeps the least singular vector
        null = np.linalg.svd(A, full_matrices=False)[2][:, -1]
    U, sv, Vt2 = np.linalg.svd(null.reshape(-1, 3, 3))
    D = np.zeros_like(U)
    D[:, 0, 0], D[:, 1, 1] = sv[:, 0], sv[:, 1]
    F = Tc.transpose(0, 2, 1) @ (U @ D @ Vt2) @ Tq
    return _normalize_f(F)


def sampson_distance(F: np.ndarray, pts_q: np.ndarray, pts_c: np.ndarray) -> np.ndarray:
    """First-order geometric error of the epipolar constraint, in pixels.

    F is (3, 3) or a stack (b, 3, 3); the distances are (n,) or (b, n).
    """
    ones = np.ones((len(pts_q), 1))
    hq = np.hstack([pts_q, ones])
    hc = np.hstack([pts_c, ones])
    Fq = hq @ np.swapaxes(F, -1, -2)      # lines in the target image
    Ftc = hc @ F                          # lines in the query image
    num = np.einsum("ij,...ij->...i", hc, Fq)
    den = Fq[..., 0] ** 2 + Fq[..., 1] ** 2 + Ftc[..., 0] ** 2 + Ftc[..., 1] ** 2
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


def draw_samples(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    """m samples of k distinct items of n, (m, k) with sorted rows.

    One ``rng.random((m, n))`` call; each row takes the items of its k
    smallest keys.  m calls with m = 1 draw the same samples as one call.
    """
    keys = rng.random((m, n))
    return np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)


def _fit_block(fit, owner: np.ndarray, samples: np.ndarray):
    """``fit``'s (hypotheses, ok) for a block of samples, in stacks of at
    most ``RANSAC_FIT_STACK``.

    A stacked SVD that raises fails its whole stack, so such a stack is
    refit one sample at a time; a sample that raises alone is not ok.
    """
    hypotheses, ok = None, np.zeros(len(samples), dtype=bool)

    def put(rows, fitted):
        nonlocal hypotheses
        if hypotheses is None:
            hypotheses = np.zeros((len(samples), *fitted[0].shape[1:]))
        hypotheses[rows], ok[rows] = fitted

    for lo in range(0, len(samples), RANSAC_FIT_STACK):
        stack = slice(lo, lo + RANSAC_FIT_STACK)
        try:
            put(stack, fit(owner[stack], samples[stack]))
        except np.linalg.LinAlgError:
            for j in range(*stack.indices(len(samples))):
                try:
                    put(slice(j, j + 1), fit(owner[j:j + 1], samples[j:j + 1]))
                except np.linalg.LinAlgError:
                    pass
    return hypotheses, ok


def _local_opt(refine, i: int, mask: np.ndarray, support: int):
    """Apply ``refine`` to a new best consensus while its count grows."""
    while (grown := refine(i, mask)) is not None and (count := int(grown.sum())) > support:
        mask, support = grown, count
    return mask, support


def block_ransac(sizes, seeds, sample_size: int, fit, score, *,
                 confidence: float, max_iters: int, refine=None):
    """Best consensus of each of several RANSAC problems, run in lockstep.

    Problem i draws its samples of ``sample_size`` of its ``sizes[i]`` items
    from ``np.random.default_rng(seeds[i])`` (``draw_samples``).  Each
    round, every unfinished problem draws a block of samples in one call
    (sizes ``RANSAC_BLOCKS``, never past its current stop count); one
    ``fit(owner, samples)`` call fits the whole round, ``owner`` (b,) naming
    each sample's problem and ``samples`` (b, k) its items, and returns
    (hypotheses stacked on a leading axis, ok (b,)).  ``score(i,
    hypotheses)`` gives the (m, sizes[i]) inlier masks of problem i's fits.
    The draws are then replayed in order with the sequential update: a
    draw that beats the best count so far takes its mask and lowers the
    stop count (``ransac_stop_count``); draws past the stop are discarded.
    A sample whose fit is not ok, or whose SVD fails, counts as a draw.

    ``refine(i, mask)``, when given, is the local optimisation of a new
    best: it returns a refitted consensus of problem i, or None.  It is
    applied again while the count grows, and the stop count follows the
    refined count; a refined mask that does not grow is dropped.

    Returns one (best mask or None, best count) per problem.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    drawn = [0] * len(sizes)
    needed = [max_iters] * len(sizes)
    best = [(None, 0)] * len(sizes)
    blocks = itertools.chain(RANSAC_BLOCKS, itertools.repeat(RANSAC_BLOCKS[-1]))
    live = list(range(len(sizes)))
    while live:
        block = next(blocks)
        draws = [min(block, needed[i] - drawn[i]) for i in live]
        samples = np.concatenate([draw_samples(rngs[i], sizes[i], sample_size, m)
                                  for i, m in zip(live, draws)])
        hypotheses, ok = _fit_block(fit, np.repeat(live, draws), samples)
        stop = 0
        for i, m in zip(live, draws):
            rows = slice(stop, stop + m)
            stop += m
            masks = np.zeros((m, sizes[i]), dtype=bool)
            if ok[rows].any():
                masks[ok[rows]] = score(i, hypotheses[rows][ok[rows]])
            for mask, support in zip(masks, masks.sum(axis=1).tolist()):
                if drawn[i] >= needed[i]:
                    break
                drawn[i] += 1
                if support > best[i][1]:
                    if refine is not None:
                        mask, support = _local_opt(refine, i, mask, support)
                    best[i] = (mask, support)
                    needed[i] = ransac_stop_count(support / sizes[i], sample_size,
                                                  confidence, max_iters)
        live = [i for i in live if drawn[i] < needed[i]]
    return best


def estimate_fundamental_ransac(problems):
    """Robust fundamental matrices of image pairs by 8-point RANSAC.

    ``problems`` is a sequence of (pts_q, pts_c, seed), one per pair; the
    pairs are verified in lockstep (``block_ransac``), each drawing from its
    own seed.  Returns one (F, inlier_mask) per pair; the
    caller decides whether the inlier count clears its gate.  Raises
    InsufficientDataError when a pair has below 8 correspondences.
    """
    if not problems:
        return []
    pts = [(np.asarray(q, dtype=np.float64).reshape(-1, 2),
            np.asarray(c, dtype=np.float64).reshape(-1, 2)) for q, c, _ in problems]
    sizes = [len(q) for q, _ in pts]
    if min(sizes) < 8:
        raise InsufficientDataError(f"need >= 8 correspondences, got {min(sizes)}")
    offsets = np.cumsum([0] + sizes[:-1])
    all_q, all_c = (np.concatenate(side) for side in zip(*pts))

    def fit(owner, samples):
        rows = offsets[owner][:, None] + samples
        return eight_point(all_q[rows], all_c[rows]), np.ones(len(rows), dtype=bool)

    def score(i, F):
        return sampson_distance(F, *pts[i]) < SAMPSON_THRESHOLD_PX

    found = block_ransac(sizes, [seed for *_, seed in problems], 8, fit, score,
                         confidence=RANSAC_CONFIDENCE, max_iters=RANSAC_MAX_ITERS)
    results = [(np.eye(3) / np.sqrt(3.0), np.zeros(size, dtype=bool)) for size in sizes]
    # one stacked refit per best count; the SVDs run slice by slice, so each
    # F is the one a refit of its pair alone gives
    by_count: dict[int, list[int]] = {}
    for i, (_, count) in enumerate(found):
        if count >= 8:
            by_count.setdefault(count, []).append(i)
    for which in by_count.values():
        Fs = eight_point(*(np.stack([pts[i][side][found[i][0]] for i in which])
                           for side in (0, 1)))
        for i, F in zip(which, Fs):
            results[i] = (F, sampson_distance(F, *pts[i]) < SAMPSON_THRESHOLD_PX)
    return results


def _dlt_rows(P: np.ndarray, pix: np.ndarray) -> np.ndarray:
    """DLT rows x P[2] - P[0], y P[2] - P[1]: (..., k, 3, 4), (..., k, 2) -> (..., 2k, 4)."""
    A = pix[..., None] * P[..., 2:3, :] - P[..., :2, :]
    return A.reshape(*A.shape[:-3], -1, 4)


def relative_pose_from_fundamental(F: np.ndarray, K_q, K_c, pts_q, pts_c):
    """Decompose E = K_c^T F K_q into the (R, t) of the target w.r.t. the query.

    The four (R, +-t) candidates triangulate the pairs in one
    ``triangulate_track`` pass, the query camera at K_q [I | 0] and each
    candidate's at K_c [R | t]; the first candidate placing the most points
    in front of both cameras wins.  Returns (R, t, cheirality_count, median
    triangulation angle in radians) with unit-norm t.  Raises
    DegenerateGeometryError when no candidate passes the positive-depth
    majority (e.g. a zero-baseline pair).
    """
    pts_q = np.asarray(pts_q, dtype=np.float64).reshape(-1, 2)
    pts_c = np.asarray(pts_c, dtype=np.float64).reshape(-1, 2)
    n = len(pts_q)
    if n < 5:
        raise InsufficientDataError(f"need >= 5 inliers, got {n}")
    E = K_c.T @ F @ K_q
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    candidates = [(R, tc) for R in (U @ W @ Vt, U @ W.T @ Vt) for tc in (t, -t)]
    cameras = {0: Camera(K=K_q, R=np.eye(3), t=np.zeros(3), image_id=0)}
    for j, (R, tc) in enumerate(candidates, start=1):
        cameras[j] = Camera(K=K_c, R=R, t=tc, image_id=j)
    images = np.stack([np.zeros(4 * n, dtype=np.int64), np.repeat(np.arange(1, 5), n)], axis=1)
    pix = np.tile(np.stack([pts_q, pts_c], axis=1), (4, 1, 1))
    X, _, _ = triangulate_track(cameras, images, pix)
    best = None
    for (R, tc), Xc in zip(candidates, X.reshape(4, n, 3)):
        count = int(((Xc[:, 2] > 0) & ((Xc @ R.T + tc)[:, 2] > 0)).sum())
        if best is None or count > best[0]:
            best = (count, R, tc, Xc)
    count, R, tc, X = best
    if count <= n // 2:
        raise DegenerateGeometryError(
            f"no pose candidate places a majority of points in front ({count}/{n})"
        )
    rays = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-15)
    rays2 = X + R.T @ tc
    rays2 /= np.maximum(np.linalg.norm(rays2, axis=1, keepdims=True), 1e-15)
    cosang = np.clip(np.einsum("ij,ij->i", rays, rays2), -1.0, 1.0)
    median_angle = float(np.median(np.arccos(cosang)))
    if median_angle < 1e-4:
        raise DegenerateGeometryError("near-zero parallax; relative pose unobservable")
    return R, tc, count, median_angle


def _reproject(f, pp, R, t, X, pix):
    """Residuals (n, k, 2), camera-frame points (n, k, 3) and mean errors (n,)
    of points X (n, 3); a point at or behind a camera reads an inf error."""
    xc = (R @ X[:, None, :, None])[..., 0] + t
    res = pixels(xc, f, pp) - pix
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
    f = np.array([c.K[0, 0] for c in cams])[slot]
    pp = np.stack([c.K[:2, 2] for c in cams])[slot]
    R = np.stack([c.R for c in cams])[slot]
    t = np.stack([c.t for c in cams])[slot]
    centers = np.stack([c.center() for c in cams])[slot]
    P = np.stack([c.K @ np.hstack([c.R, c.t.reshape(3, 1)]) for c in cams])[slot]
    shared_centre = (np.linalg.norm(centers - centers[:, :1], axis=-1) < 1e-12).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # thin: the (n, 2k, 4) stack is tall, and Vt is the same
        _, _, Vt = np.linalg.svd(_dlt_rows(P, pix), full_matrices=False)
        Xh = Vt[:, -1]
        parallel = np.abs(Xh[:, 3]) < 1e-12 * np.linalg.norm(Xh[:, :3], axis=-1)
        X = Xh[:, :3] / Xh[:, 3:]
        res, xc, err = _reproject(f, pp, R, t, X, pix)

        # one Gauss-Newton pass on the reprojection residuals; a singular
        # system skips its own track's step only
        live = np.flatnonzero(np.isfinite(err))
        J = (pixel_jacobian(xc[live], f[live]) @ R[live]).reshape(len(live), 2 * k, 3)
        Jt = J.transpose(0, 2, 1)
        H = Jt @ J
        H[:, np.arange(3), np.arange(3)] += 1e-12
        g = Jt @ res[live].reshape(len(live), 2 * k, 1)
        solvable = np.linalg.det(H) != 0
        live = live[solvable]
        X_new = X[live] + np.linalg.solve(H[solvable], -g[solvable])[..., 0]
        _, xc_new, err_new = _reproject(f[live], pp[live], R[live], t[live], X_new, pix[live])
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
