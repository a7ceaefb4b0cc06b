"""Bundle adjustment: Levenberg-Marquardt over cameras, focal lengths and points.

Each camera has 7 parameters (3 rotation, 3 translation, 1 focal), and one
(n_cam, 7) mask (``free_parameters``) says which are estimated: it removes
the similarity gauge and a given focal length.  Principal points stay fixed,
and rotations update on the left, R <- exp([w]x) R.  The damped normal
equations are solved by eliminating the 3x3 point blocks (Schur complement),
which leaves a dense solve over the free camera parameters.  That reduced
camera system is assembled block by block from each point's pairs of
observing cameras (Triggs et al., "Bundle Adjustment - A Modern Synthesis",
1999, section 6), never through a points x cameras array.  Residuals and
Jacobians use the pinhole model of ``model.pixels`` and
``model.pixel_jacobian``, and the result is the LM solve's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MsfmError
from .model import Camera, Model, make_intrinsics, pixel_jacobian, pixels

BA_MAX_ITERS = 100
BA_REL_TOL = 1e-6

CAM_PARAMS = 7  # rotation (3), translation (3), focal (1)


def rodrigues(w: np.ndarray) -> np.ndarray:
    """exp([w]x) for rotation vectors w (..., 3), as (..., 3, 3) matrices."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.sqrt(w[..., None, :] @ w[..., :, None])  # (..., 1, 1)
    # below 1e-12 rad, I + [w]x: k is w itself, weighted 1 and 0
    small = theta < 1e-12
    k = w / np.where(small, 1.0, theta)[..., 0]
    zero = np.zeros(k.shape[:-1])
    K = np.stack([zero, -k[..., 2], k[..., 1], k[..., 2], zero, -k[..., 0],
                  -k[..., 1], k[..., 0], zero], axis=-1).reshape(k.shape[:-1] + (3, 3))
    return (np.eye(3) + np.where(small, 1.0, np.sin(theta)) * K
            + np.where(small, 0.0, 1.0 - np.cos(theta)) * (K @ K))


def pose_jacobian(xc: np.ndarray, t: np.ndarray, f):
    """Jacobians of pinhole pixels at camera-frame points ``xc = R X + t``.

    Returns d(pixel)/d(camera-frame point), (n, 2, 3) (``pixel_jacobian``),
    and d(pixel)/d(pose), (n, 2, 6), over a left rotation increment
    (R <- exp([w]x) R) then the translation.  ``f`` is the focal length, a
    scalar or one per row.
    """
    n = len(xc)
    d_uv = pixel_jacobian(xc, f)
    # rotation: left increment, d(xc)/dw = -[R X]x
    RX = xc - t
    d_rot = np.zeros((n, 3, 3))
    d_rot[:, 0, 1] = RX[:, 2]
    d_rot[:, 0, 2] = -RX[:, 1]
    d_rot[:, 1, 0] = -RX[:, 2]
    d_rot[:, 1, 2] = RX[:, 0]
    d_rot[:, 2, 0] = RX[:, 1]
    d_rot[:, 2, 1] = -RX[:, 0]
    J = np.zeros((n, 2, 6))
    J[:, :, 0:3] = d_uv @ d_rot
    J[:, :, 3:6] = d_uv
    return d_uv, J


@dataclass
class BAProblem:
    """Observation arrays plus the parameter state being optimized."""

    R: np.ndarray          # (n_cam, 3, 3) world-to-camera rotations
    t: np.ndarray          # (n_cam, 3)
    f: np.ndarray          # (n_cam,)
    pp: np.ndarray         # (n_cam, 2) fixed principal points
    X: np.ndarray          # (n_pts, 3)
    cam_idx: np.ndarray    # (n_obs,)
    pt_idx: np.ndarray     # (n_obs,)
    uv: np.ndarray         # (n_obs, 2) measured pixels

    @property
    def n_cams(self) -> int:
        return len(self.f)

    @property
    def n_pts(self) -> int:
        return len(self.X)

    @property
    def n_obs(self) -> int:
        return len(self.uv)

    def camera_points(self, R=None, t=None, X=None) -> np.ndarray:
        """(n_obs, 3) camera-frame points R X + t of the observations."""
        R = self.R if R is None else R
        t = self.t if t is None else t
        X = self.X if X is None else X
        return np.einsum("oij,oj->oi", R[self.cam_idx], X[self.pt_idx]) + t[self.cam_idx]

    def residuals(self, R=None, t=None, f=None, X=None) -> np.ndarray:
        """(n_obs, 2) reprojection residuals, prediction minus measurement."""
        f = (self.f if f is None else f)[self.cam_idx]
        return pixels(self.camera_points(R, t, X), f, self.pp[self.cam_idx]) - self.uv

    def jacobian_blocks(self):
        """Per-observation (2,7) camera and (2,3) point Jacobian blocks."""
        xc = self.camera_points()
        d_uv, J_pose = pose_jacobian(xc, self.t[self.cam_idx], self.f[self.cam_idx])
        Jc = np.zeros((self.n_obs, 2, CAM_PARAMS))
        Jc[:, :, 0:6] = J_pose
        Jc[:, :, 6] = xc[:, :2] / xc[:, 2:3]  # d pixel / d f
        return Jc, d_uv @ self.R[self.cam_idx]


def problem_from_model(model: Model, feature_store) -> tuple[BAProblem, list[int], list[int]]:
    """The model as a BA problem: observations grouped by point, cameras
    ascending within a track.  ``feature_store.position(image_id, ids)``
    gathers an image's feature positions for an array of feature ids.
    Returns (problem, camera image ids, point ids) in problem order."""
    cam_ids = model.image_ids()
    pt_ids = model.point_ids()
    point, image, obs_feature = model.observations()
    obs_cam = np.searchsorted(cam_ids, image)
    # one position gather per image, over the observations sorted by camera
    order = np.argsort(obs_cam, kind="stable")
    starts = np.searchsorted(obs_cam[order], np.arange(len(cam_ids) + 1))
    obs_uv = np.zeros((len(obs_cam), 2))
    for c, image_id in enumerate(cam_ids):
        rows = order[starts[c]:starts[c + 1]]
        obs_uv[rows] = feature_store.position(image_id, obs_feature[rows])
    problem = BAProblem(
        R=np.stack([model.cameras[c].R for c in cam_ids]),
        t=np.stack([model.cameras[c].t for c in cam_ids]),
        f=np.array([model.cameras[c].K[0, 0] for c in cam_ids]),
        pp=np.stack([model.cameras[c].K[:2, 2] for c in cam_ids]),
        X=np.stack([model.points[p].position for p in pt_ids]),
        cam_idx=obs_cam,
        pt_idx=np.searchsorted(pt_ids, point),
        uv=obs_uv,
    )
    return problem, cam_ids, pt_ids


@dataclass
class BAStats:
    initial_cost: float
    final_cost: float
    iterations: int
    pruned_points: int = 0


# observation pairs per stacked product when the reduced camera system is built
_SCHUR_PAIR_CHUNK = 2048


@dataclass
class _Segments:
    """Observations grouped into consecutive runs, one run per camera or per
    point: ``order`` lists the observation rows run by run, and run i holds
    ``counts[i]`` rows from ``starts[i]``."""

    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, order: np.ndarray, labels: np.ndarray, n: int) -> "_Segments":
        counts = np.bincount(labels, minlength=n)
        return cls(order, np.cumsum(counts) - counts, counts)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-run sums of the rows of ``values``, added in ``order``.  An
        empty run sums to zero, so only the other runs are reduced:
        ``np.add.reduceat`` gives an empty run the next run's first row."""
        sums = np.zeros((len(self.counts),) + values.shape[1:])
        filled = self.counts > 0
        sums[filled] = np.add.reduceat(values[self.order], self.starts[filled], axis=0)
        return sums


class _CameraPairChunks:
    """Each point's pairs of observing cameras, for the reduced camera system.

    A point seen from cameras a <= b (a == b pairs an observation with
    itself) couples block (b, a) of the system through its observations
    ``ob`` in b and ``oa`` in a.  The pairs are listed camera by camera: each
    observation ``ob``, in ``by_cam`` order, with the observations of its
    point up to itself in ``by_point`` order.  They are cut into chunks of
    about ``_SCHUR_PAIR_CHUNK`` pairs, and a chunk's pairs are listed only
    when it is iterated, so memory follows the chunk, not the sum of squared
    track lengths; a chunk spans few cameras b, so its pairs fall into few
    camera pairs.  Iterating yields (ob, oa, run starts, b, a) per chunk: the
    chunk's pairs sorted by camera pair, one run per camera pair.
    """

    def __init__(self, cam_idx: np.ndarray, by_cam: _Segments, by_point: _Segments, nc: int):
        self.cam_idx, self.nc = cam_idx, nc
        self.ob_order, self.oa_order = by_cam.order, by_point.order
        n = len(cam_idx)
        position = np.empty(n, dtype=np.intp)
        position[by_point.order] = np.arange(n)
        position = position[by_cam.order]
        # by_point position of each observation's point run, camera by camera
        self.first = np.repeat(by_point.starts, by_point.counts)[position]
        self.partners = position - self.first + 1
        pair_ends = np.cumsum(self.partners)
        total = int(pair_ends[-1]) if n else 0
        cuts = np.searchsorted(pair_ends, np.arange(_SCHUR_PAIR_CHUNK, total, _SCHUR_PAIR_CHUNK),
                               side="right")
        self.bounds = np.unique(np.concatenate(([0], cuts, [n]))).tolist()

    def __iter__(self):
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            partners = self.partners[lo:hi]
            ob = np.repeat(self.ob_order[lo:hi], partners)
            offset = np.arange(len(ob)) - np.repeat(np.cumsum(partners) - partners, partners)
            oa = self.oa_order[np.repeat(self.first[lo:hi], partners) + offset]
            key = self.cam_idx[ob] * self.nc + self.cam_idx[oa]
            by_pair = np.argsort(key, kind="stable")
            oa, ob, key = oa[by_pair], ob[by_pair], key[by_pair]
            runs = np.flatnonzero(np.diff(key, prepend=-1))
            yield ob, oa, runs, key[runs] // self.nc, key[runs] % self.nc


def _reduced_camera_system(pair_chunks: _CameraPairChunks, B: np.ndarray, BM: np.ndarray,
                           H_cc_d: np.ndarray) -> np.ndarray:
    """The (nc nu, nc nu) Schur complement S = H_cc_d - W M W^T, built from
    the camera pairs of ``pair_chunks``: block (b, a) of W M W^T
    sums B_ob M_p B_oa^T over the points p that cameras b and a share, with
    ``BM`` = B M per observation.  ``H_cc_d`` holds the damped (nc, nu, nu)
    camera blocks."""
    nc, nu = H_cc_d.shape[:2]
    S = np.zeros((nc * nu, nc * nu))
    blocks = S.reshape(nc, nu, nc, nu)
    for ob, oa, runs, b, a in pair_chunks:
        coupled = np.add.reduceat(BM[ob] @ B[oa].transpose(0, 2, 1), runs, axis=0)
        blocks[b, :, a, :] -= coupled
        off = b != a
        blocks[a[off], :, b[off], :] -= coupled[off].transpose(0, 2, 1)
    cams = np.arange(nc)
    blocks[cams, :, cams, :] += H_cc_d
    return S


def _normal_equations(problem: BAProblem, res: np.ndarray, by_cam: _Segments,
                      by_point: _Segments):
    """The undamped normal equations at the current parameters, with
    residuals ``res``: camera blocks H_cc (n_cam, nu, nu) and gradient g_cam,
    point blocks H_pp (n_pts, 3, 3) and g_pt, and the coupling B (n_obs, nu, 3)."""
    nu = CAM_PARAMS
    Jc, Jp = problem.jacobian_blocks()
    # one (2 n_c, nu) Gram product per camera
    H_cc = np.stack([J.T @ J for J in (
        Jc[by_cam.order[lo:lo + n]].reshape(-1, nu)
        for lo, n in zip(by_cam.starts.tolist(), by_cam.counts.tolist()))])
    g_cam = by_cam.sum(np.einsum("oki,ok->oi", Jc, res))
    H_pp = by_point.sum(np.einsum("oki,okj->oij", Jp, Jp))
    g_pt = by_point.sum(np.einsum("oki,ok->oi", Jp, res))
    return H_cc, g_cam, H_pp, g_pt, Jc.transpose(0, 2, 1) @ Jp


def free_parameters(problem: BAProblem, *, fix_focal: bool = False) -> np.ndarray:
    """The (n_cam, 7) boolean mask of the camera parameters BA estimates.

    The 7 parameters of the similarity gauge are removed (Triggs et al.
    1999, section 9): camera 0's pose, and one translation component of
    camera 1 (a problem with observations has two cameras or more), the
    largest of b = t1 + R1 C0 = R1 (C0 - C1), the direction that scale
    moves t1 once camera 0 is fixed.  ``fix_focal`` fixes every focal, as
    does a two-camera problem: its focals trade against depth at no cost
    when the optical axes meet (Sturm, CVPR 1997).
    """
    free = np.ones((problem.n_cams, CAM_PARAMS), dtype=bool)
    free[0, :6] = False
    b = problem.t[1] - problem.R[1] @ problem.R[0].T @ problem.t[0]
    free[1, 3 + int(np.argmax(np.abs(b)))] = False
    free[:, 6] = not fix_focal and problem.n_cams > 2
    return free


def _lm_iterate(problem: BAProblem, max_iters: int,
                free: np.ndarray) -> tuple[float, float, int]:
    """Levenberg-Marquardt on the camera parameters of the (n_cam, 7) mask
    ``free`` and on all points; returns (initial cost, final cost,
    iterations).  A point has at most one observation per camera.

    The normal equations are summed per camera and per point over runs of
    the observations, and the reduced camera system over each point's pairs
    of observing cameras, listed a chunk at a time: work follows the
    observations and the sum of squared track lengths, and memory the
    observations, never points times cameras.  The system is solved over
    the free columns only, and the fixed parameters step by exactly zero.
    """
    nc, npnt = problem.n_cams, problem.n_pts
    nu = CAM_PARAMS
    free = np.flatnonzero(free.reshape(-1))  # flat indices of the free parameters
    res = problem.residuals()
    cost = float((res ** 2).sum())
    if not np.isfinite(cost):
        raise FloatingPointError("non-finite initial cost")
    initial_cost = cost
    lam = 1e-6
    diag3 = np.arange(3)
    diagu = np.arange(nu)
    by_cam = _Segments.of(np.argsort(problem.cam_idx, kind="stable"), problem.cam_idx, nc)
    by_point = _Segments.of(np.lexsort((problem.cam_idx, problem.pt_idx)), problem.pt_idx, npnt)
    pair_chunks = _CameraPairChunks(problem.cam_idx, by_cam, by_point, nc)
    it = 0
    while it < max_iters:
        it += 1
        B = BM = None  # release the last iteration's couplings before the next
        H_cc, g_cam, H_pp, g_pt, B = _normal_equations(problem, res, by_cam, by_point)

        for _ in range(12):
            H_pp_d = H_pp.copy()
            H_pp_d[:, diag3, diag3] += lam * np.maximum(H_pp[:, diag3, diag3], 1e-12)
            try:
                M = np.linalg.inv(H_pp_d)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue

            BM = B @ M[problem.pt_idx]
            H_cc_d = H_cc.copy()
            H_cc_d[:, diagu, diagu] += lam * np.maximum(H_cc[:, diagu, diagu], 1e-12)
            S = _reduced_camera_system(pair_chunks, B, BM, H_cc_d)

            rhs = by_cam.sum(np.einsum("oab,ob->oa", BM, g_pt[problem.pt_idx])) - g_cam
            delta_cam = np.zeros((nc, nu))
            try:
                delta_cam.flat[free] = np.linalg.solve(S[np.ix_(free, free)], rhs.flat[free])
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue

            # back-substitute the point updates
            acc = by_point.sum(np.einsum("oab,oa->ob", B, delta_cam[problem.cam_idx]))
            delta_pt = np.einsum("pij,pj->pi", M, -g_pt - acc)

            R_new = rodrigues(delta_cam[:, 0:3]) @ problem.R
            t_new = problem.t + delta_cam[:, 3:6]
            f_new = problem.f + delta_cam[:, 6]
            X_new = problem.X + delta_pt
            res_new = problem.residuals(R=R_new, t=t_new, f=f_new, X=X_new)
            cost_new = float((res_new ** 2).sum())
            if np.isfinite(cost_new) and cost_new < cost:
                rel = (cost - cost_new) / max(cost, 1e-30)
                problem.R, problem.t, problem.f, problem.X = R_new, t_new, f_new, X_new
                res, cost = res_new, cost_new
                lam = max(lam / 10.0, 1e-15)
                if rel < BA_REL_TOL:
                    return initial_cost, cost, it
                break
            lam *= 10.0
        else:
            break  # no damping gave a lower cost
    return initial_cost, cost, it


def bundle_adjust(model: Model, feature_store, *, max_iters: int = BA_MAX_ITERS,
                  fix_focal: bool = False) -> BAStats:
    """Optimize the points and the free camera parameters
    (``free_parameters``) in place.

    Points producing non-finite residuals (behind a camera) are pruned once
    and the optimization retried; a second failure raises.
    """
    pruned = 0
    for attempt in range(2):
        problem, cam_ids, pt_ids = problem_from_model(model, feature_store)
        if problem.n_obs == 0:
            return BAStats(0.0, 0.0, 0)
        bad = ~np.isfinite(problem.residuals()).all(axis=1)
        bad |= problem.camera_points()[:, 2] <= 1e-9
        if bad.any():
            if attempt == 1:
                raise MsfmError("bundle adjustment still degenerate after pruning")
            for p in np.unique(problem.pt_idx[bad]):
                model.remove_point(pt_ids[p])
                pruned += 1
            continue
        free = free_parameters(problem, fix_focal=fix_focal)
        initial, final, iters = _lm_iterate(problem, max_iters, free)
        for i, image_id in enumerate(cam_ids):
            old = model.cameras[image_id]
            R = problem.R[i]
            if free[i, :3].any():  # back onto SO(3); a fixed rotation stays bit-equal
                U, _, Vt = np.linalg.svd(R)
                R = U @ Vt
                if np.linalg.det(R) < 0:
                    R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
            model.replace_camera(Camera(
                K=make_intrinsics(float(problem.f[i]), old.K[0, 2], old.K[1, 2]),
                R=R, t=problem.t[i], image_id=image_id,
            ))
        for j, pid in enumerate(pt_ids):
            model.set_position(pid, problem.X[j])
        return BAStats(initial_cost=initial, final_cost=final,
                       iterations=iters, pruned_points=pruned)
    raise MsfmError("unreachable")
