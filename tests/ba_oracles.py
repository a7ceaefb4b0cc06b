"""Dense reference forms of a ``BAProblem``, for finite-difference checks.

``msfm.ba`` works on per-observation Jacobian blocks and never forms the
full Jacobian or a packed parameter vector; these helpers build both, so
tests can compare the analytic blocks with central differences.
"""

import numpy as np

from msfm.ba import CAM_PARAMS, BAProblem, rodrigues


def dense_jacobian(problem: BAProblem) -> np.ndarray:
    """Full (2 n_obs, 7 n_cam + 3 n_pts) Jacobian, for verification."""
    Jc, Jp = problem.jacobian_blocks()
    J = np.zeros((2 * problem.n_obs, CAM_PARAMS * problem.n_cams + 3 * problem.n_pts))
    for o in range(problem.n_obs):
        c = problem.cam_idx[o] * CAM_PARAMS
        p = CAM_PARAMS * problem.n_cams + problem.pt_idx[o] * 3
        J[2 * o:2 * o + 2, c:c + CAM_PARAMS] = Jc[o]
        J[2 * o:2 * o + 2, p:p + 3] = Jp[o]
    return J


def pack(problem: BAProblem) -> np.ndarray:
    """Parameter vector for finite differencing: zero rotation increments."""
    parts = []
    for c in range(problem.n_cams):
        parts.append(np.zeros(3))
        parts.append(problem.t[c])
        parts.append([problem.f[c]])
    parts.append(problem.X.reshape(-1))
    return np.concatenate([np.asarray(p, dtype=np.float64).reshape(-1) for p in parts])


def residuals_at(problem: BAProblem, params: np.ndarray) -> np.ndarray:
    """Residual vector at a packed parameter vector (increments applied)."""
    nc = problem.n_cams
    R = np.array([rodrigues(params[7 * c:7 * c + 3]) @ problem.R[c] for c in range(nc)])
    t = np.stack([params[7 * c + 3:7 * c + 6] for c in range(nc)])
    f = np.array([params[7 * c + 6] for c in range(nc)])
    X = params[7 * nc:].reshape(-1, 3)
    return problem.residuals(R=R, t=t, f=f, X=X).reshape(-1)
