"""Dense reference forms of a ``BAProblem``, for finite-difference checks,
and synthetic BA models of any size.

``msfm.ba`` works on per-observation Jacobian blocks and never forms the
full Jacobian or a packed parameter vector; these helpers build both, so
tests can compare the analytic blocks with central differences.
"""

import numpy as np

from msfm.ba import CAM_PARAMS, BAProblem, rodrigues
from msfm.model import Camera, Model, make_intrinsics


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


class PixelStore:
    """Feature positions of synthetic images, as ``bundle_adjust`` reads them."""

    def __init__(self, xy: dict[int, np.ndarray]):
        self.xy = xy

    def position(self, image_id, feature_id):
        return self.xy[image_id][feature_id]


def ring_ba_model(n_cams: int, n_pts: int, *, track=(3, 12), noise_px=0.5,
                  perturb=(0.002, 0.01, 0.01), seed=0):
    """A ring of ``n_cams`` cameras around a ball of ``n_pts`` points.

    Each point is seen by a run of ring neighbours, ``track`` (low, high)
    cameras long, so tracks stay local however large the ring grows.
    Pixels get ``noise_px`` of Gaussian noise, and the model starts from
    rotations, translations and points perturbed by ``perturb`` (radians,
    units, units).  Returns (model, store).
    """
    rng = np.random.default_rng(seed)
    K = make_intrinsics(800.0, 320.0, 240.0)
    cams = []
    for c in range(n_cams):
        ang = 2 * np.pi * c / n_cams
        center = 10.0 * np.array([np.cos(ang), 0.0, np.sin(ang)])
        z = -center / np.linalg.norm(center)
        x = np.cross([0.0, 1.0, 0.0], z)
        x /= np.linalg.norm(x)
        R = np.stack([x, np.cross(z, x), z])
        cams.append((R, -R @ center))
    X = rng.uniform(-2.0, 2.0, size=(n_pts, 3))
    lengths = rng.integers(track[0], track[1] + 1, size=n_pts)
    firsts = rng.integers(0, n_cams, size=n_pts)
    tracks = [[(int(s) + j) % n_cams for j in range(int(k))] for s, k in zip(firsts, lengths)]
    xy = {c: [] for c in range(n_cams)}
    model = Model()
    for c, (R, t) in enumerate(cams):
        dR = rodrigues(rng.normal(0.0, perturb[0], 3))
        model.attach_camera(Camera(K=K, R=dR @ R, t=t + rng.normal(0.0, perturb[1], 3),
                                   image_id=c))
    for p, cams_of in enumerate(tracks):
        pairs = []
        for c in cams_of:
            R, t = cams[c]
            xc = R @ X[p] + t
            xy[c].append(K[:2, :2] @ (xc[:2] / xc[2]) + K[:2, 2] + rng.normal(0.0, noise_px, 2))
            pairs.append((c, len(xy[c]) - 1))
        model.add_point(X[p] + rng.normal(0.0, perturb[2], 3), pairs)
    store = PixelStore({c: np.asarray(v, dtype=np.float64).reshape(-1, 2) for c, v in xy.items()})
    return model, store
