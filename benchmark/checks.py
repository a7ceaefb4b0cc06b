"""Correctness checks computed by the benchmark itself.

Nothing here calls ``msfm.evaluate`` or ``msfm.model.model_stats``: the final
model is read from ``model_final.msfm`` with a parser of its own, aligned to
the true cameras with a closed-form similarity, and its tracks are checked
against the synthetic feature -> world point table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the acceptance suite's pose-accuracy bounds (criterion 3)
MAX_ROT_DEG = 0.1
MAX_TRANS_REL = 0.02
MAX_REPROJ_PX = 2.0
# tracks whose features all project one true point; measured 0.9996-1.0 on
# every workload, the margin allows a rare wrong merge
MIN_PURITY = 0.99


@dataclass
class ModelFile:
    cameras: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]  # id -> (K, R, t)
    positions: np.ndarray          # (points, 3)
    tracks: list[list[tuple[int, int]]]


def read_model_file(path: Path) -> ModelFile:
    cameras = {}
    positions, tracks = [], []
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "MSFM-MODEL 1":
        raise ValueError(f"{path}: not a model file")
    for line in lines[1:]:
        f = line.split()
        if f[0] == "CAM":
            focal, cx, cy = map(float, f[2:5])
            K = np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])
            R = np.array(f[5:14], dtype=np.float64).reshape(3, 3)
            cameras[int(f[1])] = (K, R, np.array(f[14:17], dtype=np.float64))
        elif f[0] == "PT":
            positions.append([float(v) for v in f[1:4]])
            n = int(f[4])
            ids = [int(v) for v in f[5:5 + 2 * n]]
            if len(ids) != 2 * n:
                raise ValueError(f"{path}: track length {n} but {len(ids) // 2} entries")
            tracks.append(list(zip(ids[0::2], ids[1::2])))
    return ModelFile(cameras, np.array(positions, dtype=np.float64).reshape(-1, 3), tracks)


def similarity(src: np.ndarray, dst: np.ndarray):
    """Least-squares (s, R, t) with dst ~ s R src + t (Umeyama's closed form)."""
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    cs, cd = src - mu_s, dst - mu_d
    U, S, Vt = np.linalg.svd(cd.T @ cs / len(src))
    d = np.ones(3)
    if np.linalg.det(U @ Vt) < 0:
        d[2] = -1.0
    R = U @ np.diag(d) @ Vt
    s = float((S * d).sum() / ((cs ** 2).sum() / len(src)))
    return s, R, mu_d - s * R @ mu_s


def rotation_angle_deg(R: np.ndarray) -> np.ndarray:
    """Angle of each rotation in a (n, 3, 3) stack."""
    cos = (np.trace(R, axis1=1, axis2=2) - 1.0) / 2.0
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


@dataclass
class Truth:
    R: np.ndarray
    t: np.ndarray
    point_of_feature: dict[int, np.ndarray]
    blinded: list[int]

    @classmethod
    def load(cls, path: Path) -> "Truth":
        with np.load(path) as z:
            ids, offsets, table = z["image_ids"], z["point_offsets"], z["point_of_feature"]
            return cls(R=z["R"], t=z["t"],
                       point_of_feature={int(i): table[offsets[k]:offsets[k + 1]]
                                         for k, i in enumerate(ids)},
                       blinded=[int(i) for i in z["blinded"]])


def read_positions(path: Path) -> np.ndarray:
    """Pixel positions from a .msft file (header 24 bytes, 144-byte records)."""
    data = path.read_bytes()
    count = int(np.frombuffer(data, dtype="<u4", count=1, offset=20)[0])
    rec = np.frombuffer(data, dtype=np.uint8, offset=24).reshape(count, 144)
    return np.ascontiguousarray(rec[:, :8]).view("<f4").reshape(count, 2).astype(np.float64)


@dataclass
class Outcome:
    """One reconstruction's counts and per-camera / per-observation errors."""

    counts: dict[str, int]
    rot_err_deg: np.ndarray       # per camera
    trans_err_rel: np.ndarray     # per camera
    reproj_px: np.ndarray         # per observation
    purity: float
    failures: list[str] = field(default_factory=list)


def check_model(model_path: Path, inputs: Path, truth: Truth, frame: list[int]) -> Outcome:
    """Errors of the final model against the truth, and the structural checks.

    The similarity is fitted on the centres of the ``frame`` cameras: those
    the coarse stage registered, which no later stage moves.  Cameras added
    by localization are then measured in the frame they were placed in,
    instead of pulling the alignment towards their own errors.
    """
    m = read_model_file(model_path)
    ids = sorted(m.cameras)

    # camera poses against the truth, after a similarity on the centres
    R_est = np.stack([m.cameras[i][1] for i in ids])
    c_est = np.stack([-m.cameras[i][1].T @ m.cameras[i][2] for i in ids])
    R_true = truth.R[ids]
    c_true = np.einsum("nji,nj->ni", R_true, -truth.t[ids])
    fit = np.isin(ids, frame)
    s, Q, u = similarity(c_est[fit], c_true[fit])
    rot = rotation_angle_deg(R_est @ Q.T @ np.transpose(R_true, (0, 2, 1)))
    spread = np.linalg.norm(c_true[:, None] - c_true[None], axis=2)[np.triu_indices(len(ids), 1)]
    trans = np.linalg.norm(s * c_est @ Q.T + u - c_true, axis=1) / spread.mean()

    # reprojection of every observation, and the track checks
    pixels = {i: read_positions(inputs / f"image_{i:05d}.msft") for i in ids}
    obs_img, obs_feat, obs_pt = [], [], []
    impure = short = 0
    pairs = set()
    for p, track in enumerate(m.tracks):
        images = sorted(i for i, _ in track)
        if len(set(images)) < 2 or len(set(images)) != len(images):
            short += 1
        true_ids = {int(truth.point_of_feature[i][f]) for i, f in track}
        if len(true_ids) != 1 or -1 in true_ids:
            impure += 1
        pairs.update((a, b) for k, a in enumerate(images) for b in images[k + 1:])
        for i, f in track:
            obs_img.append(i)
            obs_feat.append(f)
            obs_pt.append(p)
    obs_img = np.array(obs_img, dtype=np.int64)
    obs_feat = np.array(obs_feat, dtype=np.int64)
    obs_pt = np.array(obs_pt, dtype=np.int64)
    errors = np.empty(len(obs_img))
    for i in ids:
        sel = obs_img == i
        K, R, t = m.cameras[i]
        xc = m.positions[obs_pt[sel]] @ R.T + t
        uv = xc[:, :2] / xc[:, 2:3] * K[0, 0] + K[:2, 2]
        errors[sel] = np.linalg.norm(uv - pixels[i][obs_feat[sel]], axis=1)
    shared = len(obs_img) - len(np.unique(obs_img << 32 | obs_feat))
    purity = 1.0 - impure / max(len(m.tracks), 1)

    counts = {
        "cameras_registered": len(ids),
        "points_recovered": len(m.tracks),
        "observations": len(obs_img),
        "pairs_connected": len(pairs),
    }
    failures = []
    if np.median(rot) > MAX_ROT_DEG:
        failures.append(f"median rotation error {np.median(rot):.4f} > {MAX_ROT_DEG} deg")
    if np.median(trans) > MAX_TRANS_REL:
        failures.append(f"median translation error {np.median(trans):.4f} > {MAX_TRANS_REL}")
    if not errors.mean() <= MAX_REPROJ_PX:
        failures.append(f"mean reprojection error {errors.mean():.3f} > {MAX_REPROJ_PX} px")
    if purity < MIN_PURITY:
        failures.append(f"track purity {purity:.4f} < {MIN_PURITY}")
    if short:
        failures.append(f"{short} tracks without 2 distinct images")
    if shared:
        failures.append(f"{shared} features belong to more than one track")
    return Outcome(counts, rot, trans, errors, purity, failures)


def check_stages(stages: list[dict], coarse_ids: list[int], n_images: int,
                 blinded: list[int], iterations: int) -> list[str]:
    """The stage shape each workload exists to exercise."""
    names = [s["name"] for s in stages]
    expected = ["coarse"] + [f"{k}_{i}" for i in range(1, iterations + 1)
                             for k in ("localize", "densify")]
    if names != expected:
        return [f"stages {names}, expected {expected}"]
    registered = sum(s["added_cameras"] for s in stages if s["name"].startswith("localize"))
    attempted = sum(s["extra"].get("attempted", 0) for s in stages)
    failures = []
    if blinded:
        reached = sorted(set(coarse_ids) & set(blinded))
        if reached:
            failures.append(f"coarse registered blinded images {reached}")
        if registered != n_images - len(coarse_ids):
            failures.append(f"localize registered {registered} of the "
                            f"{n_images - len(coarse_ids)} images coarse left")
    elif attempted:
        failures.append(f"localize attempted {attempted} images, expected none")
    if iterations and stages[2]["extra"].get("pairs", 0) == 0:
        failures.append("densify_1 matched no pairs")
    return failures
