"""Seeded benchmark inputs: feature files for the program, ground truth for the checks.

Each workload is one synthetic scene from ``msfm.synth``: the ROADMAP
reference scene at a smaller size, with its geometry fixed.  A workload has
a fixed pool of ``pool`` independent draws of measurement noise (pixel
jitter and descriptor noise) over that scene; the run's seed picks
``realizations`` of them, each written as ``.msft`` files into ``r<k>/`` --
all that the program under test receives.  The ground truth (true cameras
and the feature -> world point table) stays with the benchmark in
``r<k>/truth.npz``.

The pool is fixed because the coarse stage fails on about one noise draw
in a hundred (its two-view start drifts and it stops with a fraction of
the cameras; see the ``FOUND:`` line on the seed pair in CHANGES.md), and
a benchmark whose correctness verdict depends on the seed cannot be used.
Every pool draw reconstructs correctly at the commit that set the pool;
``run.py --whole-pool`` re-checks all of them.

``relocalize`` blinds a contiguous arc of cameras: every blinded image gets
random-descriptor clutter at a scale above all of its true features, enough
to fill its whole coarse tier, so the coarse stage cannot reach it and only
camera addition can register it.

    python3 benchmark/inputs.py --workload ring --seed 7 --out DIR
    python3 benchmark/inputs.py --write-digests

The second form regenerates ``digests.json``, the input digest of every
workload at ``DIGEST_SEED``.  A run refuses to start when its workload's
digest no longer matches, so a change to ``msfm.synth`` cannot silently
change what the benchmark measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "digests.json"
DIGEST_SEED = 2024

# the ROADMAP reference scene, except for its size: its geometry (seed
# 2024) is fixed, and the run's seed draws the measurement noise
SCENE_SEED = 2024
# noise draw k of every pool is np.random.default_rng([NOISE_SEED, k])
NOISE_SEED = 2024
VISIBILITY = 0.55
PIXEL_NOISE = 0.5
DESCRIPTOR_NOISE = 4.0
ETA = 20.0  # PipelineConfig default; the blinding fills this tier
# clutter per blinded image, as a share of its true features; 0.25 would
# fill the 20% tier exactly, the rest is headroom for the ceil() in tiering
CLUTTER_PER_TRUE = 0.30
CLUTTER_SCALE = (1.05, 2.0)  # multiples of the image's largest true scale


@dataclass(frozen=True)
class Workload:
    n_cameras: int
    n_points: int
    iterations: int
    realizations: int  # noise draws per run; results pool over them
    pool: int  # noise draws the run's seed picks from
    blinded: int = 0  # cameras n - blinded .. n - 1 are blinded


WORKLOADS = {
    "ring": Workload(n_cameras=16, n_points=2500, iterations=2, realizations=4, pool=16),
    "reference_coarse": Workload(n_cameras=24, n_points=2500, iterations=0, realizations=10,
                                 pool=24),
    "relocalize": Workload(n_cameras=16, n_points=2500, iterations=2, realizations=4,
                           pool=16, blinded=4),
}

# tiny scenes of the same make-up, for the smoke test
SMOKE = {
    "ring": Workload(n_cameras=8, n_points=2000, iterations=2, realizations=2, pool=4),
    "reference_coarse": Workload(n_cameras=8, n_points=2000, iterations=0, realizations=2,
                                 pool=4),
    "relocalize": Workload(n_cameras=10, n_points=2400, iterations=2, realizations=2,
                           pool=4, blinded=2),
}


def workload_spec(name: str, smoke: bool = False) -> Workload:
    table = SMOKE if smoke else WORKLOADS
    if name not in table:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def blinded_ids(wl: Workload) -> list[int]:
    return list(range(wl.n_cameras - wl.blinded, wl.n_cameras))


def blind(fs, table: np.ndarray, rng: np.random.Generator):
    """Prepend clutter above every true scale; returns (feature set, point table)."""
    from msfm.features import DESCRIPTOR_DIM, FeatureSet

    n = math.ceil(CLUTTER_PER_TRUE * len(fs))
    top = float(fs.scale.max())
    scale = np.sort(top * rng.uniform(*CLUTTER_SCALE, size=n))[::-1]
    xy = rng.uniform(0.0, [fs.width - 1e-3, fs.height - 1e-3], size=(n, 2))
    orientation = rng.uniform(0.0, 2.0 * np.pi, size=n)
    desc = rng.integers(0, 256, size=(n, DESCRIPTOR_DIM), dtype=np.uint8)
    # clutter is strictly larger than every true feature, so prepending keeps
    # the descending-scale order the feature files are stored in
    out = FeatureSet(
        image_id=fs.image_id, width=fs.width, height=fs.height,
        xy=np.concatenate([xy.astype(np.float32), fs.xy]),
        scale=np.concatenate([scale.astype(np.float32), fs.scale]),
        orientation=np.concatenate([orientation.astype(np.float32), fs.orientation]),
        descriptors=np.concatenate([desc, fs.descriptors]),
    )
    return out, np.concatenate([np.full(n, -1, dtype=np.int64), table])


def check_blinding(fs, table: np.ndarray) -> None:
    """Raise unless the image's coarse tier holds clutter only."""
    from msfm.features import select_top_scale

    tier = select_top_scale(fs, ETA).coarse_count
    if tier >= len(fs) or (table[:tier] >= 0).any():
        raise RuntimeError(
            f"image {fs.image_id}: coarse tier of {tier} features holds "
            f"{int((table[:tier] >= 0).sum())} true features")


def add_noise(fs, rng: np.random.Generator):
    """The seed's measurement noise: pixel jitter and descriptor noise."""
    from msfm.features import FeatureSet

    xy = fs.xy + rng.normal(0.0, PIXEL_NOISE, size=fs.xy.shape)
    xy = np.clip(xy, 0.0, [fs.width - 1e-3, fs.height - 1e-3])
    desc = fs.descriptors + rng.normal(0.0, DESCRIPTOR_NOISE, size=fs.descriptors.shape)
    return FeatureSet(
        image_id=fs.image_id, width=fs.width, height=fs.height,
        xy=xy.astype(np.float32), scale=fs.scale, orientation=fs.orientation,
        descriptors=np.clip(np.round(desc), 0, 255).astype(np.uint8))


def pick_draws(wl: Workload, seed: int) -> list[int]:
    """The pool draws a run with this seed reconstructs."""
    picked = np.random.default_rng(seed).choice(wl.pool, size=wl.realizations, replace=False)
    return sorted(int(k) for k in picked)


def generate(name: str, seed: int, out: Path, smoke: bool = False,
             whole_pool: bool = False) -> dict:
    """Write the seed's realizations of one workload (or the whole pool) to
    ``out/r<k>``; returns a summary."""
    from msfm.features import write_features
    from msfm.synth import SceneSpec, generate_scene

    wl = workload_spec(name, smoke)
    scene = generate_scene(SceneSpec(
        n_cameras=wl.n_cameras, n_points=wl.n_points,
        visibility_fraction=VISIBILITY, seed=SCENE_SEED))
    if out.exists():
        shutil.rmtree(out)
    draws = list(range(wl.pool)) if whole_pool else pick_draws(wl, seed)
    features = true_features = 0
    for k, draw in enumerate(draws):
        rng = np.random.default_rng([NOISE_SEED, draw])
        sets = {i: add_noise(fs, rng) for i, fs in sorted(scene.feature_sets.items())}
        tables = dict(scene.point_of_feature)
        for image_id in blinded_ids(wl):
            sets[image_id], tables[image_id] = blind(sets[image_id], tables[image_id], rng)
            check_blinding(sets[image_id], tables[image_id])
        ids = sorted(sets)
        directory = out / f"r{k}"
        directory.mkdir(parents=True)
        for image_id in ids:
            write_features(sets[image_id], directory / f"image_{image_id:05d}.msft")
        counts = np.array([len(tables[i]) for i in ids])
        np.savez(
            directory / "truth.npz",
            image_ids=np.array(ids),
            R=np.stack([scene.cameras[i].R for i in ids]),
            t=np.stack([scene.cameras[i].t for i in ids]),
            point_offsets=np.concatenate([[0], np.cumsum(counts)]),
            point_of_feature=np.concatenate([tables[i] for i in ids]),
            blinded=np.array(blinded_ids(wl), dtype=np.int64),
        )
        features += int(counts.sum())
        true_features += int(sum((tables[i] >= 0).sum() for i in ids))
    return {
        "images": wl.n_cameras,
        "realizations": len(draws),
        "draws": draws,
        "features": features,
        "true_features": true_features,
        "digest": digest(out),
    }


def digest(directory: Path) -> str:
    """SHA-256 over the feature files and the truth arrays, in path order."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.msft")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    for path in sorted(directory.rglob("truth.npz")):
        with np.load(path) as truth:
            for key in sorted(truth.files):
                arr = truth[key]
                h.update(key.encode())
                h.update(str(arr.dtype).encode() + str(arr.shape).encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def verify_digest(name: str, scratch: Path) -> None:
    """Regenerate the workload at DIGEST_SEED and compare with digests.json."""
    recorded = json.loads(DIGEST_FILE.read_text())[name]
    got = generate(name, DIGEST_SEED, scratch)["digest"]
    shutil.rmtree(scratch)
    if got != recorded:
        raise RuntimeError(
            f"inputs of workload {name!r} changed (digest {got[:16]}..., recorded "
            f"{recorded[:16]}...); if the change to msfm.synth is intended, "
            f"rerun: python3 benchmark/inputs.py --write-digests")


def write_digests(scratch: Path) -> dict:
    digests = {}
    for name in sorted(WORKLOADS):
        digests[name] = generate(name, DIGEST_SEED, scratch)["digest"]
        shutil.rmtree(scratch)
    DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return digests


def main(argv=None) -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.write_digests:
        print(json.dumps(write_digests(root / ".bench_cache" / "digest_scratch"), indent=2))
        return 0
    if args.workload is None or args.seed is None or args.out is None:
        ap.error("--workload, --seed and --out are required")
    print(json.dumps(generate(args.workload, args.seed, args.out, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
