"""The benchmark's own tests.

    python3 -m pytest benchmark -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs as gen  # noqa: E402
import tracing  # noqa: E402


def test_similarity_recovers_known_transform():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(20, 3))
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    Q *= np.sign(np.linalg.det(Q))
    dst = 2.5 * src @ Q.T + np.array([1.0, -2.0, 0.5])
    s, R, t = checks.similarity(src, dst)
    assert s == pytest.approx(2.5, rel=1e-12)
    assert np.allclose(R, Q, atol=1e-12)
    assert np.allclose(t, [1.0, -2.0, 0.5], atol=1e-12)
    assert checks.rotation_angle_deg(R[None] @ Q.T[None])[0] < 1e-6


def test_blinding_leaves_no_true_feature_in_coarse_tier(tmp_path):
    from msfm.features import FeatureStore

    wl = gen.workload_spec("relocalize", smoke=True)
    gen.generate("relocalize", 5, tmp_path, smoke=True)
    for k in range(wl.realizations):
        store = FeatureStore.load_dir(tmp_path / f"r{k}", eta=gen.ETA)
        truth = checks.Truth.load(tmp_path / f"r{k}" / "truth.npz")
        assert truth.blinded == gen.blinded_ids(wl)
        for image_id in store.image_ids():
            tier = truth.point_of_feature[image_id][:store[image_id].coarse_count]
            if image_id in truth.blinded:
                assert (tier == -1).all()
            else:
                assert (tier >= 0).any()
                with pytest.raises(RuntimeError):
                    gen.check_blinding(store[image_id], truth.point_of_feature[image_id])


def test_inputs_are_seeded(tmp_path):
    a = gen.generate("ring", 9, tmp_path / "a", smoke=True)["digest"]
    b = gen.generate("ring", 9, tmp_path / "b", smoke=True)["digest"]
    c = gen.generate("ring", 10, tmp_path / "c", smoke=True)["digest"]
    assert a == b != c


def test_seed_picks_distinct_pool_draws():
    for name, wl in gen.WORKLOADS.items():
        picks = {seed: gen.pick_draws(wl, seed) for seed in range(20)}
        for draws in picks.values():
            assert len(set(draws)) == wl.realizations
            assert all(0 <= k < wl.pool for k in draws)
        assert picks[3] == gen.pick_draws(wl, 3)
        assert len({tuple(d) for d in picks.values()}) > 1


def test_recorded_digests_match(tmp_path):
    for name in gen.WORKLOADS:
        gen.verify_digest(name, tmp_path / name)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(gen.SMOKE))
def test_smoke_run(workload):
    result = _run(workload, trace=0)
    wl = gen.workload_spec(workload, smoke=True)
    assert result["correct"] is True
    assert result["attempted"] == wl.n_cameras * wl.realizations
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {"total_s", "setup_s", "peak_rss_mb", "cameras_registered",
                            "points_recovered", "observations", "pairs_connected",
                            "reproj_px"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_smoke_traced_run_reports_every_layer():
    result = _run("relocalize", trace=1)
    assert result["correct"] is True
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(tracing.LAYER_METRICS) | {"trace.overhead_s"}
    assert metrics["localize.registered"] == gen.SMOKE["relocalize"].blinded
    assert metrics["densify.s"] > 0 and metrics["coarse.s"] > 0 and metrics["match.s"] > 0
