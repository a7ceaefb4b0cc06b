"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The 60-camera reference pipeline runs once per session and is
shared by the first three criteria.
"""

import time

import numpy as np
import pytest

from ba_oracles import dense_jacobian, pack, residuals_at
from line_oracles import EpipolarLine, candidates_index, candidates_linear
from model_oracles import exact_store, oracle_matches, reprojection_errors, visible_points
from msfm.ba import bundle_adjust, problem_from_model, rodrigues
from msfm.config import PipelineConfig
from msfm.densify import merge_tracks
from msfm.descriptors import SearchStats
from msfm.evaluate import align_models
from msfm.features import DESCRIPTOR_DIM, FeatureSet
from msfm.geometry import (
    estimate_fundamental_ransac,
    fundamental_from_poses,
    triangulate_track,
)
from msfm.guided import build_index, guided_match_pair
from msfm.matching import Matches, match_pair
from msfm.model import Camera, Model
from msfm.pipeline import run_pipeline
from msfm.synth import SceneSpec, generate_scene, write_scene


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def oracle_coverage(model: Model, scene) -> set[int]:
    """Ground-truth point ids represented by at least one model track."""
    covered = set()
    for point in model.points.values():
        ids = {
            int(scene.point_of_feature[i][f])
            for i, f in point.track.items()
            if scene.point_of_feature[i][f] >= 0
        }
        if len(ids) == 1:
            covered |= ids
    return covered


@pytest.fixture(scope="session")
def reference_run():
    """The 60-camera ring scene of criteria 1-3, run through the pipeline."""
    spec = SceneSpec(n_cameras=60, n_points=5000, visibility_fraction=0.55,
                     pixel_noise=0.5, descriptor_noise=4.0, seed=2024)
    scene = generate_scene(spec)
    store = scene.store()
    cfg = PipelineConfig(focal=900.0, iterations=2, seed=0)
    result = run_pipeline(cfg, None, store=store)
    return scene, store, result


class TestCriterion1CoarseCoverage:
    def test_coarse_registers_cameras_and_points(self, reference_run):
        scene, store, result = reference_run
        coarse = next(rep for rep in result.reports if rep.name == "coarse")
        n_cams = coarse.stats.n_cameras
        # re-derive the coarse model coverage from the snapshot stage stats:
        # points alive at the coarse stage are those created before localize
        tri = scene.triangulable_points()
        frac_cams = n_cams / scene.spec.n_cameras
        frac_pts = coarse.stats.n_points / len(tri)
        passed = frac_cams >= 0.80 and frac_pts >= 0.15
        report("criterion-1 coarse coverage", passed,
               f"cameras {n_cams}/60 ({frac_cams:.2f} >= 0.80), "
               f"coarse points {coarse.stats.n_points}/{len(tri)} "
               f"({frac_pts:.2f} >= 0.15)")


class TestCriterion2FinalCompleteness:
    def test_final_model_complete(self, reference_run):
        scene, store, result = reference_run
        model = result.model
        tri = scene.triangulable_points()
        covered = oracle_coverage(model, scene)
        frac_cams = len(model.cameras) / scene.spec.n_cameras
        frac_pts = len(covered & tri) / len(tri)

        ids = sorted(store.sets)
        vis = {i: visible_points(scene, i) & tri for i in ids}
        oracle_pairs = sum(
            1 for i in range(len(ids)) for j in range(i + 1, len(ids))
            if vis[ids[i]] & vis[ids[j]]
        )
        connected = set()
        for point in model.points.values():
            track_ids = sorted(point.track)
            for i in range(len(track_ids)):
                for j in range(i + 1, len(track_ids)):
                    connected.add((track_ids[i], track_ids[j]))
        frac_pairs = len(connected) / oracle_pairs
        passed = frac_cams >= 0.95 and frac_pts >= 0.90 and frac_pairs >= 0.85
        report("criterion-2 final completeness", passed,
               f"cameras {frac_cams:.2f} >= 0.95, points {frac_pts:.2f} >= 0.90, "
               f"connected pairs {frac_pairs:.2f} >= 0.85")


class TestCriterion3PoseAccuracy:
    def test_pose_and_reprojection(self, reference_run):
        scene, store, result = reference_run
        model = result.model
        rep = align_models(model, scene.ground_truth_model())
        errors = reprojection_errors(model, store)
        rot = rep.median_rotation_deg
        trans = rep.median_translation_rel
        reproj = float(errors.mean())
        passed = rot <= 0.1 and trans <= 0.02 and reproj <= 2.0
        report("criterion-3 pose accuracy", passed,
               f"median rot {rot:.4f} deg <= 0.1, median rel trans "
               f"{trans:.4f} <= 0.02, mean reproj {reproj:.3f} px <= 2.0")


class TestCriterion4GridFidelity:
    def test_recall_and_scaling(self):
        rng = np.random.default_rng(4)
        d = 8.0
        total_true = total_hit = total_cand = 0
        for _ in range(50):
            side = 1024.0
            xy = rng.uniform(0, side, size=(10_000, 2))
            index = build_index(xy)
            for _ in range(200):
                p0 = rng.uniform(0, side, size=2)
                ang = rng.uniform(0, np.pi)
                a, b = np.sin(ang), -np.cos(ang)
                line = EpipolarLine(a, b, -(a * p0[0] + b * p0[1]))
                true = candidates_linear(xy, line, d)
                got = candidates_index(index, line, d)
                total_true += len(true)
                total_hit += len(np.intersect1d(true, got, assume_unique=True))
                total_cand += len(got)
        recall = total_hit / total_true
        blow_up = total_cand / total_true

        # cost growth when |F_c| doubles at fixed density.  The index is
        # measured at the 10K instance size; the linear scan's doubling is
        # measured from a 20K base, where the O(|F_c|) scan dominates the
        # fixed numpy dispatch cost of a single call.  Interleaved
        # minimum-of-rounds timing, one strategy at a time, to survive a
        # noisy shared machine.
        import gc

        def make(n, side, with_index):
            xy = rng.uniform(0, side, size=(n, 2))
            lines = []
            for _ in range(200):
                p0 = rng.uniform(0, side, size=2)
                ang = rng.uniform(0, np.pi)
                a, b = np.sin(ang), -np.cos(ang)
                lines.append(EpipolarLine(a, b, -(a * p0[0] + b * p0[1])))
            return xy, lines, build_index(xy) if with_index else None

        def run_index(inst):
            xy, lines, index = inst
            t0 = time.perf_counter()
            for line in lines:
                candidates_index(index, line, d)
            return time.perf_counter() - t0

        def run_linear(inst):
            xy, lines, _ = inst
            t0 = time.perf_counter()
            for line in lines:
                candidates_linear(xy, line, d)
            return time.perf_counter() - t0

        def doubling_ratio(runner, n_base, side_base, with_index):
            small = make(n_base, side_base, with_index)
            big = make(2 * n_base, side_base * np.sqrt(2.0), with_index)
            runner(small), runner(big)  # warmup
            gc.collect()
            gc.disable()
            try:
                t_small, t_big = [], []
                for _ in range(11):
                    t_small.append(runner(small))
                    t_big.append(runner(big))
            finally:
                gc.enable()
            return min(t_big) / min(t_small)

        index_ratio = doubling_ratio(run_index, 10_000, 1024.0, True)
        gc.collect()
        linear_ratio = doubling_ratio(run_linear, 20_000, 1448.0, False)
        passed = (recall >= 0.99 and blow_up <= 4.0
                  and index_ratio <= 1.3 and linear_ratio >= 1.8)
        report("criterion-4 band index fidelity", passed,
               f"recall {recall:.5f} >= 0.99, |C'|/|C| "
               f"{blow_up:.2f} <= 4, index cost x{index_ratio:.2f} <= 1.3, "
               f"linear cost x{linear_ratio:.2f} >= 1.8")


class TestCriterion5GuidedDensity:
    def test_repetition_scene(self):
        spec = SceneSpec(n_cameras=2, layout="grid", ring_radius=6.0,
                         cloud_radius=1.8, n_points=450,
                         repetition_groups=20, repetition_group_size=10,
                         image_width=1024, image_height=768, focal=900.0,
                         visibility_fraction=1.0, pixel_noise=0.3,
                         descriptor_noise=2.0, seed=6)
        scene = generate_scene(spec)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        oracle = dict(oracle_matches(scene, 0, 1))

        def correct(matches):
            return sum(1 for q, t in zip(matches.query.tolist(), matches.target.tolist())
                       if oracle.get(q) == t)

        guided = guided_match_pair(fs_q, fs_t, F, d=8.0, ratio=0.8)
        unguided = match_pair(
            fs_q, fs_t, ratio=0.6,
            query_indices=np.arange(len(fs_q)),
            target_indices=np.arange(len(fs_t)))
        cg, cu = correct(guided), correct(unguided)
        density = cg / max(cu, 1)
        precision = cg / len(guided)
        passed = density >= 1.5 and precision >= 0.95
        report("criterion-5 guided density", passed,
               f"correct guided {cg} vs unguided {cu} (x{density:.2f} >= 1.5), "
               f"precision {precision:.3f} >= 0.95")


class TestCriterion6GuidedSpeed:
    def test_comparisons_and_wall_clock(self):
        spec = SceneSpec(n_cameras=2, layout="grid", ring_radius=6.0,
                         cloud_radius=1.8, n_points=21_000,
                         image_width=3072, image_height=2304, focal=2600.0,
                         visibility_fraction=1.0, pixel_noise=0.3,
                         descriptor_noise=3.0, seed=77)
        scene = generate_scene(spec)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        assert len(fs_q) >= 20_000 and len(fs_t) >= 20_000
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        every_q, every_t = np.arange(len(fs_q)), np.arange(len(fs_t))

        # one untimed call of each first: a process's first call can run
        # 2-3x slower on a busy host
        guided_match_pair(fs_q, fs_t, F, d=8.0)
        match_pair(fs_q, fs_t, ratio=0.6, query_indices=every_q, target_indices=every_t)

        stats_g = SearchStats()
        t0 = time.perf_counter()
        guided_match_pair(fs_q, fs_t, F, d=8.0, stats=stats_g)
        t_guided = time.perf_counter() - t0

        stats_u = SearchStats()
        t0 = time.perf_counter()
        match_pair(fs_q, fs_t, ratio=0.6, query_indices=every_q, target_indices=every_t,
                   stats=stats_u)
        t_unguided = time.perf_counter() - t0

        ratio = stats_g.candidates / stats_u.candidates
        speedup = t_unguided / t_guided
        passed = ratio <= 0.10 and speedup >= 2.0
        report("criterion-6 guided speed", passed,
               f"comparison ratio {ratio:.4f} <= 0.10, "
               f"wall-clock speedup x{speedup:.1f} >= 2.0")


class TestCriterion7OracleEquivalences:
    def test_merge_tracks_vs_union_find(self):
        rng = np.random.default_rng(7)
        mismatches = 0
        for _ in range(1000):
            n_images = int(rng.integers(4, 16))
            model = Model()
            parent = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def union(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra

            matches = []
            for _ in range(int(rng.integers(3, 40))):
                a, b = rng.choice(n_images, size=2, replace=False)
                # one feature per image avoids conflict resolution entirely
                matches.append((int(a), int(b), Matches(
                    query=np.array([0]), target=np.array([0]),
                    distance=np.array([1.0]), ratio=np.array([0.5]))))
                union((int(a), 0), (int(b), 0))
            new_tracks, _ = merge_tracks(matches, model.observations())
            got = {frozenset(refs) for refs in new_tracks}
            groups = {}
            for node in parent:
                groups.setdefault(find(node), set()).add(node)
            expected = {frozenset(g) for g in groups.values() if len(g) >= 2}
            if got != expected:
                mismatches += 1
        report("criterion-7a merge vs union-find", mismatches == 0,
               f"{mismatches}/1000 graphs differ (exact match required)")

    def test_match_pair_vs_exhaustive(self):
        rng = np.random.default_rng(17)
        base = rng.integers(0, 256, size=(2000, DESCRIPTOR_DIM))
        noisy = lambda: np.clip(np.round(
            base + rng.normal(0, 4.0, base.shape)), 0, 255).astype(np.uint8)

        def make(image_id, descs):
            n = len(descs)
            return FeatureSet.from_arrays(
                image_id, 1024, 768,
                rng.uniform(0, [1023, 767], size=(n, 2)),
                np.linspace(30, 1, n), np.zeros(n), descs)

        fs_a, fs_b = make(0, noisy()), make(1, noisy())
        matches = match_pair(fs_a, fs_b, ratio=0.6)
        got = set(zip(matches.query.tolist(), matches.target.tolist()))
        qd = fs_a.descriptors.astype(np.float32)
        td = fs_b.descriptors.astype(np.float32)
        hits = {}
        for i in range(len(qd)):
            dist = np.sqrt(((td - qd[i]) ** 2).sum(axis=1))
            order = np.argsort(dist, kind="stable")
            b1, b2 = order[0], order[1]
            if dist[b2] > 0 and dist[b1] / dist[b2] < 0.6:
                cur = hits.get(int(b1))
                if cur is None or dist[b1] < cur[1]:
                    hits[int(b1)] = (i, float(dist[b1]))
        expected = {(qi, ti) for ti, (qi, _) in hits.items()}
        report("criterion-7b match vs exhaustive", got == expected,
               f"{len(got)} matches, symmetric difference "
               f"{len(got ^ expected)} (must be 0)")

    def test_fundamental_pose_vs_estimated(self):
        rng = np.random.default_rng(27)
        worst = 0.0
        for trial in range(5):
            scene = generate_scene(SceneSpec(
                n_cameras=2, layout="grid", ring_radius=6.0, cloud_radius=1.8,
                n_points=300, visibility_fraction=1.0, seed=trial + 40))
            pairs = oracle_matches(scene, 0, 1)
            fs0, fs1 = scene.feature_sets[0], scene.feature_sets[1]
            pq = np.stack([fs0.xy[a] for a, _ in pairs]).astype(np.float64)
            pc = np.stack([fs1.xy[b] for _, b in pairs]).astype(np.float64)
            est, _ = estimate_fundamental_ransac([(pq, pc, trial)])[0]
            true = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
            diff = min(np.linalg.norm(est - true), np.linalg.norm(est + true))
            worst = max(worst, diff)
        report("criterion-7c pose F vs estimated F", worst < 1e-6,
               f"max Frobenius distance {worst:.2e} < 1e-6")


class TestCriterion8NumericalChecks:
    def test_jacobian_and_monotonicity(self):
        scene = generate_scene(SceneSpec(
            n_cameras=6, n_points=80, visibility_fraction=0.8, seed=7))
        store = exact_store(scene)
        model = scene.ground_truth_model()
        problem, _, _ = problem_from_model(model, store)
        J = dense_jacobian(problem)
        params = pack(problem)
        rng = np.random.default_rng(8)
        # 100 random entries, half drawn from the structural non-zeros so the
        # comparison exercises real derivatives, not just empty blocks
        rows = list(rng.integers(0, J.shape[0], size=50))
        cols = list(rng.integers(0, J.shape[1], size=50))
        nz_rows, nz_cols = np.nonzero(J)
        pick = rng.integers(0, len(nz_rows), size=50)
        rows += list(nz_rows[pick])
        cols += list(nz_cols[pick])
        h = 1e-6
        max_rel = 0.0
        for r, c in zip(rows, cols):
            plus = params.copy()
            plus[c] += h
            minus = params.copy()
            minus[c] -= h
            fd = (residuals_at(problem, plus)[r]
                  - residuals_at(problem, minus)[r]) / (2 * h)
            an = J[r, c]
            max_rel = max(max_rel, abs(an - fd) / max(abs(an), abs(fd), 1e-6))

        # BA monotone on a perturbed model
        noisy = scene.ground_truth_model()
        for i, cam in list(noisy.cameras.items()):
            dR = rodrigues(rng.normal(0, 0.01, 3))
            noisy.cameras[i] = Camera(K=cam.K, R=dR @ cam.R,
                                      t=cam.t + rng.normal(0, 0.02, 3), image_id=i)
        stats = bundle_adjust(noisy, store)
        ba_monotone = stats.final_cost <= stats.initial_cost

        # triangulation refinement non-increasing vs plain DLT
        tri_ok = True
        cams = list(scene.cameras[:4]) if isinstance(scene.cameras, list) else None
        cams = scene.cameras[:4]
        for _ in range(50):
            X = rng.normal(0, 0.5, 3)
            obs = [(c, c.project(X)[0][0] + rng.normal(0, 1.0, 2)) for c in cams]
            _, error, ok = triangulate_track({c.image_id: c for c in cams},
                                             [[c.image_id for c in cams]], [[uv for _, uv in obs]],
                                             max_error=np.inf, min_angle_deg=0.0)
            A = []
            for c, uv in obs:
                P = c.K @ np.hstack([c.R, c.t.reshape(3, 1)])
                A.append(uv[0] * P[2] - P[0])
                A.append(uv[1] * P[2] - P[1])
            _, _, Vt = np.linalg.svd(np.stack(A))
            Xd = Vt[-1][:3] / Vt[-1][3]
            dlt_err = np.mean([np.linalg.norm(c.project(Xd)[0][0] - uv)
                               for c, uv in obs])
            if not ok[0] or error[0] > dlt_err + 1e-12:
                tri_ok = False

        # rank-2 invariant on pose-derived and estimated F matrices
        rank_ok = True
        for trial in range(10):
            s2 = generate_scene(SceneSpec(
                n_cameras=2, layout="grid", ring_radius=6.0, cloud_radius=1.8,
                n_points=120, visibility_fraction=1.0, seed=trial + 60))
            F1 = fundamental_from_poses(s2.cameras[0], s2.cameras[1])
            pairs = oracle_matches(s2, 0, 1)
            pq = np.stack([s2.feature_sets[0].xy[a] for a, _ in pairs])
            pc = np.stack([s2.feature_sets[1].xy[b] for _, b in pairs])
            F2 = estimate_fundamental_ransac([(pq, pc, trial)])[0][0]
            for F in (F1, F2):
                s = np.linalg.svd(F, compute_uv=False)
                if s[2] / s[0] >= 1e-6:
                    rank_ok = False
        passed = max_rel <= 1e-4 and ba_monotone and tri_ok and rank_ok
        report("criterion-8 numerical checks", passed,
               f"jacobian rel err {max_rel:.2e} <= 1e-4, BA monotone "
               f"{ba_monotone}, triangulation refinement non-increasing "
               f"{tri_ok}, rank-2 {rank_ok}")


class TestCriterion9Determinism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        scene = generate_scene(SceneSpec(
            n_cameras=12, n_points=900, visibility_fraction=0.6,
            pixel_noise=0.4, descriptor_noise=3.0, seed=303))
        feature_dir = tmp_path / "features"
        write_scene(scene, feature_dir)
        outs = []
        for run in range(2):
            out = tmp_path / f"run{run}"
            cfg = PipelineConfig(focal=900.0, iterations=2, seed=5)
            run_pipeline(cfg, feature_dir, out_dir=out)
            outs.append(out)
        identical = True
        for name in ("model_coarse.msfm", "model_final.msfm"):
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False

        # localization order invariance on a held-out split
        from msfm.io import write_model
        from msfm.localize import localize_all
        from msfm.matching import build_coarse_matchgraph
        import copy
        store = scene.store()
        graph = build_coarse_matchgraph(store.sets)
        gt = scene.ground_truth_model()
        held_out = gt.image_ids()[-3:]
        partial = Model(stage_tag="coarse")
        for image_id in gt.image_ids():
            if image_id not in held_out:
                partial.attach_camera(gt.cameras[image_id])
        for pid in gt.point_ids():
            refs = [(i, f)
                    for i, f in sorted(gt.points[pid].track.items())
                    if i not in held_out]
            if len(refs) >= 2:
                partial.add_point(gt.points[pid].position, refs)
        K = {i: scene.cameras[i].K for i in store.sets}
        m1 = copy.deepcopy(partial)
        m2 = copy.deepcopy(partial)
        localize_all(m1, store, graph, K, order=sorted(store.sets))
        localize_all(m2, store, graph, K, order=sorted(store.sets, reverse=True))
        f1, f2 = tmp_path / "a.msfm", tmp_path / "b.msfm"
        write_model(m1, f1)
        write_model(m2, f2)
        order_invariant = f1.read_bytes() == f2.read_bytes()
        passed = identical and order_invariant
        report("criterion-9 determinism", passed,
               f"repeat runs byte-identical {identical}, localization "
               f"order-invariant {order_invariant}")
