import numpy as np
import pytest
from hypothesis import given, strategies as st

from msfm import reconstruct
from msfm.errors import DegenerateGeometryError, InsufficientDataError, NoSeedError
from msfm.evaluate import align_models
from msfm.matching import MatchGraph, build_coarse_matchgraph, closest_one_to_one
from msfm.model import make_intrinsics
from msfm.reconstruct import (
    dlt_pose,
    incremental_reconstruct,
    pnp_ransac,
    select_seed_pair,
    triangulate_refs,
)
from msfm.synth import SceneSpec, generate_scene

from model_oracles import (
    check_consistency,
    correspondence_entries,
    correspondences_to_model,
    points_visible_in,
    track_length,
    visible_points,
)


def rotation_error_deg(R_est, R_true):
    # from the chord, ||R_est - R_true|| = 2 sqrt(2) sin(angle / 2): the
    # arccos of the trace reads no angle between 0 and 8.5e-7 deg (one ulp)
    chord = np.linalg.norm(R_est - R_true) / (2.0 * np.sqrt(2.0))
    return np.degrees(2.0 * np.arcsin(min(chord, 1.0)))


class TestDltPose:
    def test_exact_six_points(self, tiny_scene):
        cam = tiny_scene.cameras[2]
        vis = sorted(visible_points(tiny_scene, 2))[:6]
        X = tiny_scene.points[vis]
        uv, _ = cam.project(X)
        R, t, ok = dlt_pose(X[None], uv[None], cam.K)
        assert ok.tolist() == [True]
        assert rotation_error_deg(R[0], cam.R) < 1e-6
        assert np.linalg.norm(t[0] - cam.t) < 1e-6

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            dlt_pose(np.zeros((1, 5, 3)), np.zeros((1, 5, 2)), np.eye(3))


class TestPnpRansac:
    def test_noise_free_exact(self, tiny_scene):
        cam = tiny_scene.cameras[1]
        vis = sorted(visible_points(tiny_scene, 1))[:100]
        X = tiny_scene.points[vis]
        uv, _ = cam.project(X)
        R, t, mask = pnp_ransac(X, uv, cam.K, seed=0)
        assert mask.all()
        assert rotation_error_deg(R, cam.R) < 1e-6

    def test_forty_percent_outliers(self, tiny_scene):
        rng = np.random.default_rng(1)
        cam = tiny_scene.cameras[3]
        vis = sorted(visible_points(tiny_scene, 3))[:100]
        X = tiny_scene.points[vis]
        uv, _ = cam.project(X)
        uv = uv + rng.normal(0, 0.3, uv.shape)
        bad = rng.choice(100, size=40, replace=False)
        truth = np.ones(100, dtype=bool)
        truth[bad] = False
        uv[bad] = rng.uniform(0, [1024, 768], size=(40, 2))
        R, t, mask = pnp_ransac(X, uv, cam.K, seed=2)
        assert rotation_error_deg(R, cam.R) < 0.1
        recall = (mask & truth).sum() / truth.sum()
        assert recall >= 0.95

    def test_collinear_points_fail(self):
        rng = np.random.default_rng(3)
        K = make_intrinsics(900.0, 512.0, 384.0)
        s = rng.uniform(2, 10, size=30)
        X = np.outer(s, np.array([0.1, 0.2, 1.0]))  # a 3D line
        uv = (X @ K.T)
        uv = uv[:, :2] / uv[:, 2:]
        assert pnp_ransac(X, uv, K, seed=4) is None

    @pytest.mark.parametrize("s", range(5))
    def test_random_pairs_do_not_overflow(self, s):
        # the first scoring hypothesis has a tiny inlier share; the adaptive
        # stop count must stay finite instead of raising OverflowError
        rng = np.random.default_rng(s)
        X = rng.normal(size=(600, 3)) + [0.0, 0.0, 6.0]
        uv = rng.uniform(0, [640, 480], size=(600, 2))
        K = make_intrinsics(900.0, 320.0, 240.0)
        assert pnp_ransac(X, uv, K) is None

    def test_below_minimum(self):
        with pytest.raises(InsufficientDataError):
            pnp_ransac(np.zeros((5, 3)), np.zeros((5, 2)), np.eye(3))

    def test_inlier_gate(self, tiny_scene):
        rng = np.random.default_rng(5)
        cam = tiny_scene.cameras[0]
        vis = sorted(visible_points(tiny_scene, 0))[:30]
        X = tiny_scene.points[vis]
        uv = rng.uniform(0, [1024, 768], size=(30, 2))  # pure noise
        assert pnp_ransac(X, uv, cam.K, seed=6) is None


class TestSelectSeedPair:
    def _graph_and_k(self, scene):
        store = scene.store()
        graph = build_coarse_matchgraph(store.sets)
        K = {i: scene.cameras[i].K for i in store.sets}
        return store, graph, K

    def test_single_edge(self, tiny_scene):
        store, graph, K = self._graph_and_k(tiny_scene)
        key = sorted(graph.edges)[0]
        single = MatchGraph(edges={key: graph.edges[key]})
        assert select_seed_pair(single, store.sets, K) == key

    def test_angle_gate_beats_inlier_count(self, tiny_scene):
        store, graph, K = self._graph_and_k(tiny_scene)
        # ring cameras all have parallax; synthesize the contract instead:
        # restrict to two edges and check the more-inlier edge wins when both
        # qualify
        keys = sorted(graph.edges,
                      key=lambda k: -len(graph.edges[k].inliers()))[:2]
        sub = MatchGraph(edges={k: graph.edges[k] for k in keys})
        chosen = select_seed_pair(sub, store.sets, K)
        counts = {k: len(sub.edges[k].inliers()) for k in keys}
        assert counts[chosen] == max(counts.values())

    def test_no_parallax_no_seed(self):
        # two cameras sharing a centre cannot seed (estimated F is degenerate
        # and the pose step fails)
        scene = generate_scene(SceneSpec(n_cameras=2, n_points=150, seed=9))
        store = scene.store()
        graph = build_coarse_matchgraph(store.sets)
        K = {i: scene.cameras[i].K for i in store.sets}
        if not graph.edges:
            pytest.skip("no verified edge to test with")
        # rebuild the scene with coincident cameras by reusing image 0 twice
        sets = {0: store.sets[0], 1: store.sets[0]}
        import dataclasses
        sets[1] = dataclasses.replace(sets[1], image_id=1)
        g2 = build_coarse_matchgraph(sets)
        with pytest.raises(NoSeedError):
            select_seed_pair(g2, sets, {0: K[0], 1: K[0]})

    def test_programming_errors_propagate(self, tiny_scene, monkeypatch):
        store, graph, K = self._graph_and_k(tiny_scene)

        def broken(*args):
            raise TypeError("not a geometry failure")

        monkeypatch.setattr(reconstruct, "relative_pose_from_fundamental", broken)
        with pytest.raises(TypeError):
            select_seed_pair(graph, store.sets, K)

    def test_degenerate_best_edge_passes_to_the_next(self, tiny_scene, monkeypatch):
        store, graph, K = self._graph_and_k(tiny_scene)
        order = sorted(graph.edges, key=lambda key: (-len(graph.edges[key].inliers()), key))
        pose = reconstruct.relative_pose_from_fundamental

        def degenerate_on_best(F, *args):
            if F is graph.edges[order[0]].F:
                raise DegenerateGeometryError("planted")
            return pose(F, *args)

        monkeypatch.setattr(reconstruct, "relative_pose_from_fundamental", degenerate_on_best)
        assert select_seed_pair(graph, store.sets, K) == order[1]

    def test_seed_triangulates_cleanly(self, tiny_scene):
        store, graph, K = self._graph_and_k(tiny_scene)
        a, b = select_seed_pair(graph, store.sets, K)
        from msfm.geometry import relative_pose_from_fundamental, triangulate_track
        from msfm.model import Camera
        edge = graph.edges[(a, b)]
        matches = edge.inliers()
        pts_q = store.sets[a].xy[matches.query]
        pts_c = store.sets[b].xy[matches.target]
        R, t, _, _ = relative_pose_from_fundamental(edge.F, K[a], K[b],
                                                    pts_q, pts_c)
        cam_a = Camera(K=K[a], R=np.eye(3), t=np.zeros(3), image_id=a)
        cam_b = Camera(K=K[b], R=R, t=t, image_id=b)
        _, _, ok = triangulate_track({a: cam_a, b: cam_b}, np.tile([a, b], (len(matches), 1)),
                                     np.stack([pts_q, pts_c], axis=1))
        assert ok.sum() / len(matches) >= 0.9


class TestTriangulateRefs:
    def test_input_order_over_mixed_lengths(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        sets = tiny_scene.store().sets
        pids = sorted(model.points)[:12]
        tracks = [sorted(model.points[pid].track.items())[:2 + i % 4]
                  for i, pid in enumerate(pids)]
        # refs of two different points: no position fits both
        a = sorted(model.points[pids[0]].track.items())[0]
        b = next(r for r in sorted(model.points[pids[1]].track.items()) if r[0] != a[0])
        tracks.insert(5, [a, b])
        points = triangulate_refs(model, sets, tracks)
        assert [p is None for p in points] == [i == 5 for i in range(len(tracks))]
        for refs, point in zip(tracks, points):
            alone = triangulate_refs(model, sets, [refs])[0]
            assert (alone is None) == (point is None)
            if point is not None:
                assert point.tobytes() == alone.tobytes()
                pid = model.tracked(refs[0][0])[refs[0][1]]
                assert np.linalg.norm(point - model.points[pid].position) < 1e-6


class TestIncrementalReconstruct:
    def test_two_image_graph(self, tiny_scene):
        store = tiny_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        key = max(sorted(graph.edges),
                  key=lambda k: len(graph.edges[k].inliers()))
        sub = MatchGraph(edges={key: graph.edges[key]})
        K = {i: tiny_scene.cameras[i].K for i in store.sets}
        model = incremental_reconstruct(sub, store, K)
        assert sorted(model.cameras) == list(key)
        assert len(model.points) >= 16
        check_consistency(model)

    def test_noise_free_full_registration(self, tiny_scene):
        store = tiny_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        K = {i: tiny_scene.cameras[i].K for i in store.sets}
        model = incremental_reconstruct(graph, store, K)
        assert len(model.cameras) == 10
        rep = align_models(model, tiny_scene.ground_truth_model())
        assert rep.mean_rotation_deg < 0.01
        assert model.stage_tag == ""  # the pipeline tags it
        for point in model.points.values():
            assert track_length(point) >= 2
        check_consistency(model)

    def test_every_camera_has_min_inliers(self, ring_scene):
        store = ring_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        K = {i: ring_scene.cameras[i].K for i in store.sets}
        model = incremental_reconstruct(graph, store, K)
        # every registered camera supports at least the gate in observations
        for image_id in model.image_ids():
            assert len(points_visible_in(model, image_id)) >= 16

    def test_gauge_freedom_across_seeds(self, tiny_scene):
        store = tiny_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        K = {i: tiny_scene.cameras[i].K for i in store.sets}
        m1 = incremental_reconstruct(graph, store, K, seed=0)
        m2 = incremental_reconstruct(graph, store, K, seed=99)
        rep = align_models(m1, m2)
        assert rep.mean_rotation_deg < 1e-3
        assert rep.mean_translation_rel < 1e-3


class TestCoarseCorrespondences:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.sampled_from([0.0, 0.5, 1.0])), max_size=40))
    def test_count_equals_rows(self, entries):
        # tied distances and features repeated across points
        columns = (np.array([e[0] for e in entries], dtype=np.int64),
                   np.array([e[1] for e in entries], dtype=np.int64),
                   np.array([e[2] for e in entries], dtype=np.float64))
        assert reconstruct._one_to_one_count(*columns) == len(closest_one_to_one(*columns))

    def test_every_round_equals_per_call_gather(self, ring_scene, monkeypatch):
        store = ring_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        K = {i: ring_scene.cameras[i].K for i in store.sets}
        lookup, entries = reconstruct._track_lookup, reconstruct._model_entries
        seen = {"model": None, "rounds": 0, "images": 0}

        def round_lookup(model, feature_sets):
            seen["model"] = model
            seen["rounds"] += 1
            return lookup(model, feature_sets)

        def checked_entries(links, table, image_id):
            got = entries(links, table, image_id)
            want = correspondence_entries(seen["model"], graph, image_id)
            for column, oracle in zip(got, want):
                assert column.dtype == oracle.dtype
                assert np.array_equal(column, oracle)
            rows = closest_one_to_one(*got)
            assert np.array_equal(rows, correspondences_to_model(seen["model"], graph, image_id))
            assert reconstruct._one_to_one_count(*got) == len(rows)
            seen["images"] += 1
            return got

        monkeypatch.setattr(reconstruct, "_track_lookup", round_lookup)
        monkeypatch.setattr(reconstruct, "_model_entries", checked_entries)
        model = incremental_reconstruct(graph, store, K)
        # one round per registration after the seed pair, and a last one
        assert seen["rounds"] == len(model.cameras) - 1
        assert seen["images"] > seen["rounds"]
