import numpy as np
import pytest

from msfm.descriptors import two_nearest_bruteforce
from msfm.errors import InsufficientDataError
from msfm.io import write_model
from msfm.localize import (
    MIN_CORRESPONDENCES,
    RANKED_TOP_K,
    compute_set_cover,
    direct_3d2d_search,
    localize_all,
    mean_descriptor,
    ranked_2d2d_search,
)
from msfm.matching import RATIO_UNGUIDED, build_coarse_matchgraph, ratio_filter
from msfm.model import Model
from msfm.synth import SceneSpec, generate_scene


@pytest.fixture(scope="module")
def holdout_setup():
    """Ground-truth model with the last 3 cameras removed, plus the graph."""
    scene = generate_scene(SceneSpec(
        n_cameras=12, n_points=700, visibility_fraction=0.7,
        pixel_noise=0.3, descriptor_noise=3.0, seed=77))
    store = scene.store()
    graph = build_coarse_matchgraph(store.sets)
    gt = scene.ground_truth_model()
    held_out = gt.image_ids()[-3:]
    partial = Model(stage_tag="coarse")
    for image_id in gt.image_ids():
        if image_id not in held_out:
            partial.attach_camera(gt.cameras[image_id])
    for pid in gt.point_ids():
        refs = [(i, f) for i, f in sorted(gt.points[pid].track.items())
                if i not in held_out]
        if len(refs) >= 2:
            partial.add_point(gt.points[pid].position, refs)
    K = {i: scene.cameras[i].K for i in store.sets}
    return scene, store, graph, partial, held_out, K


class TestMeanDescriptor:
    def test_track_of_one_returns_it(self, tiny_scene):
        store = tiny_scene.store()
        model = tiny_scene.ground_truth_model()
        pid = model.point_ids()[0]
        point = model.points[pid]
        image_id, feature_id = sorted(point.track.items())[0]
        point.track = {image_id: feature_id}
        got = mean_descriptor(point, store)
        assert np.allclose(got, store.descriptor(image_id, feature_id).astype(np.float32))

    def test_identical_descriptors(self, tiny_scene):
        store = tiny_scene.store()
        model = tiny_scene.ground_truth_model()
        pid = model.point_ids()[1]
        got = mean_descriptor(model.points[pid], store)
        # noise-free scene: every observation is the base descriptor
        first = sorted(model.points[pid].track.items())[0]
        assert np.allclose(got, store.descriptor(*first).astype(np.float32))

    def test_concentration_with_track_length(self):
        rng = np.random.default_rng(5)
        base = rng.integers(30, 220, size=128).astype(np.float64)
        sigma = 8.0

        def mean_dist(track_len, trials=200):
            d = []
            for _ in range(trials):
                obs = np.clip(np.round(
                    base + rng.normal(0, sigma, size=(track_len, 128))), 0, 255)
                d.append(np.linalg.norm(obs.mean(axis=0) - base))
            return np.mean(d)

        d2, d8 = mean_dist(2), mean_dist(8)
        assert d8 < d2 / 1.5  # ~1/sqrt(track length) shrinkage

    def test_cache_invalidated_on_growth(self, holdout_setup):
        import copy
        scene, store, graph, partial, held_out, K = holdout_setup
        model = copy.deepcopy(partial)
        pid = model.point_ids()[0]
        v1 = mean_descriptor(model.points[pid], store)
        assert model.points[pid].mean_descriptor is not None
        # grow the track: cache must drop
        free_img = held_out[0]
        fid = scene.feature_of_point(free_img, pid)
        if fid is None:
            pytest.skip("held-out image does not see the point")
        model.attach_camera(scene.cameras[free_img].__class__(
            K=scene.cameras[free_img].K, R=scene.cameras[free_img].R,
            t=scene.cameras[free_img].t, image_id=free_img))
        model.extend_track(pid, free_img, fid)
        assert model.points[pid].mean_descriptor is None


class TestSetCover:
    def test_feasible_coverage(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        k = 5
        cover = compute_set_cover(model, k)
        for image_id in model.image_ids():
            visible = len(model.points_visible_in(image_id))
            assert cover.coverage[image_id] >= min(k, visible)

    def test_saturation_when_k_exceeds_visibility(self):
        scene = generate_scene(SceneSpec(n_cameras=4, n_points=30, seed=13))
        model = scene.ground_truth_model()
        cover = compute_set_cover(model, 10_000)
        assert sorted(cover.selected) == model.point_ids()
        for image_id in model.image_ids():
            assert cover.coverage[image_id] == len(model.points_visible_in(image_id))

    def test_compression(self, ring_scene):
        model = ring_scene.ground_truth_model()
        cover = compute_set_cover(model, 50)
        assert len(cover.selected) <= 0.5 * len(model.points)

    def test_greedy_minimality(self, tiny_scene):
        # dropping any selected point breaks k-coverage for some camera that
        # had at least k visibility
        model = tiny_scene.ground_truth_model()
        k = 4
        cover = compute_set_cover(model, k)
        selected = set(cover.selected)
        for pid in cover.selected[:20]:
            without = selected - {pid}
            broken = False
            for image_id in model.points[pid].track:
                visible = model.points_visible_in(image_id)
                if len(visible) >= k and len(visible & without) < k:
                    broken = True
                    break
            assert broken


class TestDirectSearch:
    def test_zero_overlap_yields_nothing(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        rng = np.random.default_rng(21)
        # an unrelated image: fresh random descriptors
        from msfm.features import FeatureSet
        n = 500
        fs = FeatureSet.from_arrays(
            99, 1024, 768,
            rng.uniform(0, [1023, 767], size=(n, 2)),
            rng.uniform(1, 20, size=n), np.zeros(n),
            rng.integers(0, 256, size=(n, 128), dtype=np.uint8))
        corr = direct_3d2d_search(partial, partial.point_ids(), fs, store)
        assert len(corr) <= 16

    def test_holdout_recovers_visible_points(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        image_id = held_out[0]
        corr = direct_3d2d_search(partial, partial.point_ids(),
                                  store[image_id], store)
        correct = 0
        matched_points = set()
        for pid, feat in corr:
            oracle = scene.point_of_feature[image_id][feat]
            # the model point must be the same physical point
            any_ref = sorted(partial.points[pid].track.items())[0]
            model_oracle = scene.point_of_feature[any_ref[0]][any_ref[1]]
            if oracle >= 0 and oracle == model_oracle:
                correct += 1
                matched_points.add(pid)
        assert len(corr) > 16
        assert correct / len(corr) >= 0.9
        # recall over the model points actually visible in this image
        oracle_visible = scene.visible_points(image_id)
        visible_covered = set()
        for pid in partial.point_ids():
            any_ref = sorted(partial.points[pid].track.items())[0]
            gt = scene.point_of_feature[any_ref[0]][any_ref[1]]
            if gt >= 0 and int(gt) in oracle_visible:
                visible_covered.add(pid)
        assert len(matched_points & visible_covered) / len(visible_covered) >= 0.9

    def test_duplicate_mean_descriptors_rejected(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        # two points sharing one mean descriptor: ratio test kills both
        from msfm.features import FeatureSet
        rng = np.random.default_rng(22)
        desc = rng.integers(0, 256, size=(1, 128), dtype=np.uint8)
        fs = FeatureSet.from_arrays(
            98, 1024, 768, np.array([[10.0, 10.0], [500.0, 500.0]]),
            np.array([2.0, 2.0]), np.zeros(2),
            np.vstack([desc, desc]))
        model = Model()
        from conftest import random_camera
        model.attach_camera(random_camera(rng, image_id=0))
        model.attach_camera(random_camera(rng, image_id=1))
        p1 = model.add_point(np.zeros(3), [(0, 0), (1, 0)])
        p2 = model.add_point(np.ones(3), [(0, 1), (1, 1)])
        model.points[p1].mean_descriptor = desc[0].astype(np.float32)
        model.points[p2].mean_descriptor = desc[0].astype(np.float32)
        corr = direct_3d2d_search(model, [p1, p2], fs, store)
        assert len(corr) == 0


def tuple_loop_ranked_search(model, graph, image_id, image_fs, store):
    """The per-feature tuple loop and dict tie rule that ``ranked_2d2d_search``
    replaced, as its oracle: sorted (point_id, feature_id) pairs, or []."""
    neighbors = sorted(((graph.match_count(image_id, other), -other, other)
                        for other in graph.neighbors(image_id)
                        if model.is_registered(other)), reverse=True)
    entries = []  # (point, feature in image, distance)
    for _, _, other in neighbors[:RANKED_TOP_K]:
        proxy = sorted((pid, feat) for feat, pid in model.tracked(other).items())
        if not proxy:
            continue
        queries = np.stack([store.descriptor(other, feat).astype(np.float32)
                            for _, feat in proxy])
        dist, idx = two_nearest_bruteforce(queries, image_fs.descriptors_f32())
        rows, feats, d, _ = ratio_filter(dist, idx, RATIO_UNGUIDED)
        entries += zip([proxy[row][0] for row in rows.tolist()], feats.tolist(), d.tolist())

    def closest_per_key(entries, key):
        best = {}
        for entry in entries:
            cur = best.get(entry[key])
            if cur is None or entry[2] < cur[2]:
                best[entry[key]] = entry
        return best

    per_point = closest_per_key(entries, 0).values()
    corr = sorted((pid, feat) for pid, feat, _ in closest_per_key(per_point, 1).values())
    return corr if len(corr) > MIN_CORRESPONDENCES else []


class TestRankedSearch:
    def test_matches_tuple_loop(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        for image_id in held_out:
            corr = ranked_2d2d_search(partial, graph, image_id, store[image_id], store)
            want = tuple_loop_ranked_search(partial, graph, image_id, store[image_id], store)
            assert len(want) > MIN_CORRESPONDENCES
            assert corr.dtype == np.int64 and corr.shape == (len(want), 2)
            assert [tuple(row) for row in corr.tolist()] == want

    def test_identical_image_covers_tracked_features(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        # query a copy of a localized image's features
        import dataclasses
        source = partial.image_ids()[0]
        fs = dataclasses.replace(store[source], image_id=97)
        # wire a fake graph edge so the neighbour ranking sees it
        from msfm.matching import Edge, Matches, MatchGraph
        g = MatchGraph()
        key = (min(97, source), max(97, source))
        ids = np.arange(40)
        g.edges[key] = Edge(matches=Matches(query=ids, target=ids, distance=np.zeros(40),
                                            ratio=np.zeros(40)),
                            inlier_mask=np.ones(40, dtype=bool))
        corr = ranked_2d2d_search(partial, g, 97, fs, store)
        tracked = {f for pid in partial.points_visible_in(source)
                   for i, f in partial.points[pid].track.items() if i == source}
        got_feats = {feat for _, feat in corr}
        assert len(corr) > 16
        assert len(got_feats & tracked) / len(corr) >= 0.9

    def test_below_gate_returns_empty(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        image_id = held_out[0]
        # an absurdly strict ratio forces almost no matches
        corr = ranked_2d2d_search(partial, graph, image_id, store[image_id],
                                  store, ratio=1e-6)
        assert len(corr) == 0

    def test_no_neighbours_raises(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        from msfm.matching import MatchGraph
        with pytest.raises(InsufficientDataError):
            ranked_2d2d_search(partial, MatchGraph(), held_out[0],
                               store[held_out[0]], store)


class TestLocalizeAll:
    def test_no_unregistered_is_noop(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        full = scene.ground_truth_model()
        newly, results = localize_all(full, scene.store(), graph, K)
        assert newly == []
        assert results == []

    def test_holdouts_localized(self, holdout_setup, tmp_path):
        scene, store, graph, partial, held_out, K = holdout_setup
        import copy
        model = copy.deepcopy(partial)
        newly, results = localize_all(model, store, graph, K, iteration=1)
        assert set(held_out) <= set(newly)
        assert model.stage_tag == "after_localize(1)"
        for r in results:
            if r.pose is not None:
                assert r.inliers >= 16
        # pose accuracy against ground truth
        for image_id in held_out:
            est = model.cameras[image_id]
            true = scene.cameras[image_id]
            c = np.clip((np.trace(est.R @ true.R.T) - 1) / 2, -1, 1)
            assert np.degrees(np.arccos(c)) < 0.1
        model.check_consistency()

    def test_order_invariance(self, holdout_setup, tmp_path):
        scene, store, graph, partial, held_out, K = holdout_setup
        import copy
        m1 = copy.deepcopy(partial)
        m2 = copy.deepcopy(partial)
        localize_all(m1, store, graph, K, order=sorted(store.sets))
        localize_all(m2, store, graph, K, order=sorted(store.sets, reverse=True))
        p1, p2 = tmp_path / "a.msfm", tmp_path / "b.msfm"
        write_model(m1, p1)
        write_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forced_set_cover_path(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        import copy
        model = copy.deepcopy(partial)
        newly, _ = localize_all(model, store, graph, K,
                                set_cover_engage=0, set_cover_k=40)
        assert len(newly) >= len(held_out) - 1  # cover may drop a marginal one

    def test_ranked_fallback_registers(self, holdout_setup):
        # a one-point cover leaves direct search below the gate, so every
        # held-out image falls back to the ranked 2D-2D search
        scene, store, graph, partial, held_out, K = holdout_setup
        import copy
        model = copy.deepcopy(partial)
        newly, results = localize_all(model, store, graph, K,
                                      set_cover_engage=0, set_cover_k=1)
        assert newly == held_out
        assert [r.method for r in results] == ["ranked2d2d"] * len(held_out)
        for image_id in held_out:
            est, true = model.cameras[image_id], scene.cameras[image_id]
            c = np.clip((np.trace(est.R @ true.R.T) - 1) / 2, -1, 1)
            assert np.degrees(np.arccos(c)) < 0.1
