import copy
import pickle
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msfm.descriptors import two_nearest_bruteforce
from msfm.errors import InsufficientDataError
from msfm.io import write_model
from msfm.localize import (
    RANKED_TOP_K,
    compute_set_cover,
    direct_3d2d_search,
    localize_all,
    localize_image,
    ranked_2d2d_search,
    track_means,
)
from msfm.matching import RATIO_UNGUIDED, build_coarse_matchgraph, ratio_filter
from msfm.model import Model
from msfm.reconstruct import PNP_MIN_INLIERS
from msfm.synth import SceneSpec, generate_scene

from conftest import random_camera
from model_oracles import check_consistency, points_visible_in, visible_points


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


def per_point_means(model, point_ids, feature_sets):
    """Each point's ``np.mean`` over its track's float32 descriptors, images
    ascending: the per-point cache ``track_means`` replaced, as its oracle."""
    return np.array([
        np.mean([feature_sets[i].descriptors[f].astype(np.float32)
                 for i, f in sorted(model.points[pid].track.items())], axis=0)
        for pid in point_ids], dtype=np.float32).reshape(-1, 128)


def subset(observations, point_ids):
    keep = np.isin(observations[0], point_ids)
    return tuple(column[keep] for column in observations)


class TestMeanDescriptor:
    def test_track_of_one_returns_it(self, tiny_scene):
        store = tiny_scene.store()
        model = tiny_scene.ground_truth_model()
        pid = model.point_ids()[0]
        image_id, feature_id = sorted(model.points[pid].track.items())[0]
        ids, got = track_means(
            (np.array([pid]), np.array([image_id]), np.array([feature_id])), store.sets)
        assert ids.tolist() == [pid]
        assert np.allclose(got[0], store[image_id].descriptors[feature_id].astype(np.float32))

    def test_identical_descriptors(self, tiny_scene):
        store = tiny_scene.store()
        model = tiny_scene.ground_truth_model()
        pid = model.point_ids()[1]
        ids, got = track_means(model.observations(), store.sets)
        # noise-free scene: every observation is the base descriptor
        image_id, feature_id = sorted(model.points[pid].track.items())[0]
        assert np.allclose(got[ids.tolist().index(pid)],
                           store[image_id].descriptors[feature_id].astype(np.float32))

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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_per_point_mean_bitwise(self, data):
        # tracks of 2-12 images, or of up to 300 (long tracks, whose sums
        # leave uint8 far behind), each added in a drawn order, and a drawn
        # subset of the points; uint8 descriptors, as feature sets hold them,
        # so a division in float64 would change the bits
        n_images = data.draw(st.sampled_from([12, 300]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        model = Model()
        for i in range(n_images):
            model.attach_camera(random_camera(rng, image_id=i))
        lengths = data.draw(st.lists(st.integers(2, n_images), min_size=1, max_size=12))
        for k, length in enumerate(lengths):
            images = data.draw(st.permutations(range(n_images)))[:length]
            pid = model.add_point(np.zeros(3), [(i, k) for i in images[:2]])
            for i in images[2:]:
                model.extend_track(pid, i, k)
        feature_sets = {i: SimpleNamespace(descriptors=rng.integers(
            0, 256, size=(len(lengths), 128), dtype=np.uint8)) for i in range(n_images)}
        chosen = sorted(data.draw(st.sets(st.sampled_from(model.point_ids()))))
        ids, got = track_means(subset(model.observations(), chosen), feature_sets)
        want = per_point_means(model, chosen, feature_sets)
        assert ids.dtype == np.int64 and ids.tolist() == chosen
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_equals_per_point_mean_on_a_scene(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        for chosen in (partial.point_ids(), sorted(compute_set_cover(partial, 40))):
            ids, got = track_means(subset(partial.observations(), chosen), store.sets)
            assert ids.tolist() == chosen
            assert got.tobytes() == per_point_means(partial, chosen, store.sets).tobytes()


def coverage(model, cover):
    """Image -> number of the chosen points that it observes."""
    return Counter(image_id for pid in cover for image_id in model.points[pid].track)


class TestSetCover:
    def test_feasible_coverage(self, tiny_scene):
        model = tiny_scene.ground_truth_model()
        k = 5
        covered = coverage(model, compute_set_cover(model, k))
        for image_id in model.image_ids():
            visible = len(points_visible_in(model, image_id))
            assert covered[image_id] >= min(k, visible)

    def test_saturation_when_k_exceeds_visibility(self):
        scene = generate_scene(SceneSpec(n_cameras=4, n_points=30, seed=13))
        model = scene.ground_truth_model()
        cover = compute_set_cover(model, 10_000)
        assert sorted(cover) == model.point_ids()
        covered = coverage(model, cover)
        for image_id in model.image_ids():
            assert covered[image_id] == len(points_visible_in(model, image_id))

    def test_compression(self, ring_scene):
        model = ring_scene.ground_truth_model()
        cover = compute_set_cover(model, 50)
        assert len(cover) <= 0.5 * len(model.points)

    def test_greedy_minimality(self, tiny_scene):
        # dropping any selected point breaks k-coverage for some camera that
        # had at least k visibility
        model = tiny_scene.ground_truth_model()
        k = 4
        cover = compute_set_cover(model, k)
        selected = set(cover)
        for pid in cover[:20]:
            without = selected - {pid}
            broken = False
            for image_id in model.points[pid].track:
                visible = points_visible_in(model, image_id)
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
        corr = direct_3d2d_search(*track_means(partial.observations(), store.sets), fs)
        assert len(corr) <= 16

    def test_holdout_recovers_visible_points(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        image_id = held_out[0]
        corr = direct_3d2d_search(*track_means(partial.observations(), store.sets),
                                  store[image_id])
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
        oracle_visible = visible_points(scene, image_id)
        visible_covered = set()
        for pid in partial.point_ids():
            any_ref = sorted(partial.points[pid].track.items())[0]
            gt = scene.point_of_feature[any_ref[0]][any_ref[1]]
            if gt >= 0 and int(gt) in oracle_visible:
                visible_covered.add(pid)
        assert len(matched_points & visible_covered) / len(visible_covered) >= 0.9

    def test_duplicate_mean_descriptors_rejected(self):
        # two points sharing one mean descriptor: ratio test kills both
        from msfm.features import FeatureSet
        rng = np.random.default_rng(22)
        desc = rng.integers(0, 256, size=(1, 128), dtype=np.uint8)
        fs = FeatureSet.from_arrays(
            98, 1024, 768, np.array([[10.0, 10.0], [500.0, 500.0]]),
            np.array([2.0, 2.0]), np.zeros(2),
            np.vstack([desc, desc]))
        queries = np.vstack([desc, desc]).astype(np.float32)
        corr = direct_3d2d_search(np.array([0, 1]), queries, fs)
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
        queries = np.stack([store[other].descriptors[feat].astype(np.float32)
                            for _, feat in proxy])
        dist, idx = two_nearest_bruteforce(queries, image_fs.descriptors)
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
    return corr if len(corr) > PNP_MIN_INLIERS else []


class TestRankedSearch:
    def test_matches_tuple_loop(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        for image_id in held_out:
            corr = ranked_2d2d_search(partial, graph, image_id, store[image_id], store)
            want = tuple_loop_ranked_search(partial, graph, image_id, store[image_id], store)
            assert len(want) > PNP_MIN_INLIERS
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
        tracked = {f for pid in points_visible_in(partial, source)
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
        model = copy.deepcopy(partial)
        newly, results = localize_all(model, store, graph, K)
        assert set(held_out) <= set(newly)
        assert model.stage_tag == "coarse"  # tags are the pipeline's
        for r in results:
            if r.pose is not None:
                assert r.inliers >= 16
        # pose accuracy against ground truth
        for image_id in held_out:
            est = model.cameras[image_id]
            true = scene.cameras[image_id]
            c = np.clip((np.trace(est.R @ true.R.T) - 1) / 2, -1, 1)
            assert np.degrees(np.arccos(c)) < 0.1
        check_consistency(model)

    def test_order_invariance(self, holdout_setup, tmp_path):
        scene, store, graph, partial, held_out, K = holdout_setup
        m1 = copy.deepcopy(partial)
        m2 = copy.deepcopy(partial)
        localize_all(m1, store, graph, K, order=sorted(store.sets))
        localize_all(m2, store, graph, K, order=sorted(store.sets, reverse=True))
        p1, p2 = tmp_path / "a.msfm", tmp_path / "b.msfm"
        write_model(m1, p1)
        write_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_attempts_leave_snapshot_untouched(self, holdout_setup, tmp_path):
        scene, store, graph, partial, held_out, K = holdout_setup
        model = copy.deepcopy(partial)
        before = tmp_path / "before.msfm"
        write_model(model, before)
        points = {pid: pickle.dumps(vars(point)) for pid, point in model.points.items()}
        point_ids, queries = track_means(model.observations(), store.sets)
        unregistered = [i for i in sorted(store.sets) if not model.is_registered(i)]
        assert unregistered == held_out
        for image_id in unregistered:
            result = localize_image(model, graph, image_id, store, K[image_id],
                                    point_ids, queries)
            assert result.pose is not None
        after = tmp_path / "after.msfm"
        write_model(model, after)
        assert after.read_bytes() == before.read_bytes()
        assert {pid: pickle.dumps(vars(point)) for pid, point in model.points.items()} == points

    def test_forced_set_cover_path(self, holdout_setup):
        scene, store, graph, partial, held_out, K = holdout_setup
        model = copy.deepcopy(partial)
        newly, _ = localize_all(model, store, graph, K,
                                set_cover_engage=0, set_cover_k=40)
        assert len(newly) >= len(held_out) - 1  # cover may drop a marginal one

    def test_ranked_fallback_registers(self, holdout_setup):
        # a one-point cover leaves direct search below the gate, so every
        # held-out image falls back to the ranked 2D-2D search
        scene, store, graph, partial, held_out, K = holdout_setup
        model = copy.deepcopy(partial)
        newly, results = localize_all(model, store, graph, K,
                                      set_cover_engage=0, set_cover_k=1)
        assert newly == held_out
        assert [r.method for r in results] == ["ranked2d2d"] * len(held_out)
        for image_id in held_out:
            est, true = model.cameras[image_id], scene.cameras[image_id]
            c = np.clip((np.trace(est.R @ true.R.T) - 1) / 2, -1, 1)
            assert np.degrees(np.arccos(c)) < 0.1
