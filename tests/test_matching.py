import numpy as np
from hypothesis import given, settings, strategies as st

from msfm.descriptors import SearchStats, two_nearest_bruteforce
from msfm.features import DESCRIPTOR_DIM, FeatureSet, select_top_scale
from msfm.matching import (
    build_coarse_matchgraph,
    closest_one_to_one,
    closest_per_key,
    hybrid_match,
    match_pair,
    one_per_target,
    ratio_filter,
)

import descriptor_oracles
from model_oracles import oracle_matches


def feature_set_from_descriptors(descs, image_id=0, scales=None, xy=None,
                                 width=1024, height=768):
    n = len(descs)
    rng = np.random.default_rng(image_id + 100)
    if xy is None:
        xy = rng.uniform(0, [width - 1, height - 1], size=(n, 2))
    if scales is None:
        scales = np.linspace(30.0, 1.0, n)  # already descending
    return FeatureSet.from_arrays(image_id, width, height, xy, scales,
                                  np.zeros(n), np.asarray(descs, dtype=np.uint8))


def noisy_pair(rng, n, sigma=4.0, image_ids=(0, 1)):
    """Two views of the same descriptor population, distinct bases."""
    base = rng.integers(0, 256, size=(n, DESCRIPTOR_DIM))
    a = np.clip(np.round(base + rng.normal(0, sigma, base.shape)), 0, 255)
    b = np.clip(np.round(base + rng.normal(0, sigma, base.shape)), 0, 255)
    return (feature_set_from_descriptors(a, image_ids[0]),
            feature_set_from_descriptors(b, image_ids[1]))


def id_pairs(matches):
    """The (query id, target id) pairs of a pair's matches."""
    return set(zip(matches.query.tolist(), matches.target.tolist()))


def brute_force_match(query_fs, target_fs, ratio):
    """Exhaustive O(m^2) oracle with the same dedup rule."""
    q = query_fs.descriptors.astype(np.float32)
    t = target_fs.descriptors.astype(np.float32)
    hits = {}
    for i in range(len(q)):
        d = np.sqrt(((t - q[i]) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")
        if len(order) < 2:
            continue
        best, second = order[0], order[1]
        if d[second] > 0 and d[best] / d[second] < ratio:
            cur = hits.get(int(best))
            if cur is None or d[best] < cur[1]:
                hits[int(best)] = (i, float(d[best]))
    return {(qi, ti) for ti, (qi, d) in hits.items()}


class TestTwoNearest:
    def test_matches_numpy_sort(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(40, DESCRIPTOR_DIM)).astype(np.float32)
        t = rng.normal(size=(70, DESCRIPTOR_DIM)).astype(np.float32)
        dist, idx = two_nearest_bruteforce(q, t)
        for i in range(40):
            d = np.sqrt(((t - q[i]) ** 2).sum(axis=1))
            order = np.argsort(d, kind="stable")
            assert idx[i, 0] == order[0]
            assert idx[i, 1] == order[1]

    def test_single_target(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, DESCRIPTOR_DIM)).astype(np.float32)
        t = rng.normal(size=(1, DESCRIPTOR_DIM)).astype(np.float32)
        dist, idx = two_nearest_bruteforce(q, t)
        assert (idx[:, 1] == -1).all()
        assert np.isinf(dist[:, 1]).all()

    def test_stats_counting(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(100, DESCRIPTOR_DIM)).astype(np.float32)
        stats = SearchStats()
        two_nearest_bruteforce(t[:10], t, stats)
        assert stats.queries == 10
        assert stats.candidates == 1000

    # few levels make tied distances; over 512 queries spans two blocks
    @given(seed=st.integers(0, 2**32 - 1), nq=st.integers(0, 600), nt=st.integers(0, 30),
           levels=st.sampled_from([2, 3, 256]), duplicated=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_uint8_equals_shipped_form(self, seed, nq, nt, levels, duplicated):
        rng = np.random.default_rng(seed)
        q = rng.integers(0, levels, (nq, DESCRIPTOR_DIM), dtype=np.uint8)
        t = rng.integers(0, levels, (nt, DESCRIPTOR_DIM), dtype=np.uint8)
        if duplicated and nt:
            t[rng.random(nt) < 0.5] = t[0]
            q[rng.random(nq) < 0.5] = t[int(rng.integers(0, nt))]
        dist, idx = two_nearest_bruteforce(q, t)
        dist_o, idx_o = descriptor_oracles.two_nearest_bruteforce(q, t)
        assert np.array_equal(idx, idx_o)
        assert np.array_equal(dist, dist_o)

    @given(seed=st.integers(0, 2**32 - 1), nq=st.integers(1, 300), nt=st.integers(2, 60))
    @settings(max_examples=30, deadline=None)
    def test_float_means_equal_shipped_form_where_winners_agree(self, seed, nq, nt):
        # float32 means of 2-8 noisy uint8 rows, as localize's track means
        rng = np.random.default_rng(seed)
        t = rng.integers(0, 256, (nt, DESCRIPTOR_DIM), dtype=np.uint8)
        rows = t[rng.integers(0, nt, nq)].astype(np.float64)
        k = int(rng.integers(2, 9))
        noisy = np.clip(rows[:, None] + rng.normal(0.0, 4.0, (nq, k, DESCRIPTOR_DIM)), 0, 255)
        q = noisy.astype(np.uint8).astype(np.float32).mean(axis=1)
        dist, idx = two_nearest_bruteforce(q, t)
        dist_o, idx_o = descriptor_oracles.two_nearest_bruteforce(q, t)
        agree = idx == idx_o
        assert np.array_equal(dist[agree], dist_o[agree])


class TestMatchPair:
    def test_self_match(self):
        rng = np.random.default_rng(5)
        descs = rng.integers(0, 256, size=(50, DESCRIPTOR_DIM))
        fs_a = feature_set_from_descriptors(descs, 0)
        fs_b = feature_set_from_descriptors(descs, 1)
        matches = match_pair(fs_a, fs_b, ratio=0.6)
        assert len(matches) == 50
        for q, t, dist in zip(matches.query, matches.target, matches.distance):
            assert q == t
            assert dist == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        fs_a, fs_b = noisy_pair(rng, 500)
        got = id_pairs(match_pair(fs_a, fs_b, ratio=0.6))
        expected = brute_force_match(fs_a, fs_b, 0.6)
        assert got == expected

    def test_precision_against_identity(self):
        rng = np.random.default_rng(7)
        fs_a, fs_b = noisy_pair(rng, 800)
        matches = match_pair(fs_a, fs_b, ratio=0.6)
        correct = int((matches.query == matches.target).sum())
        assert len(matches) > 700
        assert correct / len(matches) >= 0.99

    def test_ratio_monotone(self):
        rng = np.random.default_rng(8)
        fs_a, fs_b = noisy_pair(rng, 300, sigma=12.0)
        loose = id_pairs(match_pair(fs_a, fs_b, ratio=0.8))
        tight = id_pairs(match_pair(fs_a, fs_b, ratio=0.5))
        assert tight <= loose

    def test_single_candidate_cap(self):
        rng = np.random.default_rng(9)
        base = rng.integers(0, 256, size=(1, DESCRIPTOR_DIM))
        near = np.clip(base + rng.normal(0, 3, base.shape), 0, 255)
        fs_q = feature_set_from_descriptors(near, 0)
        fs_t = feature_set_from_descriptors(base, 1)
        accepted = match_pair(fs_q, fs_t, ratio=0.6, single_cap=45.0)
        assert len(accepted) == 1
        far = np.clip(base + 120, 0, 255)
        fs_q2 = feature_set_from_descriptors(far, 0)
        assert len(match_pair(fs_q2, fs_t, ratio=0.6, single_cap=45.0)) == 0

    def test_symmetry_on_noise_free_data(self):
        rng = np.random.default_rng(10)
        fs_a, fs_b = noisy_pair(rng, 200, sigma=0.0)
        ab = id_pairs(match_pair(fs_a, fs_b, ratio=0.6))
        ba = {(t, q) for q, t in id_pairs(match_pair(fs_b, fs_a, ratio=0.6))}
        assert ab == ba

    def test_target_dedup_keeps_best(self):
        rng = np.random.default_rng(11)
        target = rng.integers(0, 256, size=(3, DESCRIPTOR_DIM))
        # two queries both closest to target 0; distances differ
        q0 = np.clip(target[0].astype(float) + 1, 0, 255)
        q1 = np.clip(target[0].astype(float) + 9, 0, 255)
        fs_q = feature_set_from_descriptors(np.stack([q0, q1]), 0)
        fs_t = feature_set_from_descriptors(target, 1)
        matches = match_pair(fs_q, fs_t, ratio=0.99)
        target_ids = matches.target.tolist()
        assert len(target_ids) == len(set(target_ids))
        owner = dict(zip(target_ids, matches.query.tolist()))
        if 0 in owner:
            assert owner[0] == 0  # closer query wins


# few distinct distances, so exact ties are common
TIED_DISTANCES = st.sampled_from([0.0, 0.5, 1.0])


def loop_ratio_filter(dist, idx, ratio, single_cap):
    """The row-by-row ratio test that ``ratio_filter`` replaced, as its oracle."""
    out = []
    for row in range(len(dist)):
        best, second = dist[row]
        if idx[row, 0] < 0:
            continue
        if idx[row, 1] < 0 or not np.isfinite(second):
            if best < single_cap:
                out.append((row, int(idx[row, 0]), float(best), 0.0))
            continue
        r = best / second if second > 0 else 1.0
        if r < ratio:
            out.append((row, int(idx[row, 0]), float(best), float(r)))
    return out


def kept_tuples(cands):
    """The (row, target, distance, ratio) tuples that one_per_target keeps, in its order."""
    rows, targets, dist = (np.array([c[k] for c in cands]) for k in range(3))
    return [cands[k] for k in one_per_target(rows, targets, dist).tolist()]


class TestRatioFilter:
    @given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0, 3.0, 44.5, 45.0, 60.0]),
                              st.sampled_from([0.0, 0.25, 1.0, 4.0, 45.0, 75.0, np.inf]),
                              st.integers(-1, 5), st.integers(-1, 5)),
                    max_size=30),
           st.sampled_from([np.float32, np.float64]),
           st.sampled_from([0.6, 0.8, 1.0, 1.5]),
           st.sampled_from([45.0, 1.0]))
    def test_matches_row_loop(self, raw, dtype, ratio, single_cap):
        # exact ties, zero distances, a missing second neighbour (-1 or inf)
        # and the single-candidate cap, in float32 (guided) and float64 (2-NN)
        dist = np.array([(b, s) for b, s, _, _ in raw], dtype=dtype).reshape(-1, 2)
        idx = np.array([(i, j) for _, _, i, j in raw], dtype=np.int64).reshape(-1, 2)
        rows, targets, d, r = ratio_filter(dist, idx, ratio, single_cap)
        assert d.dtype == dtype and r.dtype == dtype
        got = list(zip(rows.tolist(), targets.tolist(), d.tolist(), r.tolist()))
        assert got == loop_ratio_filter(dist, idx, ratio, single_cap)


def first_closest(entries, key):
    """Brute force: per key, the first entry among those of least distance."""
    out = {}
    for entry in entries:
        k = entry[key]
        if k not in out:
            least = min(e[2] for e in entries if e[key] == k)
            out[k] = next(e for e in entries if e[key] == k and e[2] == least)
    return out


def columns(entries):
    """The (point, feature, distance) columns of entry tuples, as arrays."""
    return (np.array([e[0] for e in entries], dtype=np.int64),
            np.array([e[1] for e in entries], dtype=np.int64),
            np.array([e[2] for e in entries], dtype=np.float64))


class TestClosestMatch:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), TIED_DISTANCES),
                    max_size=40),
           st.sampled_from([0, 1]))
    def test_first_seen_wins_ties(self, raw, key):
        # the per-point and per-feature rule of the 3D-2D correspondence sites
        entries = [(a, b, d, i) for i, (a, b, d) in enumerate(raw)]
        cols = columns(entries)
        got = closest_per_key(cols[key], cols[2], np.arange(len(entries))).tolist()
        want = first_closest(entries, key)
        assert {entries[k][key]: entries[k] for k in got} == want
        assert [entries[k][key] for k in got] == sorted(want)  # ordered by key

    @given(st.lists(st.tuples(st.integers(0, 4), TIED_DISTANCES), max_size=40),
           st.randoms(use_true_random=False))
    def test_dedupe_targets_smaller_row_wins_ties(self, raw, rnd):
        # guided matching lists its rows group by group, not in row order
        rows = list(range(len(raw)))
        rnd.shuffle(rows)
        cands = [(row, tgt, d, 0.5) for row, (tgt, d) in zip(rows, raw)]
        want = []
        for tgt in {c[1] for c in cands}:
            mine = [c for c in cands if c[1] == tgt]
            least = min(c[2] for c in mine)
            want.append(min(c for c in mine if c[2] == least))
        assert kept_tuples(cands) == sorted(want)

    def test_tie_rules_differ_on_unordered_rows(self):
        cands = [(5, 0, 1.0, 0.5), (2, 0, 1.0, 0.4)]
        assert kept_tuples(cands) == [(2, 0, 1.0, 0.4)]
        # entry order, not row order, breaks the 3D-2D ties
        _, targets, dist = columns(cands)
        assert closest_per_key(targets, dist, np.arange(2)).tolist() == [0]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), TIED_DISTANCES),
                    max_size=40))
    def test_one_to_one(self, entries):
        # a feature's tie goes to the point whose first entry came first
        per_point = list(first_closest(entries, 0).values())
        want = sorted((p, f) for p, f, _ in first_closest(per_point, 1).values())
        got = closest_one_to_one(*columns(entries))
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert [tuple(row) for row in got.tolist()] == want
        assert len(set(got[:, 1].tolist())) == len(got) == len(set(got[:, 0].tolist()))


class TestHybridMatch:
    def _tiered_pair(self, rng, n=1500, sigma=3.0):
        fs_a, fs_b = noisy_pair(rng, n, sigma=sigma)
        return select_top_scale(fs_a, 20), select_top_scale(fs_b, 20)

    def test_stops_after_empty_first_batch(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 100, size=(1500, DESCRIPTOR_DIM))
        b = rng.integers(156, 256, size=(1500, DESCRIPTOR_DIM))
        fs_a = select_top_scale(feature_set_from_descriptors(a, 0), 20)
        fs_b = select_top_scale(feature_set_from_descriptors(b, 1), 20)
        stats = SearchStats()
        matches = hybrid_match(fs_a, fs_b, ratio=0.6, stats=stats)
        assert len(matches) <= 4
        assert stats.queries == 150  # one 10% batch only

    def test_early_stop_after_first_batch(self):
        rng = np.random.default_rng(13)
        fs_a, fs_b = self._tiered_pair(rng)
        stats = SearchStats()
        matches = hybrid_match(fs_a, fs_b, ratio=0.6, early_stop=64, stats=stats)
        assert stats.queries == 150  # first batch already exceeds 64 matches
        assert len(matches) >= 64

    def test_subset_of_full_tier_match(self):
        rng = np.random.default_rng(14)
        fs_a, fs_b = self._tiered_pair(rng)
        hybrid = id_pairs(hybrid_match(fs_a, fs_b, ratio=0.6, early_stop=10**9))
        full = id_pairs(match_pair(fs_a, fs_b, ratio=0.6))
        assert hybrid <= full


class TestBuildCoarseMatchGraph:
    def test_single_image_empty_graph(self):
        rng = np.random.default_rng(17)
        sets = {0: feature_set_from_descriptors(
            rng.integers(0, 256, size=(100, DESCRIPTOR_DIM)), 0)}
        graph = build_coarse_matchgraph(sets)
        assert graph.edges == {}

    def test_edges_geometry_verified(self, tiny_scene):
        store = tiny_scene.store()
        graph = build_coarse_matchgraph(store.sets)
        assert len(graph.edges) > 0
        for (a, b), edge in graph.edges.items():
            assert a < b
            assert edge.F is not None
            assert edge.inlier_mask.sum() >= 16
            assert len(edge.inlier_mask) == len(edge.matches)

    def test_noise_free_inliers_match_oracle(self, tiny_scene):
        scene = tiny_scene
        store = scene.store()
        graph = build_coarse_matchgraph(store.sets)
        for (a, b), edge in list(graph.edges.items())[:5]:
            oracle = dict(oracle_matches(scene, a, b))
            for q, t in id_pairs(edge.inliers()):
                assert oracle.get(q) == t

    def test_min_edge_matches_gate(self):
        rng = np.random.default_rng(18)
        # only 10 shared descriptors: below the 16-match edge gate
        base = rng.integers(0, 256, size=(10, DESCRIPTOR_DIM))
        a = np.vstack([base, rng.integers(0, 256, size=(200, DESCRIPTOR_DIM))])
        b = np.vstack([base, rng.integers(0, 256, size=(200, DESCRIPTOR_DIM))])
        sets = {0: feature_set_from_descriptors(a, 0),
                1: feature_set_from_descriptors(b, 1)}
        graph = build_coarse_matchgraph(sets)
        assert graph.edges == {}
