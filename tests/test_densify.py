import copy
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as scipy_components

from msfm.densify import (
    COVIS_THRESHOLD,
    CANDIDATE_FRACTION,
    connected_components,
    densify_stage,
    merge_tracks,
    select_pairs,
)
from msfm.errors import NotRegisteredError
from msfm.matching import Matches, build_coarse_matchgraph
from msfm.model import Model
from msfm.reconstruct import incremental_reconstruct
from msfm.synth import SceneSpec, generate_scene

from conftest import random_camera
from model_oracles import check_consistency, covisibility_matrix, points_visible_in


class UnionFind:
    """Independent oracle for connected components."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return sorted(frozenset(g) for g in groups.values())


@dataclass
class CandidateSet:
    image_id: int
    candidates: list[tuple[int, int]]  # (image_id, covisible count), descending


def candidate_images(model: Model, image_id: int, *,
                     threshold: int = COVIS_THRESHOLD,
                     k_limit: int | None = None) -> CandidateSet:
    """Top partners of one image by covisible points: the per-image
    ranking that ``select_pairs`` replaced, as its oracle."""
    own_points = model.tracked(image_id).values()
    if k_limit is None:
        k_limit = int(np.ceil(CANDIDATE_FRACTION * len(model.cameras)))
    # each of the image's points counts once for every other image it is seen in
    shared = Counter(other for pid in own_points for other in model.points[pid].track)
    scored = sorted((-n, other) for other, n in shared.items()
                    if other != image_id and n > threshold)
    return CandidateSet(
        image_id=image_id,
        candidates=[(other, -neg) for neg, other in scored[:k_limit]],
    )


def unique_pairs(candidate_sets) -> list[tuple[int, int]]:
    """Deduplicated unordered pairs from all candidate sets, sorted (oracle)."""
    pairs = set()
    for cs in candidate_sets:
        for other, _ in cs.candidates:
            pairs.add((cs.image_id, other) if cs.image_id < other else (other, cs.image_id))
    return sorted(pairs)


def reference_pairs(model, query_images, threshold, k_limit):
    return unique_pairs([candidate_images(model, i, threshold=threshold, k_limit=k_limit)
                         for i in query_images])


def reference_merge_tracks(pair_matches, model):
    """The depth-first search that ``merge_tracks`` replaced, as its oracle."""
    adjacency, edge_dist = {}, {}

    def add_edge(u, v, dist):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
        key = (u, v) if u < v else (v, u)
        if key not in edge_dist or dist < edge_dist[key]:
            edge_dist[key] = dist

    def owner(ref):
        return model.tracked(ref[0]).get(ref[1]) if model.is_registered(ref[0]) else None

    def refs_of(pid):
        return sorted(model.points[pid].track.items())

    for qi, ti, m in pair_matches:
        for qf, tf, dist in zip(m.query.tolist(), m.target.tolist(), m.distance.tolist()):
            add_edge((qi, qf), (ti, tf), dist)
    touched = {owner(r) for r in list(adjacency)} - {None}
    for pid in touched:
        refs = refs_of(pid)
        for r in refs[1:]:
            add_edge(refs[0], r, -1.0)

    def support(ref):
        dists = [edge_dist[min(ref, o), max(ref, o)] for o in adjacency[ref]]
        return min([d for d in dists if d >= 0.0], default=np.inf)

    visited, new_tracks, extensions = set(), [], {}
    for start in sorted(adjacency):
        if start in visited:
            continue
        component, stack = [], [start]
        visited.add(start)
        while stack:
            node = stack.pop()
            component.append(node)
            for nxt in adjacency[node]:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append(nxt)
        owners = {owner(r) for r in component} - {None}
        if len(owners) >= 2:
            continue
        pid = owners.pop() if owners else None
        existing = set(refs_of(pid)) if pid is not None else set()
        by_image = {}
        for ref in sorted(component):
            by_image.setdefault(ref[0], []).append(ref)
        keep = []
        for image_id in sorted(by_image):
            refs = by_image[image_id]
            pinned = [r for r in refs if r in existing]
            if pinned:
                keep.extend(pinned)
            elif pid is None or image_id not in model.points[pid].track:
                keep.append(min(refs, key=lambda r: (support(r), r)))
        fresh = [r for r in keep if r not in existing]
        if pid is not None and fresh:
            extensions.setdefault(pid, []).extend(fresh)
        elif pid is None and len({r[0] for r in fresh}) >= 2:
            new_tracks.append(fresh)
    return new_tracks, extensions


def match(qi, qf, ti, tf, dist=1.0):
    return qi, ti, Matches(query=np.array([qf]), target=np.array([tf]),
                           distance=np.array([dist]), ratio=np.array([0.5]))


@pytest.fixture(scope="module")
def model(ring_scene):
    return ring_scene.ground_truth_model()


@pytest.fixture(scope="module")
def coarse_setup():
    scene = generate_scene(SceneSpec(
        n_cameras=14, n_points=1100, visibility_fraction=0.6,
        pixel_noise=0.4, descriptor_noise=3.0, seed=55))
    store = scene.store()
    store.apply_eta(20.0)
    graph = build_coarse_matchgraph(store.sets)
    K = {i: scene.cameras[i].K for i in store.sets}
    reconstructed = incremental_reconstruct(graph, store, K)
    return scene, store, reconstructed


class TestCandidateImages:
    def test_strict_threshold(self):
        rng = np.random.default_rng(1)
        model = Model()
        for i in range(3):
            model.attach_camera(random_camera(rng, image_id=i))
        for k in range(8):  # exactly 8 shared points between 0 and 1
            model.add_point(rng.normal(size=3), [(0, k), (1, k)])
        cs = candidate_images(model, 0, threshold=8, k_limit=10)
        assert cs.candidates == []  # 8 is not > 8
        cs7 = candidate_images(model, 0, threshold=7, k_limit=10)
        assert cs7.candidates == [(1, 8)]

    def test_unregistered_raises(self, model):
        with pytest.raises(NotRegisteredError):
            candidate_images(model, 10_000)

    def test_ranking_matches_covisibility_oracle(self, ring_scene, model):
        k_limit = 6
        mat = covisibility_matrix(ring_scene)
        ids = model.image_ids()
        for image_id in ids[:8]:
            cs = candidate_images(model, image_id, threshold=8, k_limit=k_limit)
            got = [other for other, _ in cs.candidates]
            counts = {
                other: len(points_visible_in(model, image_id) & points_visible_in(model, other))
                for other in ids if other != image_id
            }
            expected = sorted(
                (o for o, c in counts.items() if c > 8),
                key=lambda o: (-counts[o], o))[:k_limit]
            assert got == expected

    def test_empty_when_nothing_shared(self):
        rng = np.random.default_rng(2)
        model = Model()
        for i in range(2):
            model.attach_camera(random_camera(rng, image_id=i))
        assert candidate_images(model, 0).candidates == []


class TestUniquePairs:
    def test_mutual_listing_dedup(self):
        sets = [CandidateSet(0, [(1, 30)]), CandidateSet(1, [(0, 30)])]
        assert unique_pairs(sets) == [(0, 1)]

    def test_empty(self):
        assert unique_pairs([]) == []

    def test_counting_bounds(self, ring_scene):
        model = ring_scene.ground_truth_model()
        sets = [candidate_images(model, i, k_limit=4) for i in model.image_ids()]
        pairs = unique_pairs(sets)
        total = sum(len(cs.candidates) for cs in sets)
        assert len(pairs) <= total
        assert len(pairs) >= max(len(cs.candidates) for cs in sets)


class TestSelectPairs:
    """``select_pairs`` against the per-image ranking it replaced."""

    @staticmethod
    def shared_model(counts, n_images):
        """A model whose image pairs (a, b) share counts[(a, b)] points."""
        rng = np.random.default_rng(0)
        model = Model()
        for i in range(n_images):
            model.attach_camera(random_camera(rng, image_id=i))
        k = 0
        for (a, b), n in sorted(counts.items()):
            for _ in range(n):
                model.add_point(np.zeros(3), [(a, k), (b, k)])
                k += 1
        return model

    def test_equals_oracle_on_random_models(self):
        # few images and small counts: counts at the threshold and ties at
        # the k_limit cut on most models
        rng = np.random.default_rng(12)
        for trial in range(200):
            n_images = int(rng.integers(2, 9))
            model = Model()
            for i in range(n_images):
                model.attach_camera(random_camera(rng, image_id=i))
            for k in range(int(rng.integers(0, 40))):
                images = rng.choice(n_images, size=int(rng.integers(2, n_images + 1)),
                                    replace=False)
                model.add_point(np.zeros(3), [(int(i), k) for i in images])
            threshold, k_limit = int(rng.integers(0, 6)), int(rng.integers(1, 4))
            query = sorted(int(i) for i in np.flatnonzero(rng.random(n_images) < 0.6))
            assert select_pairs(model.observations(), query, threshold=threshold,
                                k_limit=k_limit) == \
                reference_pairs(model, query, threshold, k_limit), trial

    def test_threshold_is_strict(self):
        model = self.shared_model({(0, 1): 8, (0, 2): 9}, 3)
        assert select_pairs(model.observations(), [0], threshold=8, k_limit=10) == [(0, 2)]
        assert select_pairs(model.observations(), [0], threshold=7, k_limit=10) == [(0, 1), (0, 2)]

    def test_ties_at_the_cut_go_to_the_lower_id(self):
        model = self.shared_model({(0, 3): 12, (0, 1): 10, (0, 2): 10, (1, 2): 20}, 4)
        pairs = select_pairs(model.observations(), [0], threshold=8, k_limit=2)
        assert pairs == [(0, 1), (0, 3)] == reference_pairs(model, [0], 8, 2)

    def test_query_subset_and_image_without_partner(self):
        # image 3 shares nothing; only images 2 and 3 are queried, as in a
        # later iteration that localized them
        model = self.shared_model({(0, 1): 20, (0, 2): 15, (1, 2): 9}, 4)
        assert select_pairs(model.observations(), [2, 3], threshold=8, k_limit=1) == [(0, 2)]
        assert select_pairs(model.observations(), [3], threshold=8, k_limit=5) == []
        assert select_pairs(model.observations(), [], threshold=8, k_limit=5) == []
        for query in ([2, 3], [3], [0, 1, 2, 3]):
            assert select_pairs(model.observations(), query, threshold=8, k_limit=1) == \
                reference_pairs(model, query, 8, 1)

    def test_equals_oracle_on_a_ring(self, model):
        ids = model.image_ids()
        for query, k_limit in ((ids, 4), (ids[::3], 2), (ids[:1], 6)):
            assert select_pairs(model.observations(), query, threshold=8, k_limit=k_limit) == \
                reference_pairs(model, query, 8, k_limit)


@st.composite
def edge_lists(draw):
    """A node count and an edge list over it, drawn so that isolated nodes,
    self-loops and repeated edges all occur."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.one_of(st.tuples(node, node), node.map(lambda i: (i, i))),
                          max_size=2 * n))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=n))
    return n, draw(st.permutations(edges))


def assert_same_as_scipy(n, u, v):
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    count, label = connected_components(n, u, v)
    expected_count, expected = scipy_components(
        coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)), directed=False)
    assert count == expected_count
    assert np.array_equal(label, expected)


class TestConnectedComponents:
    """The numpy components pass against ``scipy.sparse.csgraph``."""

    def test_no_edges(self):
        assert_same_as_scipy(0, [], [])
        assert_same_as_scipy(5, [], [])

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_equals_scipy(self, graph):
        n, edges = graph
        assert_same_as_scipy(n, [a for a, _ in edges], [b for _, b in edges])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3000), st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
    def test_long_chains(self, n, seed, cuts):
        """Chains through the nodes in random order, edges shuffled and some
        reversed, cut into pieces: many hooking rounds and long pointer paths."""
        rng = np.random.default_rng(seed)
        path = rng.permutation(n)
        keep = np.ones(n - 1, dtype=bool)
        keep[rng.integers(0, n - 1, size=cuts)] = False
        u, v = path[:-1][keep], path[1:][keep]
        flip = rng.random(len(u)) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        order = rng.permutation(len(u))
        assert_same_as_scipy(n, u[order], v[order])


class TestMergeTracks:
    def test_chain_merges(self):
        model = Model()
        matches = [match(0, 1, 1, 3), match(1, 3, 2, 7)]
        new_tracks, extensions = merge_tracks(matches, model.observations())
        assert extensions == {}
        assert len(new_tracks) == 1
        assert set(new_tracks[0]) == {(0, 1), (1, 3), (2, 7)}

    def test_conflict_drops_weaker_feature(self):
        model = Model()
        # A1 and A2 both connect to B3; A1's edge is stronger (smaller dist)
        matches = [match(0, 1, 1, 3, dist=0.5), match(0, 2, 1, 3, dist=2.0)]
        new_tracks, _ = merge_tracks(matches, model.observations())
        assert len(new_tracks) == 1
        assert set(new_tracks[0]) == {(0, 1), (1, 3)}

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n_images = 12
            n_feats = 40
            model = Model()
            matches = []
            uf = UnionFind()
            for _ in range(500):
                a, b = rng.choice(n_images, size=2, replace=False)
                fa, fb = rng.integers(0, n_feats, size=2)
                matches.append(match(int(a), int(fa), int(b), int(fb)))
                uf.union((int(a), int(fa)), (int(b), int(fb)))
            new_tracks, _ = merge_tracks(matches, model.observations())
            # compare component structure before conflict resolution: every
            # surviving track must sit inside exactly one oracle component
            comp_of = {}
            for comp in uf.components():
                for node in comp:
                    comp_of[node] = comp
            # reconstruct full components from merge_tracks by rerunning with
            # distinct per-image features only
            for refs in new_tracks:
                roots = {comp_of[r] for r in refs}
                assert len(roots) == 1

    def test_component_sets_identical_without_conflicts(self):
        # when every image contributes at most one feature, components match
        # the union-find oracle exactly
        rng = np.random.default_rng(4)
        for trial in range(20):
            n_images = 30
            model = Model()
            matches = []
            uf = UnionFind()
            for _ in range(60):
                a, b = rng.choice(n_images, size=2, replace=False)
                # feature id equal to a fixed per-image value: no conflicts
                matches.append(match(int(a), 7, int(b), 7))
                uf.union((int(a), 7), (int(b), 7))
            new_tracks, _ = merge_tracks(matches, model.observations())
            got = {frozenset(refs) for refs in new_tracks}
            expected = {c for c in uf.components() if len(c) >= 2}
            assert got == expected

    def test_equals_dfs_reference(self):
        # few features per image and few distinct distances: conflicts,
        # bridged tracks and support ties on every graph
        rng = np.random.default_rng(8)
        for trial in range(300):
            n_images, n_feats = int(rng.integers(2, 7)), int(rng.integers(1, 6))
            model = Model()
            for i in range(n_images):
                model.attach_camera(random_camera(rng, image_id=i))
            for _ in range(int(rng.integers(0, 4))):
                images = rng.choice(n_images, size=int(rng.integers(2, n_images + 1)),
                                    replace=False)
                refs = [(int(i), int(rng.integers(n_feats))) for i in images]
                if all(f not in model.tracked(i) for i, f in refs):
                    model.add_point(np.zeros(3), refs)
            pair_matches = []
            for _ in range(int(rng.integers(1, 5))):
                qi, ti = (int(i) for i in rng.choice(n_images, size=2, replace=False))
                n = int(rng.integers(0, 8))
                pair_matches.append((qi, ti, Matches(
                    query=rng.integers(0, n_feats, n), target=rng.integers(0, n_feats, n),
                    distance=rng.integers(0, 3, n).astype(float), ratio=np.full(n, 0.5))))
            assert merge_tracks(pair_matches, model.observations()) == \
                reference_merge_tracks(pair_matches, model), trial

    def test_extends_existing_track(self):
        rng = np.random.default_rng(5)
        model = Model()
        for i in range(3):
            model.attach_camera(random_camera(rng, image_id=i))
        pid = model.add_point(np.zeros(3), [(0, 1), (1, 1)])
        matches = [match(1, 1, 2, 9)]
        new_tracks, extensions = merge_tracks(matches, model.observations())
        assert new_tracks == []
        assert extensions == {pid: [(2, 9)]}

    def test_two_existing_points_not_merged(self):
        rng = np.random.default_rng(6)
        model = Model()
        for i in range(4):
            model.attach_camera(random_camera(rng, image_id=i))
        p1 = model.add_point(np.zeros(3), [(0, 1), (1, 1)])
        p2 = model.add_point(np.ones(3), [(2, 1), (3, 1)])
        matches = [match(1, 1, 2, 1)]  # bridges the two tracks
        new_tracks, extensions = merge_tracks(matches, model.observations())
        assert new_tracks == []
        assert extensions == {}
        assert len(model.points) == 2  # untouched

    def test_existing_observation_beats_new_feature(self):
        rng = np.random.default_rng(7)
        model = Model()
        for i in range(3):
            model.attach_camera(random_camera(rng, image_id=i))
        pid = model.add_point(np.zeros(3), [(0, 1), (1, 1)])
        # new feature (0, 5) connects into the track, but image 0 is taken
        matches = [match(0, 5, 1, 1, dist=0.01)]
        new_tracks, extensions = merge_tracks(matches, model.observations())
        assert extensions == {}
        assert new_tracks == []


class TestDensifyStage:
    def test_adds_most_triangulable_points(self, coarse_setup):
        scene, store, model = coarse_setup
        work = copy.deepcopy(model)
        densify_stage(work, store)
        check_consistency(work)
        covered = set()
        for pt in work.points.values():
            ids = {
                int(scene.point_of_feature[i][f])
                for i, f in pt.track.items()
                if scene.point_of_feature[i][f] >= 0
            }
            if len(ids) == 1:
                covered |= ids
        tri = scene.triangulable_points()
        assert len(covered) / len(tri) >= 0.9
        assert work.stage_tag == model.stage_tag  # tags are the pipeline's

    def test_monotone_counts(self, coarse_setup):
        scene, store, model = coarse_setup
        work = copy.deepcopy(model)
        n_cam, n_pts = len(work.cameras), len(work.points)
        densify_stage(work, store)
        assert len(work.cameras) == n_cam
        assert len(work.points) >= n_pts

    def test_iteration2_empty_query_noop(self, coarse_setup):
        scene, store, model = coarse_setup
        work = copy.deepcopy(model)
        before = len(work.points)
        summary = densify_stage(work, store, query_images=[])
        assert summary["pairs"] == 0
        assert len(work.points) == before

    def test_saturated_model_adds_nothing_new(self, coarse_setup):
        scene, store, model = coarse_setup
        work = copy.deepcopy(model)
        densify_stage(work, store)
        n = len(work.points)
        densify_stage(work, store)
        # rerunning may extend tracks but adds few new points
        assert len(work.points) <= n * 1.02

    def test_band_respected_post_hoc(self, coarse_setup):
        from msfm.geometry import fundamental_from_poses
        from line_oracles import epipolar_line, point_line_distance
        scene, store, model = coarse_setup
        work = copy.deepcopy(model)
        pre = set(work.point_ids())
        densify_stage(work, store, d=8.0)
        fresh = [p for p in work.point_ids() if p not in pre]
        rng = np.random.default_rng(0)
        for pid in rng.choice(fresh, size=min(40, len(fresh)), replace=False):
            refs = sorted(work.points[pid].track.items())
            for i in range(len(refs) - 1):
                a, b = refs[i], refs[i + 1]
                F = fundamental_from_poses(work.cameras[a[0]], work.cameras[b[0]])
                line = epipolar_line(F, store.position(*a))
                dist = point_line_distance(store.position(*b), line)
                # matched pairs respect the band; chained refs may differ a bit
                assert dist <= 8.0 * 2.5
