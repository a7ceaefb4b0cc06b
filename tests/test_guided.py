import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.spatial import cKDTree

from msfm import densify
from msfm.config import PipelineConfig
from msfm.descriptors import SearchStats
from msfm.features import DESCRIPTOR_DIM, FeatureSet
from msfm.geometry import EpipolarLine, fundamental_from_poses, skew
from msfm.guided import (
    _candidates_batch,
    build_grid,
    candidates_linear,
    clip_lines,
    group_queries,
    guided_match_pair,
)
from msfm.matching import NO_MATCHES, match_pair, matches_from, ratio_filter
from msfm.model import Camera
from msfm.pipeline import run_coarse, run_densify, run_match
from msfm.synth import SceneSpec, generate_scene

from line_oracles import (
    candidates_grid,
    cell_indices,
    clip_line_to_bounds,
    encode,
    equidistant_line_points,
    reference_candidates_grid,
    reference_grid_table,
    reference_group_queries,
)
from model_oracles import oracle_matches


def random_lines(rng, n, width, height):
    out = []
    for _ in range(n):
        p0 = rng.uniform(0, [width, height])
        ang = rng.uniform(0, np.pi)
        a, b = np.sin(ang), -np.cos(ang)
        out.append(EpipolarLine(a, b, -(a * p0[0] + b * p0[1])))
    return out


def reference_guided_match_pair(query_fs, target_fs, F, *, d=8.0, ratio=0.8,
                                inflation=1.25, query_indices=None, target_indices=None,
                                grid=None, stats=None):
    """The group-by-group loop that ``guided_match_pair`` replaced, as its oracle."""
    ti = np.arange(len(target_fs)) if target_indices is None else np.asarray(target_indices)
    if len(ti) == 0:
        return NO_MATCHES
    bounds = (float(target_fs.width), float(target_fs.height))
    txy = target_fs.xy[ti].astype(np.float64)
    if grid is None:
        grid = build_grid(txy, d * inflation, width=bounds[0], height=bounds[1])

    groups = reference_group_queries(query_fs, F, bounds, query_indices=query_indices)
    tdesc = target_fs.descriptors[ti].astype(np.float32)
    tnorm = np.einsum("ij,ij->i", tdesc, tdesc)
    qdesc = query_fs.descriptors.astype(np.float32)
    qxy = query_fs.xy.astype(np.float64)
    accepted = []
    for group in groups:
        cand = reference_candidates_grid(grid, txy, group.representative_line, d)
        if len(cand) == 0:
            continue
        members = group.member_features
        # exact band of each member's own line; descriptor distances are only
        # computed for candidates inside the union of the members' bands
        hom = np.hstack([qxy[members], np.ones((len(members), 1))])
        mlines = hom @ F.T
        mnorm = np.hypot(mlines[:, 0], mlines[:, 1])
        mlines /= np.maximum(mnorm, 1e-15)[:, None]
        in_band = np.abs(mlines[:, :2] @ txy[cand].T + mlines[:, 2:3]) <= d
        cols = in_band.any(axis=0)
        if not cols.any():
            continue
        cand = cand[cols]
        in_band = in_band[:, cols]
        qd = qdesc[members]
        cdesc = tdesc[cand]
        d2 = (np.einsum("ij,ij->i", qd, qd)[:, None] + tnorm[cand][None, :]
              - 2.0 * (qd @ cdesc.T))
        np.maximum(d2, 0.0, out=d2)
        d2[~in_band] = np.inf
        if stats is not None:
            stats.add(len(members), len(members) * len(cand))
        rows = np.arange(len(members))
        best = np.argmin(d2, axis=1)
        best_d2 = d2[rows, best].copy()
        d2[rows, best] = np.inf
        second = np.argmin(d2, axis=1)
        second_d2 = d2[rows, second]
        dist = np.sqrt(np.stack([best_d2, second_d2], axis=1))
        idx = np.stack([np.where(np.isfinite(best_d2), best, -1),
                        np.where(np.isfinite(second_d2), second, -1)], axis=1)
        k, local, dd, rr = ratio_filter(dist, idx, ratio)
        accepted.append((members[k], cand[local], dd, rr))
    if not accepted:
        return NO_MATCHES
    return matches_from(tuple(np.concatenate(column) for column in zip(*accepted)),
                        query_ids=None, target_ids=ti)


def match_rows(matches):
    return list(zip(matches.query.tolist(), matches.target.tolist(),
                    matches.distance.tolist(), matches.ratio.tolist()))


def assert_same_as_reference(query_fs, target_fs, F, **kw):
    """Equal matches (ids, distances, ratios) and equal search counters."""
    got_stats, want_stats = SearchStats(), SearchStats()
    got = guided_match_pair(query_fs, target_fs, F, stats=got_stats, **kw)
    want = reference_guided_match_pair(query_fs, target_fs, F, stats=want_stats, **kw)
    assert match_rows(got) == match_rows(want)
    assert (got_stats.queries, got_stats.candidates) == \
        (want_stats.queries, want_stats.candidates)
    return got


def large_pair_spec(n_points):
    """Criterion 6's make-up: two parallel 3072 x 2304 views of one cloud."""
    return SceneSpec(n_cameras=2, layout="grid", ring_radius=6.0, cloud_radius=1.8,
                     n_points=n_points, image_width=3072, image_height=2304, focal=2600.0,
                     visibility_fraction=1.0, pixel_noise=0.3, descriptor_noise=3.0, seed=77)


def table_slice(grid, hx, hy):
    """Feature ids the half-cell table holds for half-cell (hx, hy)."""
    cell = (hx + 3) * grid.rows + hy + 3
    return grid._members[grid._starts[cell]:grid._starts[cell + 1]]


def neighbourhood_ids(grid, hx, hy):
    """Feature ids of the 3 x 3 half-cells around (hx, hy), sorted."""
    return np.sort(np.concatenate([table_slice(grid, hx + i, hy + j)
                                   for i in (-1, 0, 1) for j in (-1, 0, 1)]))


class TestBuildGrid:
    def test_origin_cell_indices(self):
        grid = build_grid(np.array([[0.0, 0.0]]), 10.0, width=100, height=100)
        idx = cell_indices(grid, np.array([[0.0, 0.0]]))[0]
        assert idx.tolist() == [[0, 0], [-1, 0], [0, -1], [-1, -1]]
        assert cell_indices(grid, np.array([[25.0, 25.0]]))[0, 0].tolist() == [1, 1]
        assert (grid.columns, grid.rows) == (17, 17)
        assert table_slice(grid, 0, 0).tolist() == [0]
        assert table_slice(grid, -1, 0).tolist() == table_slice(grid, 0, -1).tolist() == []

    def test_every_feature_in_one_half_cell(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform(-40, [680, 520], size=(10_000, 2))
        grid = build_grid(xy, 8.0, width=640, height=480)
        half = np.floor(xy / 8.0).astype(np.int64)
        inside = ((half >= -3) & (half <= [80 + 3, 60 + 3])).all(axis=1)
        assert np.array_equal(np.sort(grid._members), np.flatnonzero(inside))
        assert grid._starts[0] == 0 and grid._starts[-1] == inside.sum()
        assert (np.diff(grid._starts) >= 0).all()
        # each half-cell's run holds exactly the features of that half-cell,
        # in id order
        for hx, hy in half[inside][:200].tolist():
            ids = table_slice(grid, hx, hy)
            assert (half[ids] == [hx, hy]).all()
            assert np.array_equal(ids, np.flatnonzero((half == [hx, hy]).all(axis=1)))

    @pytest.mark.parametrize("d", [3.3, 10.0, 12.5])
    def test_table_equals_unique_reference(self, d):
        rng = np.random.default_rng(17)
        xy = rng.uniform(-20, [660, 500], size=(5000, 2))
        grid = build_grid(xy, d, width=640, height=480)
        starts, members = reference_grid_table(grid, xy)
        assert np.array_equal(grid._starts, starts)
        assert np.array_equal(grid._members, members)

    def test_table_size(self):
        # (floor(W / D) + 7) (floor(H / D) + 7) offsets
        for (w, h), n_cells in (((1024, 768), 109 * 83), ((3072, 2304), 314 * 237)):
            grid = build_grid(np.zeros((1, 2)), 10.0, width=w, height=h)
            assert len(grid._starts) == n_cells + 1

    @given(features=st.lists(st.tuples(st.integers(-3000, 44_000), st.integers(-3000, 34_000)),
                             min_size=1, max_size=60),
           points=st.lists(st.tuples(st.integers(-2000, 43_000), st.integers(-2000, 33_000)),
                           min_size=1, max_size=8),
           d=st.sampled_from([4.0, 8.0]), inflation=st.sampled_from([1.25, np.sqrt(2.0), 40.0]))
    def test_half_cell_neighbourhood_equals_offset_grids(self, features, points, d, inflation):
        # positions on a 1/64 px lattice, negative ones and ones beyond the
        # 640 x 480 image included: the features sharing any of the four
        # offset cells with a point are those of the 3 x 3 half-cells around it
        xy = np.array(features, dtype=np.float64) / 64.0
        grid = build_grid(xy, d * inflation, width=640, height=480)
        cells, half = cell_indices(grid, xy), np.floor(xy / grid.d)
        for p in np.array(points, dtype=np.float64) / 64.0:
            at = cell_indices(grid, p)[0]
            shared = (encode(cells) == encode(at)[None, :]).any(axis=1)
            assert np.array_equal(shared, (np.abs(half - np.floor(p / grid.d)) <= 1).all(axis=1))
            # the table holds the whole neighbourhood of points this near the image
            hx, hy = np.floor(p / grid.d).astype(np.int64).tolist()
            if -2 <= hx <= grid.columns - 5 and -2 <= hy <= grid.rows - 5:
                assert neighbourhood_ids(grid, hx, hy).tolist() == np.flatnonzero(shared).tolist()

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            build_grid(np.zeros((1, 2)), 0.0, width=10, height=10)

    def test_band_wider_than_half_cell(self):
        grid = build_grid(np.zeros((1, 2)), 8.0, width=100, height=100)
        with pytest.raises(ValueError):
            _candidates_batch(grid, np.array([[0.0, 1.0, -50.0]]), 8.5)


class TestEquidistantPoints:
    def test_horizontal_line_across_image(self):
        pts = equidistant_line_points(EpipolarLine(0.0, 1.0, -50.0), (640, 480), 10.0)
        assert len(pts) == 65
        ends = {tuple(pts[0]), tuple(pts[-1])}
        assert ends == {(0.0, 50.0), (640.0, 50.0)}
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert (gaps <= 10.0 + 1e-9).all()

    def test_corner_clip_two_points(self):
        # a diagonal line cutting a tiny corner: segment shorter than d
        line = EpipolarLine(np.sqrt(0.5), np.sqrt(0.5), -3.0)
        pts = equidistant_line_points(line, (640, 480), 10.0)
        assert len(pts) == 2

    def test_miss_returns_empty(self):
        line = EpipolarLine(0.0, 1.0, 100.0)  # y = -100
        assert len(equidistant_line_points(line, (640, 480), 10.0)) == 0

    def test_every_band_feature_near_a_sample(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(0, [640, 480], size=(4000, 2))
        for line in random_lines(rng, 40, 640, 480):
            pts = equidistant_line_points(line, (640, 480), 8.0, pad=8.0)
            if len(pts) == 0:
                continue
            band = candidates_linear(xy, line, 8.0)
            if len(band) == 0:
                continue
            tree = cKDTree(pts)
            dist, _ = tree.query(xy[band])
            assert dist.max() <= 8.0 * np.sqrt(2.0) + 1e-9


class TestCandidateRetrieval:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.rng = rng
        self.W, self.H = 1024, 1024
        self.xy = rng.uniform(0, [self.W, self.H], size=(10_000, 2))
        self.lines = random_lines(rng, 200, self.W, self.H)
        self.d = 8.0

    def test_linear_band_inclusive(self):
        xy = np.array([[10.0, 0.0], [10.0, 8.0], [10.0, 8.0001]])
        line = EpipolarLine(0.0, 1.0, 0.0)  # y = 0
        got = candidates_linear(xy, line, 8.0)
        assert got.tolist() == [0, 1]

    def test_empty_band(self):
        line = EpipolarLine(0.0, 1.0, -2000.0)
        assert len(candidates_linear(self.xy, line, self.d)) == 0

    def test_grid_full_recall_at_default_inflation(self):
        grid = build_grid(self.xy, self.d * 1.25, width=self.W, height=self.H)
        total = hits = candidates = 0
        for line in self.lines:
            lin = set(candidates_linear(self.xy, line, self.d).tolist())
            got = set(candidates_grid(grid, line, self.d).tolist())
            total += len(lin)
            hits += len(lin & got)
            candidates += len(got)
        assert hits / total >= 0.99
        assert candidates <= 4 * total

    def test_grid_containment_at_sqrt2(self):
        grid = build_grid(self.xy, self.d * np.sqrt(2.0), width=self.W, height=self.H)
        for line in self.lines[:60]:
            lin = set(candidates_linear(self.xy, line, self.d).tolist())
            got = set(candidates_grid(grid, line, self.d).tolist())
            assert lin <= got

    def test_feature_on_line_always_retrieved(self):
        rng = self.rng
        grid_pts = self.xy.copy()
        for line in self.lines[:30]:
            pts = equidistant_line_points(line, (self.W, self.H), self.d)
            if len(pts) < 3:
                continue
            on_line = pts[len(pts) // 2] + 0.01
            xy = np.vstack([grid_pts, on_line])
            grid = build_grid(xy, self.d * 1.25, width=self.W, height=self.H)
            got = candidates_grid(grid, line, self.d)
            assert len(xy) - 1 in got

    def test_empty_grid(self):
        grid = build_grid(np.zeros((0, 2)), 10.0, width=100, height=100)
        line = EpipolarLine(0.0, 1.0, -50.0)
        assert len(candidates_grid(grid, line, 10.0)) == 0

class TestGroupQueries:
    def _pair(self, seed=5):
        scene = generate_scene(SceneSpec(n_cameras=4, n_points=500, seed=seed))
        fs_q = scene.feature_sets[0]
        fs_t = scene.feature_sets[1]
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        return scene, fs_q, fs_t, F

    def test_identical_lines_one_group(self):
        scene, fs_q, fs_t, F = self._pair()
        # duplicate one query feature: same position, same epipolar line
        fs_dup = FeatureSet(
            image_id=0, width=fs_q.width, height=fs_q.height,
            xy=np.vstack([fs_q.xy[:1], fs_q.xy[:1]]),
            scale=np.array([2.0, 2.0], dtype=np.float32),
            orientation=np.zeros(2, dtype=np.float32),
            descriptors=fs_q.descriptors[:2],
        )
        groups = group_queries(fs_dup, F, (fs_t.width, fs_t.height))
        assert len(groups) == 1
        assert groups.members.tolist() == [0, 1]

    def test_groups_partition_queries(self):
        scene, fs_q, fs_t, F = self._pair()
        groups = group_queries(fs_q, F, (fs_t.width, fs_t.height))
        seen = groups.members.tolist()
        assert len(seen) == len(set(seen))
        # every member's own line hits the boundary within tolerance of the
        # representative's endpoints
        ends = np.append(groups.starts, len(groups.members))
        for g in range(min(40, len(groups))):
            rep_a, rep_b = clip_line_to_bounds(
                EpipolarLine(*groups.lines[g]), fs_t.width, fs_t.height)
            for fid in groups.members[ends[g]:ends[g + 1]]:
                hom = np.append(fs_q.xy[fid].astype(np.float64), 1.0)
                l = F @ hom
                l = l / np.hypot(l[0], l[1])
                clipped = clip_line_to_bounds(
                    EpipolarLine(*l), fs_t.width, fs_t.height)
                assert clipped is not None
                pa, pb = clipped
                assert np.linalg.norm(pa - rep_a) <= 2.0 * np.sqrt(2)
                assert np.linalg.norm(pb - rep_b) <= 2.0 * np.sqrt(2)

    def test_distant_boundary_hits_split(self):
        # two horizontal epipolar lines 3 px apart must land in two groups
        K = np.eye(3)
        cam_q = Camera(K=K, R=np.eye(3), t=np.zeros(3), image_id=0)
        cam_c = Camera(K=K, R=np.eye(3), t=np.array([-1.0, 0.0, 0.0]), image_id=1)
        F = fundamental_from_poses(cam_q, cam_c)
        xy = np.array([[5.0, 7.0], [5.0, 10.0]], dtype=np.float32)
        fs = FeatureSet(image_id=0, width=100, height=100, xy=xy,
                        scale=np.ones(2, dtype=np.float32),
                        orientation=np.zeros(2, dtype=np.float32),
                        descriptors=np.zeros((2, DESCRIPTOR_DIM), dtype=np.uint8))
        groups = group_queries(fs, F, (100.0, 100.0))
        assert len(groups) == 2

    @given(width=st.integers(4, 40_000), height=st.integers(4, 40_000),
           epipole=st.floats(0.0, 0.5))
    # no shrinking: each failing example holds arrays of up to 80k queries
    @settings(max_examples=15, deadline=None, phases=[Phase.generate])
    def test_group_members_share_buckets_at_any_image_size(self, width, height, epipole):
        # every epipolar line passes through an epipole on the left edge and
        # through its own query point, placed every pixel along the bottom
        # and right edges of the target: boundary hits cover both edges
        y0 = 2.0 * np.floor(epipole * height / 2.0) + 1.0
        F = np.array([[0.0, -1.0, y0], [1.0, 0.0, 0.0], [-y0, 0.0, 0.0]])
        bottom = np.stack([np.arange(width) + 0.5, np.full(width, float(height))], axis=1)
        right = np.stack([np.full(height, float(width)), np.arange(height) + 0.5], axis=1)
        xy = np.vstack([bottom, right]).astype(np.float32)
        n = len(xy)
        fs = FeatureSet(image_id=0, width=width, height=height, xy=xy,
                        scale=np.ones(n, dtype=np.float32),
                        orientation=np.zeros(n, dtype=np.float32),
                        descriptors=np.zeros((n, DESCRIPTOR_DIM), dtype=np.uint8))
        groups = group_queries(fs, F, (float(width), float(height)))
        members, starts = groups.members, groups.starts
        lines = np.hstack([xy[members].astype(np.float64), np.ones((len(members), 1))]) @ F.T
        lines /= np.hypot(lines[:, 0], lines[:, 1])[:, None]
        ok, pa, pb = clip_lines(lines, width, height)
        assert ok.all()
        buckets = np.floor(np.hstack([pa, pb]) / 2.0).astype(np.int64)
        for col in range(4):
            lo = np.minimum.reduceat(buckets[:, col], starts)
            hi = np.maximum.reduceat(buckets[:, col], starts)
            assert (lo == hi).all()

    @given(size=st.tuples(st.integers(4, 5000), st.integers(4, 5000)),
           pencil=st.booleans(),
           rows=st.tuples(*[st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                      st.floats(-1.0, 1.0))] * 3),
           flatten=st.tuples(st.sampled_from([0, 1]),
                             st.sampled_from([1.0, 0.0, 1e-12, 1e-7, 1e-3])),
           through=st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2), st.floats(0.0, 2.0)),
           n=st.integers(0, 300), subset=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_arrays_equal_list_reference(self, size, pencil, rows, flatten, through, n,
                                         subset, seed):
        width, height = size
        cx, cy, spread = through
        F = np.array(rows, dtype=np.float64)
        if pencil:
            # the line of query (x, y) runs through the epipole (ex, ey) and
            # through (ex + tilt (x - width / 2), y): near-vertical lines of
            # both slants share their boundary buckets when tilt is small,
            # and tilt 0 makes them exactly vertical
            tilt = flatten[1]
            ex, ey = cx * width, cy * height
            F = skew(np.array([ex, ey, 1.0])) @ np.array(
                [[tilt, 0.0, ex - tilt * width / 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        else:
            # rows 0 and 1 of F give each line's normal, and row 2 puts it at
            # about ``spread`` image sizes from (cx, cy); shrinking row 1 (0)
            # makes the lines near vertical (horizontal), zeroing it makes
            # them axis-parallel
            F[flatten[0]] *= flatten[1]
            F[2] = -(cx * width * F[0] + cy * height * F[1]) + spread * max(width, height) * F[2]
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, [width, height], size=(n, 2)).astype(np.float32)
        fs = FeatureSet(image_id=0, width=width, height=height, xy=xy,
                        scale=np.ones(n, dtype=np.float32),
                        orientation=np.zeros(n, dtype=np.float32),
                        descriptors=np.zeros((n, DESCRIPTOR_DIM), dtype=np.uint8))
        qi = rng.permutation(n)[:int(rng.integers(0, n + 1))] if subset else None
        bounds = (float(width), float(height))
        got = group_queries(fs, F, bounds, query_indices=qi)
        want = reference_group_queries(fs, F, bounds, query_indices=qi)
        sizes = [len(g.member_features) for g in want]
        assert len(got) == len(want)
        assert got.members.tolist() == [q for g in want for q in g.member_features.tolist()]
        assert got.starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
        assert got.sizes().tolist() == sizes
        assert got.lines.tolist() == [[g.representative_line.a, g.representative_line.b,
                                       g.representative_line.c] for g in want]


class TestGuidedMatchPair:
    def _scene_pair(self, **kw):
        spec = SceneSpec(n_cameras=2, layout="grid", ring_radius=1.2,
                         cloud_radius=2.0, n_points=kw.pop("n_points", 600),
                         seed=kw.pop("seed", 9), **kw)
        scene = generate_scene(spec)
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        return scene, F

    def test_noise_free_recovers_oracle(self):
        scene, F = self._scene_pair()
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        matches = guided_match_pair(fs_q, fs_t, F, d=8.0)
        oracle = dict(oracle_matches(scene, 0, 1))
        correct = sum(1 for q, t, _, _ in match_rows(matches) if oracle.get(q) == t)
        assert len(matches) > 0
        assert correct / len(matches) >= 0.99
        # matched at least the vast majority of oracle pairs
        assert correct >= 0.95 * len(oracle)

    def test_band_respected(self):
        scene, F = self._scene_pair(seed=10)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        d = 8.0
        for q, t, _, _ in match_rows(guided_match_pair(fs_q, fs_t, F, d=d)):
            hom = np.append(fs_q.xy[q].astype(np.float64), 1.0)
            l = F @ hom
            l = l / np.hypot(l[0], l[1])
            p = fs_t.xy[t]
            dist = abs(l[0] * p[0] + l[1] * p[1] + l[2])
            assert dist <= d + 1e-6

    def test_strategies_agree_on_matches(self):
        # reference: one grid cell spans the whole image, so every target
        # feature is a candidate of every group (an exhaustive band scan)
        for seed in (11, 3, 7, 21, 42):
            scene = generate_scene(SceneSpec(n_cameras=3, layout="grid", ring_radius=1.2,
                                             cloud_radius=2.0, n_points=600, seed=seed))
            for a, b in ((0, 1), (1, 2), (0, 2)):
                fs_q, fs_t = scene.feature_sets[a], scene.feature_sets[b]
                F = fundamental_from_poses(scene.cameras[a], scene.cameras[b])
                w, h = fs_t.width, fs_t.height
                exhaustive = build_grid(fs_t.xy.astype(np.float64), 4 * max(w, h),
                                        width=w, height=h)
                got = match_rows(guided_match_pair(fs_q, fs_t, F))
                assert len(got) > 0
                assert got == match_rows(guided_match_pair(fs_q, fs_t, F, grid=exhaustive))

    def test_repetition_groups_guided_beats_unguided(self):
        spec = SceneSpec(n_cameras=2, layout="grid", ring_radius=1.2,
                         cloud_radius=2.0, n_points=500, seed=12,
                         repetition_groups=20, repetition_group_size=10,
                         descriptor_noise=2.0, pixel_noise=0.3)
        scene = generate_scene(spec)
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        oracle = dict(oracle_matches(scene, 0, 1))

        def correct_count(matches):
            return sum(1 for q, t, _, _ in match_rows(matches) if oracle.get(q) == t)

        guided = guided_match_pair(fs_q, fs_t, F, d=8.0, ratio=0.8)
        unguided = match_pair(
            fs_q, fs_t, ratio=0.6,
            query_indices=np.arange(len(fs_q)), target_indices=np.arange(len(fs_t)))
        assert correct_count(guided) > correct_count(unguided)
        precision = correct_count(guided) / len(guided)
        assert precision >= 0.95

    def test_comparison_count_bounded_by_groups(self):
        scene, F = self._scene_pair(seed=13)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        stats = SearchStats()
        guided_match_pair(fs_q, fs_t, F, d=8.0, stats=stats)
        groups = group_queries(fs_q, F, (fs_t.width, fs_t.height))
        grid = build_grid(fs_t.xy.astype(np.float64), 8.0 * 1.25,
                          width=fs_t.width, height=fs_t.height)
        group_of, _ = _candidates_batch(grid, groups.lines, 8.0)
        bound = int((groups.sizes() * np.bincount(group_of, minlength=len(groups))).sum())
        assert stats.candidates <= bound

    def test_empty_target(self):
        scene, F = self._scene_pair(seed=14)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        got = guided_match_pair(fs_q, fs_t, F, target_indices=np.array([], dtype=int))
        assert len(got) == 0


class TestGuidedOracle:
    @pytest.mark.parametrize("seed", [2024, 7])
    def test_every_densify_pair_of_a_ring(self, seed, monkeypatch):
        # the pairs, query subsets and grids that densify passes on a
        # 16-camera ring of the benchmark's make-up
        scene = generate_scene(SceneSpec(n_cameras=16, n_points=2500, visibility_fraction=0.55,
                                         pixel_noise=0.5, descriptor_noise=4.0, seed=seed))
        store = scene.store()
        config = PipelineConfig(focal=900.0)
        model = run_coarse(config, store, run_match(config, store))
        calls = []
        monkeypatch.setattr(densify, "guided_match_pair",
                            lambda *args, **kw: calls.append((args, kw)) or [])
        run_densify(config, store, model)
        assert len(calls) >= 10
        for args, kw in calls:
            assert len(assert_same_as_reference(*args, **kw)) > 0

    def test_repetition_scene(self):
        # criterion 5's scene
        scene = generate_scene(SceneSpec(
            n_cameras=2, layout="grid", ring_radius=6.0, cloud_radius=1.8, n_points=450,
            repetition_groups=20, repetition_group_size=10, image_width=1024,
            image_height=768, focal=900.0, visibility_fraction=1.0, pixel_noise=0.3,
            descriptor_noise=2.0, seed=6))
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        assert_same_as_reference(scene.feature_sets[0], scene.feature_sets[1], F,
                                 d=8.0, ratio=0.8)

    def test_query_and_target_subsets(self):
        scene = generate_scene(SceneSpec(n_cameras=2, layout="grid", ring_radius=1.2,
                                         cloud_radius=2.0, n_points=600, seed=9))
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        rng = np.random.default_rng(5)
        qi = np.sort(rng.choice(len(fs_q), len(fs_q) // 2, replace=False))
        ti = np.sort(rng.choice(len(fs_t), len(fs_t) // 2, replace=False))
        assert_same_as_reference(fs_q, fs_t, F, query_indices=qi)
        assert_same_as_reference(fs_q, fs_t, F, target_indices=ti)
        assert_same_as_reference(fs_q, fs_t, F, query_indices=qi,
                                 target_indices=rng.permutation(ti))

    def test_exact_ties_go_to_the_lower_target(self):
        # every target feature has a twin 0.5 px away with its descriptor; a
        # ratio above 1 accepts such ties, and the lower target id must win
        scene = generate_scene(SceneSpec(n_cameras=2, layout="grid", ring_radius=1.2,
                                         cloud_radius=2.0, n_points=300, seed=9))
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        twins = FeatureSet(image_id=fs_t.image_id, width=fs_t.width, height=fs_t.height,
                           xy=np.vstack([fs_t.xy, fs_t.xy + 0.5]).astype(np.float32),
                           scale=np.concatenate([fs_t.scale, fs_t.scale]),
                           orientation=np.concatenate([fs_t.orientation, fs_t.orientation]),
                           descriptors=np.vstack([fs_t.descriptors, fs_t.descriptors]))
        matches = assert_same_as_reference(fs_q, twins, F, ratio=1.5)
        assert sum(matches.ratio == 1.0) >= 20

    def test_groups_of_many_members(self):
        # parallel views: epipolar lines run side by side, so groups hold
        # many members whose bands differ at the candidates' edges
        scene = generate_scene(large_pair_spec(4000))
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        groups = group_queries(fs_q, F, (fs_t.width, fs_t.height))
        assert groups.sizes().max() >= 8
        assert_same_as_reference(fs_q, fs_t, F, d=8.0)


class TestBatchedRetrieval:
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 2]),
                                        st.floats(0.0, np.pi)),
                              st.floats(-60.0, 700.0), st.floats(-60.0, 540.0)),
                    min_size=1, max_size=12),
           st.sampled_from([4.0, 8.0]), st.sampled_from([1.25, np.sqrt(2.0), 40.0]),
           st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_equals_candidates_grid(self, raw, d, inflation, seed):
        # lines through any point near the 640 x 480 image at any angle,
        # axis-parallel and diagonal ones included; some miss the image
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, [640, 480], size=(int(rng.integers(0, 3000)), 2))
        grid = build_grid(xy, d * inflation, width=640, height=480)
        lines = np.array([(np.sin(ang), -np.cos(ang), -(np.sin(ang) * x - np.cos(ang) * y))
                          for ang, x, y in raw])
        line_of, cand = _candidates_batch(grid, lines, d)
        for i, line in enumerate(lines):
            want = reference_candidates_grid(grid, xy, EpipolarLine(*line), d)
            assert np.array_equal(cand[line_of == i], want)
            assert np.array_equal(candidates_grid(grid, EpipolarLine(*line), d), want)


    @pytest.mark.parametrize("x, angle, y", [
        (407.29350596345137, 1.5707963267948966, 13.228374356672816),
        (543.0580079512686, 1.5707963267948977, 258.30879034525356),
        (509.1168824543143, 1.570796326794896, 378.44577764563405),
    ])
    def test_line_jittering_across_a_column(self, x, angle, y):
        # near-vertical lines within rounding of a half-cell column boundary:
        # their samples' columns go back and forth, and each candidate still
        # comes once, from the 3 x 3 half-cells around the samples
        d, grid_d = 8.0, 8.0 * np.sqrt(2.0)
        line = np.array([np.sin(angle), -np.cos(angle),
                         -(np.sin(angle) * x - np.cos(angle) * y)])
        samples = equidistant_line_points(EpipolarLine(*line), (640, 480), d, pad=d)
        half = np.floor(samples / grid_d)
        assert len(np.flatnonzero(np.diff(half[:, 0]))) >= 2
        xy = np.random.default_rng(3).uniform(0, [640, 480], size=(20_000, 2))
        grid = build_grid(xy, grid_d, width=640, height=480)
        want = np.zeros(len(xy), dtype=bool)
        for h in half:
            want |= (np.abs(np.floor(xy / grid_d) - h) <= 1).all(axis=1)
        got = candidates_grid(grid, EpipolarLine(*line), d)
        assert got.tolist() == np.flatnonzero(want).tolist()


class TestGuidedMemory:
    def test_traced_peak_on_criterion_6_pair(self):
        # 21k x 21k features: the pair's flat arrays must come in blocks
        scene = generate_scene(large_pair_spec(21_000))
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        F = fundamental_from_poses(scene.cameras[0], scene.cameras[1])
        tracemalloc.start()
        try:
            matches = guided_match_pair(fs_q, fs_t, F, d=8.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(matches) > 20_000
        assert peak < 64 * 2**20
