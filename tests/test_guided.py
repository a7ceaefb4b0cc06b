import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from msfm import densify
from msfm.config import PipelineConfig
from msfm.descriptors import SearchStats
from msfm.features import DESCRIPTOR_DIM, FeatureSet
from msfm.geometry import fundamental_from_poses, skew
from msfm.guided import (
    GROUP_BOUNDARY_PX,
    STRIP_PX,
    build_index,
    group_queries,
    guided_match_pair,
)
from msfm.matching import NO_MATCHES, match_pair, matches_from, ratio_filter
from msfm.model import Camera
from msfm.pipeline import run_coarse, run_densify, run_match
from msfm.synth import SceneSpec, generate_scene

from line_oracles import (
    EpipolarLine,
    band_candidates,
    band_slices,
    candidates_index,
    candidates_linear,
    clip_line_to_bounds,
    reference_group_queries,
    side_crossings,
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


def image_features(rng, n, width=640.0, height=480.0):
    """n features in the image plus its two extreme corners, so the index's box is the image."""
    return np.vstack([rng.uniform(0, [width, height], size=(n, 2)), [[0.0, 0.0], [width, height]]])


def line_at(angle, x, y):
    """Normalized (a, b, c) of the line through (x, y) at ``angle`` to the x axis."""
    a, b = np.sin(angle), -np.cos(angle)
    return np.array([a, b, -(a * x + b * y)])


def reference_guided_match_pair(query_fs, target_fs, F, *, d=8.0, ratio=0.8,
                                query_indices=None, index=None, stats=None):
    """Guided matching as an exhaustive scan of every member's band, group by group.

    Every target feature is a candidate of every group; ``index`` is not
    read.
    """
    if len(target_fs) == 0:
        return NO_MATCHES
    bounds = (float(target_fs.width), float(target_fs.height))
    txy = target_fs.xy.astype(np.float64)

    groups = reference_group_queries(query_fs, F, bounds, query_indices=query_indices)
    tdesc = target_fs.descriptors.astype(np.float32)
    tnorm = np.einsum("ij,ij->i", tdesc, tdesc)
    qdesc = query_fs.descriptors.astype(np.float32)
    qxy = query_fs.xy.astype(np.float64)
    accepted = []
    for group in groups:
        cand = np.arange(len(target_fs))
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
                        query_ids=None, target_ids=np.arange(len(target_fs)))


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


class TestBuildGrid:
    """Building the band index."""

    def test_origin_cell_indices(self):
        # a feature at the box's origin keys 0 in row strip 0 and 0 in column
        # strip 0; one at (25, 25) lies in row and column strip 1
        index = build_index(np.array([[0.0, 0.0], [25.0, 25.0], [100.0, 100.0]]))
        assert index.lo.tolist() == [0.0, 0.0] and index.extent.tolist() == [100.0, 100.0]
        assert (index.row_strips, index.span) == (7, 101.0)
        span = index.span
        assert index.ids.tolist() == [0, 1, 2, 0, 1, 2]
        assert index.keys.tolist() == [0.0, span + 25.0, 6 * span + 100.0,
                                       7 * span, 8 * span + 25.0, 13 * span + 100.0]
        assert candidates_index(index, EpipolarLine(0.0, 1.0, 0.0), 1.0).tolist() == [0]

    def test_every_feature_in_one_half_cell(self):
        # each feature keys once as its row strip * span + x and once as
        # (row strips + its column strip) * span + y, rounded to float32;
        # features off the image included
        rng = np.random.default_rng(1)
        xy = rng.uniform(-40, [680, 520], size=(10_000, 2))
        index = build_index(xy)
        n, local = len(xy), xy - index.lo
        for ids, keys, along, across, first in (
                (index.ids[:n], index.keys[:n], 0, 1, 0),
                (index.ids[n:], index.keys[n:], 1, 0, index.row_strips)):
            assert np.array_equal(np.sort(ids), np.arange(n))
            strip = first + np.floor(local[ids, across] / STRIP_PX)
            want = (strip * index.span + local[ids, along]).astype(np.float32)
            assert np.array_equal(keys, want)

    def test_table_size(self):
        # two float32 keys and two int32 ids per feature, whatever the image size
        rng = np.random.default_rng(5)
        for w, h in ((1024, 768), (3072, 2304)):
            index = build_index(rng.uniform(0, [w, h], size=(1000, 2)))
            assert len(index.keys) == len(index.ids) == 2000
            assert index.keys.nbytes + index.ids.nbytes == 16 * 1000

    def test_band_wider_than_half_cell(self):
        # bands wider than a strip are read over every strip they cross
        rng = np.random.default_rng(6)
        xy = np.vstack([rng.uniform(0, 100, size=(2000, 2)), [[0.0, 0.0], [100.0, 100.0]]])
        index = build_index(xy)
        line = EpipolarLine(0.0, 1.0, -50.0)  # y = 50
        for w in (8.5, 2.5 * STRIP_PX):
            got = candidates_index(index, line, w)
            assert np.isin(candidates_linear(xy, line, w), got).all()
            strips = np.floor(xy[:, 1] / STRIP_PX)
            want = ((strips >= np.floor((50 - w) / STRIP_PX))
                    & (strips <= np.floor((50 + w) / STRIP_PX)))
            assert got.tolist() == np.flatnonzero(want).tolist()


class TestEquidistantPoints:
    """A line's band read strip by strip: across, clipping and missing the image."""

    def setup_method(self):
        self.xy = image_features(np.random.default_rng(2), 4000)
        self.index = build_index(self.xy)

    def read(self, line, d):
        line_of, begin, end = band_slices(self.index, [line.a, line.b, line.c], d)
        return len(line_of), candidates_index(self.index, line, d)

    def test_horizontal_line_across_image(self):
        # y = 50 at d = 10 crosses row strips 2 and 3, each read end to end
        line = EpipolarLine(0.0, 1.0, -50.0)
        slices, got = self.read(line, 10.0)
        assert slices == 2
        y = self.xy[:, 1]
        assert got.tolist() == np.flatnonzero((y >= 2 * STRIP_PX) & (y < 4 * STRIP_PX)).tolist()
        assert np.isin(candidates_linear(self.xy, line, 10.0), got).all()

    def test_corner_clip_two_points(self):
        # a diagonal line cutting a tiny corner: its band meets two row strips
        line = EpipolarLine(np.sqrt(0.5), np.sqrt(0.5), -3.0)
        slices, got = self.read(line, 10.0)
        assert slices == 2
        assert np.isin(candidates_linear(self.xy, line, 10.0), got).all()
        dist = np.abs(self.xy[got] @ [line.a, line.b] + line.c)
        assert (dist <= 10.0 + STRIP_PX + 1e-9).all()

    def test_miss_returns_empty(self):
        line = EpipolarLine(0.0, 1.0, 100.0)  # y = -100
        assert self.read(line, 10.0)[0] == 0
        assert len(self.read(line, 10.0)[1]) == 0

    def test_every_band_feature_near_a_sample(self):
        # every band feature is read, and every feature read is near the band
        d = 8.0
        for line in random_lines(np.random.default_rng(2), 40, 640, 480):
            _, got = self.read(line, d)
            assert np.isin(candidates_linear(self.xy, line, d), got).all()
            dist = np.abs(self.xy[got] @ [line.a, line.b] + line.c)
            assert (dist <= d + STRIP_PX + 1e-9).all()


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
        # the band index at the band's own half-width: every band feature,
        # at most four times as many candidates
        index = build_index(self.xy)
        total = candidates = 0
        for line in self.lines:
            lin = set(candidates_linear(self.xy, line, self.d).tolist())
            got = set(candidates_index(index, line, self.d).tolist())
            assert lin <= got
            total += len(lin)
            candidates += len(got)
        assert candidates <= 4 * total

    def test_grid_containment_at_sqrt2(self):
        # read at half-width d sqrt 2, the index holds every feature of that band
        index = build_index(self.xy)
        w = self.d * np.sqrt(2.0)
        for line in self.lines[:60]:
            lin = set(candidates_linear(self.xy, line, w).tolist())
            got = set(candidates_index(index, line, w).tolist())
            assert lin <= got

    def test_feature_on_line_always_retrieved(self):
        for line in self.lines[:30]:
            clipped = clip_line_to_bounds(line, self.W, self.H)
            if clipped is None:
                continue
            on_line = (clipped[0] + clipped[1]) / 2.0 + 0.01
            xy = np.vstack([self.xy, on_line])
            got = candidates_index(build_index(xy), line, self.d)
            assert len(xy) - 1 in got

    def test_empty_grid(self):
        index = build_index(np.zeros((0, 2)))
        line = EpipolarLine(0.0, 1.0, -50.0)
        assert len(candidates_index(index, line, 10.0)) == 0


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
        # every query is in one group: none has its line at the epipole, and
        # no line is dropped for missing the image
        assert sorted(groups.members.tolist()) == list(range(len(fs_q)))
        # every member's own line crosses the sides that the
        # representative's line crosses, within a bucket of its crossings
        ends = np.append(groups.starts, len(groups.members))
        for g in range(min(40, len(groups))):
            steep, *rep = side_crossings(EpipolarLine(*groups.lines[g]), fs_t.width, fs_t.height)
            for fid in groups.members[ends[g]:ends[g + 1]]:
                hom = np.append(fs_q.xy[fid].astype(np.float64), 1.0)
                l = F @ hom
                l = l / np.hypot(l[0], l[1])
                own_steep, *own = side_crossings(EpipolarLine(*l), fs_t.width, fs_t.height)
                assert own_steep == steep
                assert np.abs(np.subtract(own, rep)).max() < GROUP_BOUNDARY_PX

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
        # and right edges of the target: flat and steep lines of every
        # slope, with crossings all along the sides
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
        assert sorted(members.tolist()) == list(range(n))
        lines = np.hstack([xy[members].astype(np.float64), np.ones((len(members), 1))]) @ F.T
        lines /= np.hypot(lines[:, 0], lines[:, 1])[:, None]
        keys = np.array([side_crossings(EpipolarLine(*line), width, height) for line in lines])
        buckets = np.column_stack([keys[:, 0], np.floor(keys[:, 1:] / GROUP_BOUNDARY_PX)])
        assert buckets[:, 0].min() == 0 and buckets[:, 0].max() == 1
        for col in range(3):
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
        # reference: an exhaustive scan of every member's band, reading no
        # index
        for seed in (11, 3, 7, 21, 42):
            scene = generate_scene(SceneSpec(n_cameras=3, layout="grid", ring_radius=1.2,
                                             cloud_radius=2.0, n_points=600, seed=seed))
            for a, b in ((0, 1), (1, 2), (0, 2)):
                fs_q, fs_t = scene.feature_sets[a], scene.feature_sets[b]
                F = fundamental_from_poses(scene.cameras[a], scene.cameras[b])
                assert len(assert_same_as_reference(fs_q, fs_t, F)) > 0

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
        # a group compares each member with the target features in the
        # union of its members' bands, and with no other
        scene, F = self._scene_pair(seed=13)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        stats = SearchStats()
        guided_match_pair(fs_q, fs_t, F, d=8.0, stats=stats)
        groups = group_queries(fs_q, F, (fs_t.width, fs_t.height))
        txy = fs_t.xy.astype(np.float64)
        near = np.abs(groups.member_lines[:, :2] @ txy.T + groups.member_lines[:, 2:]) <= 8.0
        in_union = np.logical_or.reduceat(near, groups.starts, axis=0).sum(axis=1)
        assert stats.candidates == int((groups.sizes() * in_union).sum())

    def test_empty_target(self):
        scene, F = self._scene_pair(seed=14)
        fs_q, fs_t = scene.feature_sets[0], scene.feature_sets[1]
        empty = FeatureSet(image_id=fs_t.image_id, width=fs_t.width, height=fs_t.height,
                           xy=np.zeros((0, 2), dtype=np.float32),
                           scale=np.zeros(0, dtype=np.float32),
                           orientation=np.zeros(0, dtype=np.float32),
                           descriptors=np.zeros((0, DESCRIPTOR_DIM), dtype=np.uint8))
        assert len(guided_match_pair(fs_q, empty, F)) == 0
        assert len(reference_guided_match_pair(fs_q, empty, F)) == 0


class TestGuidedOracle:
    @staticmethod
    def feature_set(xy, descriptors, image_id):
        n = len(xy)
        return FeatureSet(image_id=image_id, width=640, height=480,
                          xy=np.asarray(xy, dtype=np.float32),
                          scale=np.ones(n, dtype=np.float32),
                          orientation=np.zeros(n, dtype=np.float32), descriptors=descriptors)

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_every_densify_pair_of_a_ring(self, seed, monkeypatch):
        # the pairs, query subsets and band indexes that densify passes on
        # a 16-camera ring of the benchmark's make-up
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
        assert_same_as_reference(fs_q, fs_t, F, query_indices=qi)
        assert_same_as_reference(fs_q, fs_t, F, query_indices=rng.permutation(qi))

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


    @pytest.mark.parametrize("right, crossing", [(300.0, False), (300.0, True), (100.0, True)],
                             ids=["side_by_side", "crossing", "flat_crossing"])
    def test_group_at_the_full_boundary_spread(self, right, crossing):
        # Query features whose lines pierce the left and right edges of a
        # 640 x 480 target up to GROUP_BOUNDARY_PX apart, the most one group
        # allows: side by side, or crossing so that they turn apart.  One
        # member's line has the opposite sign.  Target features lie near the
        # lines, so that the index's box hugs them, and just inside and
        # just outside every member's band at both edges, where the bands
        # stray farthest from the representative's.
        inside = 1e-6 * GROUP_BOUNDARY_PX  # off the buckets' bounds, for rounding
        left, right = ((y + inside, y + GROUP_BOUNDARY_PX - inside) for y in (100.0, right))
        # (height at x = 0, height at x = 640) of the two outermost members
        ends = ([(left[0], right[1]), (left[1], right[0])] if crossing
                else [(left[0], right[0]), (left[1], right[1])])
        middle = ((ends[0][0] + ends[1][0]) / 2, (ends[0][1] + ends[1][1]) / 2)

        def line(y0, y1):
            # through (0, y0) and (640, y1), as (m, -1, k) so that lines mix
            # linearly in their heights
            return np.array([(y1 - y0) / 640.0, -1.0, y0])

        queries = np.array([[10.0, 10.0, 1.0], [90.0, 10.0, 1.0], [50.0, 90.0, 1.0]])
        lines = np.stack([line(*ends[0]), line(*ends[1]), -line(*middle)])
        F = lines.T @ np.linalg.inv(queries.T)
        t = np.linspace(0.0, 1.0, 9)
        qxy = np.vstack([np.outer(1 - t, queries[0, :2]) + np.outer(t, queries[1, :2]),
                         queries[2:, :2]])
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 640, 2000)
        txy = [np.column_stack([x, middle[0] + (middle[1] - middle[0]) * x / 640.0
                                + rng.uniform(-12.0, 12.0, 2000)])]
        for y0, y1 in ends:
            normal = np.array([y1 - y0, -640.0]) / np.hypot(y1 - y0, 640.0)
            for x in (0.0, 320.0, 640.0):
                on = np.array([x, y0 + (y1 - y0) * x / 640.0])
                txy.append([on + s * (8.0 + e) * normal for s in (-1, 1) for e in (-1e-4, 1e-4)])
        txy = np.vstack(txy)
        fs_q, fs_t = (self.feature_set(xy, rng.integers(0, 256, (len(xy), DESCRIPTOR_DIM),
                                                        dtype=np.uint8), image_id)
                      for image_id, xy in enumerate((qxy, txy)))
        groups = group_queries(fs_q, F, (640.0, 480.0))
        assert groups.sizes().tolist() == [len(qxy)]
        assert assert_same_as_reference(fs_q, fs_t, F, ratio=1.5)
        mlines = groups.member_lines
        assert (mlines[:, 1] > 0).any() and (mlines[:, 1] < 0).any()
        near = np.abs(mlines[:, :2] @ txy.T + mlines[:, 2:]) <= 8.0
        assert (near[:, 2000:].any(axis=0) & ~near[0, 2000:]).sum() >= 4


    def test_line_missing_the_target_within_the_band(self):
        # query 0's line y = -5 misses the 640 x 480 target by less than d,
        # and a target feature 6 px from it carries query 0's descriptor:
        # the two match, as a scan of the band over the target finds
        rng = np.random.default_rng(12)
        lines = np.array([[0.0, 1.0, 5.0], [0.0, 1.0, -100.0], [1.0, 0.0, -300.0]])
        queries = np.array([[10.0, 10.0, 1.0], [90.0, 10.0, 1.0], [50.0, 90.0, 1.0]])
        F = lines.T @ np.linalg.inv(queries.T)
        assert clip_line_to_bounds(EpipolarLine(*lines[0]), 640.0, 480.0) is None
        txy = np.vstack([[[200.0, 1.0]], image_features(rng, 500)])
        tdesc = rng.integers(0, 256, (len(txy), DESCRIPTOR_DIM), dtype=np.uint8)
        qdesc = rng.integers(0, 256, (3, DESCRIPTOR_DIM), dtype=np.uint8)
        qdesc[0] = tdesc[0]
        fs_q = self.feature_set(queries[:, :2], qdesc, 0)
        fs_t = self.feature_set(txy, tdesc, 1)
        matches = assert_same_as_reference(fs_q, fs_t, F)
        assert (0, 0) in zip(matches.query.tolist(), matches.target.tolist())

    def test_pencil_straddling_the_diagonal(self):
        # lines through the target's centre at 45 and 135 degrees, tilted by
        # up to 2e-3 rad either way: |a| = |b| splits each fan into flat and
        # steep lines, which group apart
        rng = np.random.default_rng(13)
        centre = np.array([320.0, 240.0, 1.0])
        angles = np.concatenate([np.pi / 4 + np.linspace(-2e-3, 2e-3, 41),
                                 3 * np.pi / 4 + np.linspace(-2e-3, 2e-3, 41)])
        qxy = centre[:2] + 100.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        F = skew(centre)
        fs_q = self.feature_set(qxy, rng.integers(0, 256, (len(qxy), DESCRIPTOR_DIM),
                                                  dtype=np.uint8), 0)
        txy = image_features(rng, 3000)
        fs_t = self.feature_set(txy, rng.integers(0, 256, (len(txy), DESCRIPTOR_DIM),
                                                  dtype=np.uint8), 1)
        groups = group_queries(fs_q, F, (640.0, 480.0))
        steep = np.abs(groups.member_lines[:, 0]) > np.abs(groups.member_lines[:, 1])
        assert 0 < steep.sum() < len(qxy)
        assert len(groups.members) == len(qxy)
        assert len(assert_same_as_reference(fs_q, fs_t, F, ratio=1.5)) > 0


class TestBandIndex:
    W, H = 640.0, 480.0

    def test_each_feature_once_per_strip_order(self):
        rng = np.random.default_rng(1)
        xy = rng.uniform([-30.0, 5.0], [700.0, 470.0], size=(3000, 2))
        index = build_index(xy)
        n = len(xy)
        assert index.n_features == n
        assert np.array_equal(index.lo, xy.min(axis=0))
        assert (np.diff(index.keys) >= 0).all()
        rows, columns = index.ids[:n], index.ids[n:]
        assert np.array_equal(np.sort(rows), np.arange(n))
        assert np.array_equal(np.sort(columns), np.arange(n))
        local = xy - index.lo
        # rows by (row strip, x), columns by (column strip, y)
        assert np.array_equal(rows, np.lexsort((local[:, 0], np.floor(local[:, 1] / STRIP_PX))))
        assert np.array_equal(columns,
                              np.lexsort((local[:, 1], np.floor(local[:, 0] / STRIP_PX))))

    # a line of each kind, as (kind, angle, offset): axis-parallel, 45
    # degrees, any angle through a point of the image, any angle through a
    # corner, grazing an edge within its band, and missing the image
    line_kinds = st.one_of(
        st.tuples(st.just("through"), st.sampled_from([0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4]),
                  st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0))),
        st.tuples(st.just("through"), st.floats(0.0, np.pi),
                  st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0))),
        st.tuples(st.just("through"), st.floats(0.0, np.pi),
                  st.sampled_from([(0.0, 0.0), (640.0, 0.0), (0.0, 480.0), (640.0, 480.0)])),
        st.tuples(st.just("graze"), st.sampled_from([0.0, 1e-9, 1e-4, -1e-3]),
                  st.tuples(st.integers(0, 3), st.floats(-1.0, 1.0))),
        st.tuples(st.just("miss"), st.floats(0.0, np.pi), st.floats(1.0, 500.0)),
    )

    def make_line(self, kind, angle, where, d):
        """Normalized (a, b, c) of a line of ``line_kinds`` at band half-width d."""
        if kind == "graze":
            # along edge k, tilted by ``angle``, at +-d of it at its middle
            edge, offset = where
            x0, y0 = [(320.0, 0.0), (320.0, 480.0), (0.0, 240.0), (640.0, 240.0)][edge]
            angle += 0.0 if edge < 2 else np.pi / 2
            where = (x0 - offset * d * np.sin(angle), y0 + offset * d * np.cos(angle))
        if kind == "miss":
            # tangent to the circle around the image, pushed out past d
            radius = np.hypot(320.0, 240.0) + d + where
            where = (320.0 + radius * np.cos(angle + np.pi / 2),
                     240.0 + radius * np.sin(angle + np.pi / 2))
        a, b = np.sin(angle), -np.cos(angle)
        return np.array([a, b, -(a * where[0] + b * where[1])])

    @given(kinds=st.lists(line_kinds, min_size=1, max_size=8), d=st.floats(1.0, 20.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_every_band_feature_found(self, kinds, d, seed):
        # features anywhere in the image, on its edges and at its corners
        rng = np.random.default_rng(seed)
        xy = np.vstack([rng.uniform(0, [self.W, self.H], size=(int(rng.integers(0, 3000)), 2)),
                        np.column_stack([rng.uniform(0, self.W, 40), np.repeat([0.0, 480.0], 20)]),
                        np.column_stack([np.repeat([0.0, 640.0], 20), rng.uniform(0, self.H, 40)]),
                        [[0.0, 0.0], [640.0, 0.0], [0.0, 480.0], [640.0, 480.0]]])
        lines = np.array([self.make_line(*kind, d) for kind in kinds])
        line_of, cand = band_candidates(build_index(xy), lines, d)
        for i, (kind, _, _) in enumerate(kinds):
            got = cand[line_of == i]
            assert np.array_equal(got, np.unique(got))
            want = candidates_linear(xy, EpipolarLine(*lines[i]), d)
            assert np.isin(want, got).all()
            if kind == "miss":
                assert len(want) == len(got) == 0
            # nothing beyond one strip of the band is read
            dist = np.abs(xy[got] @ lines[i, :2] + lines[i, 2])
            assert (dist <= d + STRIP_PX + 1e-6).all()

    @staticmethod
    def strips_crossed(line, w, width, height):
        """Strips of the box [0, width] x [0, height] that the band of ``line`` meets.

        Flat lines (|a| <= |b|) count row strips, others column strips; the
        band's vertices in the box are the corners inside it and the box
        crossings of its two edges.
        """
        a, b, c = line
        points = [p for offset in (-w, w)
                  for p in (clip_line_to_bounds(EpipolarLine(a, b, c + offset), width, height)
                            or ())]
        points += [np.array(p) for p in ((0, 0), (width, 0), (0, height), (width, height))
                   if abs(a * p[0] + b * p[1] + c) <= w]
        if not points:
            return 0
        across = np.array([p[1] if abs(a) <= abs(b) else p[0] for p in points])
        return int(np.floor(across.max() / STRIP_PX) - np.floor(across.min() / STRIP_PX)) + 1

    def test_slices_per_line_bounded_by_strips(self):
        # O(strips + |C'|): one interval per strip the band crosses, plus 2
        rng = np.random.default_rng(4)
        xy = np.vstack([rng.uniform(0, [self.W, self.H], size=(5000, 2)),
                        [[0.0, 0.0], [self.W, self.H]]])
        index = build_index(xy)
        kinds = ([("through", ang, (x, y)) for ang, x, y in
                  zip(rng.uniform(0, np.pi, 300), rng.uniform(0, self.W, 300),
                      rng.uniform(0, self.H, 300))]
                 + [("through", ang, (320.0, 240.0)) for ang in np.arange(8) * np.pi / 8]
                 + [("graze", 1e-3, (k, 0.5)) for k in range(4)]
                 + [("miss", ang, 5.0) for ang in (0.0, 1.0, 2.0)])
        for d in (1.0, 8.0, 20.0):
            lines = np.array([self.make_line(*kind, d) for kind in kinds])
            line_of, _, _ = band_slices(index, lines, d)
            reads = np.bincount(line_of, minlength=len(lines))
            crossed = [self.strips_crossed(line, d, self.W, self.H) for line in lines]
            assert (reads <= np.array(crossed) + 2).all()
            assert reads.sum() > 0


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
        # axis-parallel and diagonal ones included; some miss the image.
        # Read in one batch, at one half-width or one per line, each line
        # gets what it gets read alone
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, [640, 480], size=(int(rng.integers(0, 3000)), 2))
        index = build_index(xy)
        lines = np.array([line_at(*line) for line in raw])
        widths = d * rng.choice([1.0, inflation], size=len(lines))
        for w in (d * inflation, widths):
            line_of, cand = band_candidates(index, lines, w)
            assert (np.diff(line_of) >= 0).all()
            for i, (line, w_i) in enumerate(zip(lines, np.broadcast_to(w, len(lines)))):
                want = candidates_index(index, EpipolarLine(*line), w_i)
                assert np.array_equal(cand[line_of == i], want)

    @pytest.mark.parametrize("x, angle, y", [
        (407.29350596345137, 1.5707963267948966, 13.228374356672816),
        (543.0580079512686, 1.5707963267948977, 258.30879034525356),
        (509.1168824543143, 1.570796326794896, 378.44577764563405),
    ])
    def test_line_jittering_across_a_column(self, x, angle, y):
        # near-vertical lines whose tilt is within rounding of zero, either
        # way: each column strip their band crosses is read end to end, and
        # each of its features comes once
        d = 8.0
        xy = image_features(np.random.default_rng(3), 20_000)
        index = build_index(xy)
        line = line_at(angle, x, y)
        line_of, cand = band_candidates(index, line, d)
        strips = np.floor(xy[:, 0] / STRIP_PX)
        want = (strips >= np.floor((x - d) / STRIP_PX)) & (strips <= np.floor((x + d) / STRIP_PX))
        assert len(band_slices(index, line, d)[0]) == 2
        assert cand.tolist() == np.flatnonzero(want).tolist()


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
