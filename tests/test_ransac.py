"""The stacked RANSAC fits and ``block_ransac`` against the one-sample loops.

``tests/ransac_oracles.py`` keeps the one-sample ``eight_point`` and
``dlt_pose`` and the hand-written hypothesis loops they replaced.  The
stacked code draws the same samples and replays the same update, so every
result must be equal bit for bit: fits, masks, counts, flags and poses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ransac_oracles as oracle
from msfm import geometry, reconstruct
from msfm.ba import rodrigues
from msfm.errors import InsufficientDataError
from msfm.geometry import (
    RANSAC_BLOCKS,
    RANSAC_MAX_ITERS,
    _normalize_f,
    block_ransac,
    draw_samples,
    eight_point,
    estimate_fundamental_ransac,
    ransac_stop_count,
    sampson_distance,
)
from msfm.model import make_intrinsics
from msfm.reconstruct import PNP_MAX_ITERS, dlt_pose, pnp_ransac

K = make_intrinsics(900.0, 512.0, 384.0)
SCENES = ("general", "planar", "collinear", "noise")


def project(R, t, X):
    uv = (X @ R.T + t) @ K.T
    return uv[:, :2] / uv[:, 2:3]


def world_points(rng, n, scene):
    """n points 5-9 units in front of the origin, in the scene's shape."""
    X = rng.uniform([-2.0, -1.5, 5.0], [2.0, 1.5, 9.0], size=(n, 3))
    if scene == "planar":
        X[:, 2] = 6.0 + 0.3 * X[:, 0] + 0.1 * X[:, 1]
    elif scene == "collinear":
        X = np.outer(rng.uniform(5.0, 9.0, n), [0.1, 0.2, 1.0])
    return X


def two_view(rng, n, scene, outliers, noise=0.5):
    """Correspondences (pts_q, pts_c) of a sideways pair; a share of the
    target points replaced by uniform clutter, all of them for "noise"."""
    X = world_points(rng, n, scene)
    R = rodrigues(rng.normal(0.0, 0.05, 3))
    pq = project(np.eye(3), np.zeros(3), X) + rng.normal(0.0, noise, (n, 2))
    pc = project(R, -R @ [1.0, 0.2, 0.1], X) + rng.normal(0.0, noise, (n, 2))
    bad = rng.random(n) < (1.0 if scene == "noise" else outliers)
    pc[bad] = rng.uniform(0.0, [1024.0, 768.0], size=(int(bad.sum()), 2))
    return pq, pc


def resection(rng, n, scene, outliers, noise=0.5):
    """3D-2D correspondences of one camera; clutter as in ``two_view``."""
    X = world_points(rng, n, scene) + [0.0, 0.0, 0.5]
    R = rodrigues(rng.normal(0.0, 0.1, 3))
    uv = project(R, rng.normal(0.0, 0.3, 3), X) + rng.normal(0.0, noise, (n, 2))
    bad = rng.random(n) < (1.0 if scene == "noise" else outliers)
    uv[bad] = rng.uniform(0.0, [1024.0, 768.0], size=(int(bad.sum()), 2))
    return X, uv


def ring_resection(rng, n, outliers, noise=0.5):
    """3D-2D correspondences in the ring scene's make-up (``msfm.synth``):
    points in a ball of radius 2 seen from 6 units away."""
    d = rng.normal(size=(n, 3))
    X = 2.0 * d / np.linalg.norm(d, axis=1, keepdims=True) \
        * rng.uniform(0.2, 1.0, (n, 1)) ** (1.0 / 3.0) + [0.0, 0.0, 6.0]
    R = rodrigues(rng.normal(0.0, 0.1, 3))
    uv = project(R, rng.normal(0.0, 0.3, 3), X) + rng.normal(0.0, noise, (n, 2))
    bad = rng.random(n) < outliers
    uv[bad] = rng.uniform(0.0, [1024.0, 768.0], size=(int(bad.sum()), 2))
    return X, uv


def assert_same_geometry(new, old):
    (F, mask), (F_o, mask_o) = new, old
    assert np.array_equal(F, F_o)
    assert np.array_equal(mask, mask_o)


def assert_same_pose(new, old):
    assert (new is None) == (old is None)
    if new is not None:
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


class TestStackedFits:
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 40),
           n=st.sampled_from([8, 9, 12, 50]), scene=st.sampled_from(SCENES))
    @settings(max_examples=40, deadline=None)
    def test_eight_point_equals_per_sample(self, seed, b, n, scene):
        rng = np.random.default_rng(seed)
        pq, pc = zip(*(two_view(rng, n, scene, 0.3) for _ in range(b)))
        F = eight_point(np.stack(pq), np.stack(pc))
        for j in range(b):
            F_o = oracle.eight_point(pq[j], pc[j])
            assert np.array_equal(F[j], F_o)
            assert np.array_equal(sampson_distance(F[j], pq[0], pc[0]),
                                  oracle.sampson_distance(F_o, pq[0], pc[0]))
        d = sampson_distance(F, pq[0], pc[0])
        for j in range(b):
            assert np.array_equal(d[j], oracle.sampson_distance(F[j], pq[0], pc[0]))

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_normalize_f_equals_per_matrix(self, seed, b):
        F = np.random.default_rng(seed).normal(size=(b, 3, 3))
        out = _normalize_f(F)
        for j in range(b):
            assert np.array_equal(out[j], oracle.normalize_f(F[j]))
            assert np.array_equal(_normalize_f(F[j]), oracle.normalize_f(F[j]))

    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 40),
           n=st.sampled_from([6, 7, 20, 200]), scene=st.sampled_from(SCENES))
    @settings(max_examples=40, deadline=None)
    def test_dlt_pose_equals_per_sample(self, seed, b, n, scene):
        rng = np.random.default_rng(seed)
        X, uv = map(np.stack, zip(*(resection(rng, n, scene, 0.3) for _ in range(b))))
        R, t, ok = dlt_pose(X, uv, K)
        for j in range(b):
            try:
                R_o, t_o = oracle.dlt_pose(X[j], uv[j], K)
            except InsufficientDataError:
                assert not ok[j]
                continue
            assert ok[j]
            assert np.array_equal(R[j], R_o)
            assert np.array_equal(t[j], t_o)


def sequential_consensus(supports, n, sample_size, max_iters, refined=None):
    """(best support, draws made, refine calls) of the one-draw-at-a-time
    stop rule over a sequence of hypothesis supports; a negative support is
    a failed fit.  ``refined[c]``, when given, is the count that refining a
    consensus of c returns (None: the refit fails); a new best is refined
    while that count grows."""
    best, needed, drawn, calls = 0, max_iters, 0, 0
    while drawn < needed:
        support = supports[drawn]
        drawn += 1
        if support > best:
            best = support
            while refined is not None:
                calls += 1
                if refined[best] is None or refined[best] <= best:
                    break
                best = refined[best]
            needed = ransac_stop_count(best / n, sample_size, 0.999, max_iters)
    return best, drawn, calls


class TestDrawSamples:
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([6, 8]),
           extra=st.integers(0, 300), m=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_rows_hold_distinct_items(self, seed, k, extra, m):
        n = k + extra
        samples = draw_samples(np.random.default_rng(seed), n, k, m)
        assert samples.shape == (m, k)
        assert ((samples >= 0) & (samples < n)).all()
        assert (np.diff(samples, axis=1) > 0).all()  # sorted, so distinct

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 200), m=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_one_call_equals_single_draws(self, seed, n, m):
        block = draw_samples(np.random.default_rng(seed), n, 8, m)
        rng = np.random.default_rng(seed)
        assert np.array_equal(block, [oracle.draw_sample(rng, n, 8) for _ in range(m)])

    @pytest.mark.parametrize("n, k", [(6, 6), (20, 6), (57, 8)])
    def test_item_frequencies_are_uniform(self, n, k):
        counts = np.zeros(n)
        for seed in range(200):
            counts += np.bincount(
                draw_samples(np.random.default_rng(seed), n, k, 100).ravel(), minlength=n)
        expected = 200 * 100 * k / n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # n - 1 degrees of freedom: chance above 2n + 20 is below 1e-4 for these n
        assert chi2 < 2 * n + 20


class TestBlockRansac:
    """``block_ransac``'s replay against the sequential rule, with fits whose
    supports are set in advance: a draw past the stop inside a block must
    not count, however good.  Support -1 marks a fit that is not ok, -2 one
    whose SVD raises (failing its whole block).  A planted ``refine`` maps
    a consensus count to a refined count, larger, smaller or None."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_replay_equals_sequential_rule(self, data):
        problems = data.draw(st.integers(1, 4))
        max_iters = data.draw(st.integers(1, 300))
        sizes = data.draw(st.lists(st.integers(100, 200), min_size=problems, max_size=problems))
        supports = [data.draw(st.lists(st.one_of(st.sampled_from([-2, -1]), st.integers(0, n)),
                                       min_size=max_iters + 128, max_size=max_iters + 128))
                    for n in sizes]
        refined = None
        if data.draw(st.booleans()):
            refined = [data.draw(st.lists(st.one_of(st.none(), st.integers(0, n)),
                                          min_size=n + 1, max_size=n + 1)) for n in sizes]
        # block_ransac's draws, to tell which draw a sample is (8 of >= 100
        # items: the chance of a repeated sample is below 1e-10)
        draw_of = {}
        for i, n in enumerate(sizes):
            rng = np.random.default_rng(i)
            for d in range(max_iters + 128):
                draw_of.setdefault((i, *oracle.draw_sample(rng, n, 8).tolist()), d)
        seen = [0] * problems
        refine_calls = [0] * problems

        def fit(owner, samples):
            draws = [draw_of[(i, *row)] for i, row in zip(owner.tolist(), samples.tolist())]
            for i, d in zip(owner.tolist(), draws):
                seen[i] = max(seen[i], d + 1)
            if any(supports[i][d] == -2 for i, d in zip(owner.tolist(), draws)):
                raise np.linalg.LinAlgError("planted")
            ok = [supports[i][d] != -1 for i, d in zip(owner.tolist(), draws)]
            return np.array(draws, dtype=np.float64), np.array(ok)

        def score(i, draws):
            return np.arange(sizes[i]) < np.array([supports[i][int(d)] for d in draws])[:, None]

        def refine(i, mask):
            refine_calls[i] += 1
            count = refined[i][int(mask.sum())]
            return None if count is None else np.arange(sizes[i]) < count

        found = block_ransac(sizes, range(problems), 8, fit, score, confidence=0.999,
                             max_iters=max_iters, refine=refine if refined else None)
        for i, (mask, best) in enumerate(found):
            expected, needed, calls = sequential_consensus(
                supports[i], sizes[i], 8, max_iters, refined and refined[i])
            assert best == expected
            assert refine_calls[i] == calls
            assert (mask is None) == (best == 0)
            assert mask is None or mask.sum() == best
            # draws past the stop are only those of its last block
            assert needed <= seen[i] < needed + RANSAC_BLOCKS[-1]

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 200),
           max_iters=st.integers(1, 2048))
    @settings(max_examples=30, deadline=None)
    def test_local_opt_never_lowers_a_count(self, seed, n, max_iters):
        rng = np.random.default_rng(seed)
        supports = rng.integers(0, n + 1, size=max_iters + 128).tolist()
        # refits that never grow a consensus, or fail: the result is the
        # rule without them
        shrink = [int(rng.integers(0, c + 1)) if rng.random() < 0.8 else None
                  for c in range(n + 1)]
        supports_of = iter(supports)

        def fit(owner, samples):
            return np.array([next(supports_of) for _ in owner], dtype=np.float64), \
                np.ones(len(owner), dtype=bool)

        def score(_, hyp):
            return np.arange(n) < hyp[:, None]

        def refine(_, mask):
            count = shrink[int(mask.sum())]
            return None if count is None else np.arange(n) < count

        [(mask, best)] = block_ransac([n], [0], 8, fit, score, confidence=0.999,
                                      max_iters=max_iters, refine=refine)
        assert best == sequential_consensus(supports, n, 8, max_iters)[0]
        assert mask is None or mask.sum() == best


class TestFundamentalRansac:
    # pure noise, which runs to the cap, is the slow case: see test_cases
    @given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 4),
           n=st.integers(8, 120), outliers=st.floats(0.3, 0.6),
           scene=st.sampled_from(["general", "planar"]))
    @settings(max_examples=10, deadline=None)
    def test_lockstep_equals_loop(self, seed, pairs, n, outliers, scene):
        rng = np.random.default_rng(seed)
        problems = [(*two_view(rng, int(rng.integers(8, n + 1)), scene, outliers),
                     int(rng.integers(0, 2**31))) for _ in range(pairs)]
        for new, (pq, pc, s) in zip(estimate_fundamental_ransac(problems), problems):
            assert_same_geometry(new, oracle.estimate_fundamental_ransac(pq, pc, seed=s))

    @pytest.mark.parametrize("n, scene, outliers", [
        (8, "general", 0.0),      # the exact minimal set
        (50, "planar", 0.0),
        (200, "general", 0.45),
        (133, "noise", 1.0),      # inlier share ~1/133: runs to the cap
    ])
    def test_cases(self, n, scene, outliers):
        pq, pc = two_view(np.random.default_rng(n), n, scene, outliers,
                          noise=0.0 if outliers == 0.0 else 0.5)
        new = estimate_fundamental_ransac([(pq, pc, 7)])[0]
        assert_same_geometry(new, oracle.estimate_fundamental_ransac(pq, pc, seed=7))
        if n == 8:
            assert new[1].all()

    def test_pure_noise_runs_to_the_cap(self, monkeypatch):
        pq, pc = two_view(np.random.default_rng(3), 133, "noise", 1.0)
        calls = []
        fit = geometry.eight_point
        monkeypatch.setattr(geometry, "eight_point",
                            lambda q, c: calls.append(len(q)) or fit(q, c))
        estimate_fundamental_ransac([(pq, pc, 11)])
        # every block of the schedule, capped at 2048 draws; the refit is a stack of one
        assert sum(b for b in calls if b > 1) == RANSAC_MAX_ITERS
        assert calls[:len(RANSAC_BLOCKS)] == list(RANSAC_BLOCKS)

    def test_refits_stacked_by_count_equal_per_pair_refits(self, monkeypatch):
        # noise-free pairs of 40 and 60 correspondences keep all of them,
        # two pairs with outliers keep fewer (and differ): one refit stacks
        # the three pairs of count 40, and every F and mask is bit-equal to
        # its pair's refit alone
        rng = np.random.default_rng(41)
        problems = [(*two_view(rng, n, "general", outliers, noise=0.0 if not outliers else 0.5),
                     seed) for seed, (n, outliers) in enumerate(
                         [(40, 0.0), (60, 0.0), (40, 0.0), (90, 0.4), (40, 0.0), (70, 0.3)])]
        alone = [estimate_fundamental_ransac([problem])[0] for problem in problems]
        refits = []
        fit = geometry.eight_point

        def counting_fit(q, c):
            if q.shape[1] > 8:  # a refit; samples have 8 rows
                refits.append(q.shape[:2])
            return fit(q, c)

        monkeypatch.setattr(geometry, "eight_point", counting_fit)
        stacked = estimate_fundamental_ransac(problems)
        for new, old in zip(stacked, alone):
            assert_same_geometry(new, old)
        # one refit each for counts 40 and 60 and for the two outlier pairs
        assert (3, 40) in refits and (1, 60) in refits and len(refits) == 4

    def test_eight_points_recover_f(self):
        # the minimal system is 8 x 9: its F is the null vector that a thin
        # SVD would drop
        pq, pc = two_view(np.random.default_rng(8), 60, "general", 0.0, noise=0.0)
        F = eight_point(pq[None, :8], pc[None, :8])
        assert sampson_distance(F[0], pq, pc).max() < 1e-6
        F, mask = estimate_fundamental_ransac([(pq[:8], pc[:8], 0)])[0]
        assert mask.all() and sampson_distance(F, pq, pc).max() < 1e-6

    def test_no_problems(self):
        assert estimate_fundamental_ransac([]) == []


class TestPnpRansac:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 100),
           outliers=st.floats(0.3, 0.6), scene=st.sampled_from(["general", "planar"]))
    @settings(max_examples=10, deadline=None)
    def test_equals_loop(self, seed, n, outliers, scene):
        X, uv = resection(np.random.default_rng(seed), n, scene, outliers)
        assert_same_pose(pnp_ransac(X, uv, K, seed=seed), oracle.pnp_ransac(X, uv, K, seed=seed))

    @pytest.mark.parametrize("n, scene, outliers", [
        (6, "general", 0.0),      # the exact minimal set
        (100, "general", 0.4),
        (30, "collinear", 0.0),
        (40, "planar", 0.3),
    ])
    def test_cases(self, n, scene, outliers):
        X, uv = resection(np.random.default_rng(n), n, scene, outliers,
                          noise=0.0 if outliers == 0.0 else 0.5)
        assert_same_pose(pnp_ransac(X, uv, K, min_inliers=6, seed=5),
                         oracle.pnp_ransac(X, uv, K, min_inliers=6, seed=5))

    def test_random_pairs_equal_loop(self, monkeypatch):
        # test_random_pairs_do_not_overflow's tiny inlier share: to the cap
        rng = np.random.default_rng(0)
        X = rng.normal(size=(600, 3)) + [0.0, 0.0, 6.0]
        uv = rng.uniform(0, [640, 480], size=(600, 2))
        K_small = make_intrinsics(900.0, 320.0, 240.0)
        calls = []
        fit = reconstruct.dlt_pose
        monkeypatch.setattr(reconstruct, "dlt_pose",
                            lambda X, uv, K: calls.append(len(X)) or fit(X, uv, K))
        assert pnp_ransac(X, uv, K_small) is None
        assert oracle.pnp_ransac(X, uv, K_small) is None
        assert sum(calls) == PNP_MAX_ITERS


class TestLocalOptimisation:
    """Resection refits each new best consensus, so a draw whose consensus
    is nearly complete sets the stop count the whole inlier share allows."""

    @staticmethod
    def fitted_samples(monkeypatch, X, uv, seed):
        sizes = []
        fit = reconstruct.dlt_pose

        def counting(X, uv, K):
            if X.shape[1] == 6:  # minimal samples; refits stack one consensus
                sizes.append(len(X))
            return fit(X, uv, K)
        monkeypatch.setattr(reconstruct, "dlt_pose", counting)
        return pnp_ransac(X, uv, K, seed=seed), sum(sizes)

    @pytest.mark.parametrize("seed", range(12))
    def test_few_outliers_fit_one_block(self, monkeypatch, seed):
        X, uv = ring_resection(np.random.default_rng(seed), 150, 0.05)
        result, fitted = self.fitted_samples(monkeypatch, X, uv, seed)
        assert result is not None and fitted <= RANSAC_BLOCKS[0]

    @pytest.mark.parametrize("seed", [0, 4])
    def test_outliers_fit_only_the_stop_count(self, monkeypatch, seed):
        # at 20% outliers the stop rule itself asks for 28 draws on these
        # seeds, more than one block: no draw is fitted beyond it
        X, uv = ring_resection(np.random.default_rng(seed), 150, 0.2)
        (_, _, mask), fitted = self.fitted_samples(monkeypatch, X, uv, seed)
        assert fitted == ransac_stop_count(mask.sum() / len(X), 6, 0.999, PNP_MAX_ITERS)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 150),
           outliers=st.floats(0.0, 0.6))
    @settings(max_examples=15, deadline=None)
    def test_refit_never_lowers_the_best_count(self, seed, n, outliers):
        X, uv = ring_resection(np.random.default_rng(seed), n, outliers)
        seen = []
        run = geometry.block_ransac

        def recording(*args, refine, **kwargs):
            def watched(i, mask):
                seen.append(int(mask.sum()))
                return refine(i, mask)
            found = run(*args, refine=watched, **kwargs)
            seen.append(found[0][1])
            return found
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reconstruct, "block_ransac", recording)
            pnp_ransac(X, uv, K, seed=seed)
        # every consensus handed to the refit is at most the final best
        assert max(seen) == seen[-1]


class TestFailedSvd:
    """A NaN correspondence fails the stacked SVD of its block; the block is
    refit sample by sample, and the draw that holds it is skipped and
    counted, as the loop does."""

    def test_fundamental(self, monkeypatch):
        rng = np.random.default_rng(5)
        problems = [(*two_view(rng, 30, "general", 0.2), s) for s in (1, 2, 3)]
        problems[1][0][4] = np.nan
        raised = []
        fit = geometry.eight_point

        def counting(q, c):
            try:
                return fit(q, c)
            except np.linalg.LinAlgError:
                raised.append(len(q))
                raise
        monkeypatch.setattr(geometry, "eight_point", counting)
        results = estimate_fundamental_ransac(problems)
        assert raised[0] > 1 and 1 in raised  # the block failed, then one slice
        for new, (pq, pc, s) in zip(results, problems):
            assert_same_geometry(new, oracle.estimate_fundamental_ransac(pq, pc, seed=s))
        assert not results[1][1][4]

    def test_resection(self, monkeypatch):
        X, uv = resection(np.random.default_rng(6), 40, "general", 0.3)
        X[7] = np.nan
        raised = []
        fit = reconstruct.dlt_pose

        def counting(X, uv, K):
            try:
                return fit(X, uv, K)
            except np.linalg.LinAlgError:
                raised.append(len(X))
                raise
        monkeypatch.setattr(reconstruct, "dlt_pose", counting)
        new = pnp_ransac(X, uv, K, seed=9)
        assert raised[0] > 1 and 1 in raised
        assert new is not None and not new[2][7]
        assert_same_pose(new, oracle.pnp_ransac(X, uv, K, seed=9))

    def test_resection_consensus(self, monkeypatch):
        # a NaN point never scores as an inlier, so both sides' scores are
        # made to count it: it then lands in every consensus the refit
        # takes, whose SVD fails; the draw keeps its own consensus
        X, uv = resection(np.random.default_rng(6), 40, "general", 0.3)
        X[7] = np.nan
        raised = []
        fit = reconstruct.dlt_pose

        def counting(X, uv, K):
            try:
                return fit(X, uv, K)
            except np.linalg.LinAlgError:
                raised.append(X.shape[:2])
                raise

        def with_row_7(score):
            def scored(*args):
                mask = score(*args)
                mask[..., 7] = True
                return mask
            return scored
        monkeypatch.setattr(reconstruct, "dlt_pose", counting)
        monkeypatch.setattr(reconstruct, "_pnp_inliers", with_row_7(reconstruct._pnp_inliers))
        monkeypatch.setattr(oracle, "_pnp_mask", with_row_7(oracle._pnp_mask))
        new = pnp_ransac(X, uv, K, seed=9)
        assert (1, 6) in raised                       # a drawn sample
        assert any(b == 1 and n > 6 for b, n in raised)  # a consensus refit
        assert new is None  # the final refit takes it too
        assert_same_pose(new, oracle.pnp_ransac(X, uv, K, seed=9))
