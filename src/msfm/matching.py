"""Unguided descriptor matching and coarse match-graph construction.

Matching is nearest-neighbour search with a ratio test.  Every matcher
returns one image pair's matches as ``Matches``, parallel arrays of feature
ids, distances and ratios; the image ids stay with the pair.  The coarse
graph is built from high-scale tiers only, using a hybrid batched scheme
that abandons unpromising pairs early, then verifies every edge with robust
two-view geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descriptors import SearchStats, two_nearest_bruteforce
from .features import FeatureSet
from .geometry import MIN_EDGE_INLIERS, estimate_fundamental_ransac

RATIO_UNGUIDED = 0.6
RATIO_GUIDED = 0.8

# acceptance cap for a match whose candidate set has no second neighbour;
# 0.7 x the median distance between two noisy observations of one descriptor
# at sigma = 4 byte units (sqrt(2 * 4^2 * 128) ~ 64)
SINGLE_CANDIDATE_CAP = 45.0

HYBRID_BATCH_FRACTION = 0.10
HYBRID_CONTINUE_MIN = 4
HYBRID_EARLY_STOP = 64
MIN_EDGE_MATCHES = 16


@dataclass(frozen=True, eq=False)
class Matches:
    """One image pair's matches: feature ids (int64) in its query and target
    image, descriptor distances and ratio-test ratios (float64; 0 when there
    was no second neighbour)."""

    query: np.ndarray
    target: np.ndarray
    distance: np.ndarray
    ratio: np.ndarray

    def __len__(self) -> int:
        return len(self.query)

    def subset(self, which) -> Matches:
        """The matches a boolean mask or an index array selects."""
        return Matches(self.query[which], self.target[which],
                       self.distance[which], self.ratio[which])


NO_MATCHES = Matches(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))
# (points, features, distances) of no 3D-2D entry, for ``closest_one_to_one``
NO_ENTRIES = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))


@dataclass
class Edge:
    """Matches of the images (a, b) of its key: a is the query image, and
    ``F`` (p_b^T F p_a = 0) is None when the pair has no verified geometry."""

    matches: Matches
    inlier_mask: np.ndarray
    F: np.ndarray | None = None

    def inliers(self) -> Matches:
        return self.matches.subset(self.inlier_mask)


@dataclass
class MatchGraph:
    edges: dict[tuple[int, int], Edge] = field(default_factory=dict)

    def pair_key(self, a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def get(self, a: int, b: int) -> Edge | None:
        return self.edges.get(self.pair_key(a, b))

    def neighbors(self, image_id: int) -> list[int]:
        return sorted(b if a == image_id else a for a, b in self.edges if image_id in (a, b))

    def match_count(self, a: int, b: int) -> int:
        edge = self.get(a, b)
        return len(edge.matches) if edge else 0


def ratio_filter(dist: np.ndarray, idx: np.ndarray, ratio: float,
                 single_cap: float = SINGLE_CANDIDATE_CAP):
    """Accepted (rows, targets, distances, ratios) arrays from 2-NN results.

    A missing second neighbour falls back to an absolute distance cap and
    reports ratio 0 (no competitor).  Ratios are divided in ``dist``'s dtype.
    """
    best, second = dist[:, 0], dist[:, 1]
    single = (idx[:, 1] < 0) | ~np.isfinite(second)
    # two zero distances mean duplicated descriptors: as ambiguous as it
    # gets, so treat the ratio as 1
    r = np.ones_like(best)
    np.divide(best, second, out=r, where=~single & (second > 0))
    accept = (idx[:, 0] >= 0) & np.where(single, best < single_cap, r < ratio)
    r[single] = 0.0
    rows = np.flatnonzero(accept)
    return rows, idx[rows, 0], best[rows], r[rows]


def closest_per_key(keys: np.ndarray, dist: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Position of the least-distance entry of each key, ordered by key.

    Ties go to the entry of least ``tie``.
    """
    order = np.lexsort((tie, dist, keys))
    first = np.ones(len(order), dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    return order[first]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array.

    Same result as ``np.unique``, which in numpy 2.4 goes through a hash
    table and takes 10-30x longer than this one sort.
    """
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def closest_one_to_one(points: np.ndarray, features: np.ndarray,
                       distances: np.ndarray) -> np.ndarray:
    """(n, 2) int64 (point_id, feature_id) rows, sorted by point, from entries.

    Each point keeps its closest feature, ties going to its first entry; then
    each feature keeps its closest point, ties going to the point whose first
    entry came first.  So a feature backs at most one point.
    """
    n = len(points)
    per_point = closest_per_key(points, distances, np.arange(n))
    first_entry = closest_per_key(points, np.zeros(n), np.arange(n))
    keep = per_point[np.sort(closest_per_key(features[per_point], distances[per_point],
                                             first_entry))]
    return np.stack([points[keep], features[keep]], axis=1).astype(np.int64)


def one_per_target(rows: np.ndarray, targets: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Positions of the candidates kept when each target feature keeps one.

    The smallest distance wins and ties go to the smaller row; the result is
    ordered by row, then target.
    """
    keep = closest_per_key(targets, dist, rows)
    return keep[np.lexsort((targets[keep], rows[keep]))]


def matches_from(accepted, *, query_ids, target_ids) -> Matches:
    """Matches from accepted (rows, targets, distances, ratios) arrays, one per target.

    ``one_per_target`` picks among the candidates; then rows map to feature
    ids through ``query_ids`` (None: rows are feature ids) and targets
    through ``target_ids``.
    """
    rows, targets, dist, ratio = accepted
    keep = one_per_target(rows, targets, dist)
    queries = rows[keep] if query_ids is None else np.asarray(query_ids)[rows[keep]]
    return Matches(query=queries.astype(np.int64),
                   target=np.asarray(target_ids)[targets[keep]].astype(np.int64),
                   distance=dist[keep].astype(np.float64),
                   ratio=ratio[keep].astype(np.float64))


def match_pair(query_fs: FeatureSet, target_fs: FeatureSet, *,
               ratio: float = RATIO_UNGUIDED,
               query_indices: np.ndarray | None = None,
               target_indices: np.ndarray | None = None,
               single_cap: float = SINGLE_CANDIDATE_CAP,
               stats: SearchStats | None = None) -> Matches:
    """Match two feature sets (their coarse tiers unless indices are given)."""
    qi = query_fs.tier_indices if query_indices is None else np.asarray(query_indices)
    ti = target_fs.tier_indices if target_indices is None else np.asarray(target_indices)
    if len(qi) == 0 or len(ti) == 0:
        return NO_MATCHES
    dist, idx = two_nearest_bruteforce(query_fs.descriptors[qi], target_fs.descriptors[ti],
                                       stats)
    return matches_from(ratio_filter(dist, idx, ratio, single_cap), query_ids=qi, target_ids=ti)


def hybrid_match(query_fs: FeatureSet, target_fs: FeatureSet, *,
                 ratio: float = RATIO_UNGUIDED,
                 early_stop: int = HYBRID_EARLY_STOP,
                 stats: SearchStats | None = None) -> Matches:
    """Batched tier matching: high-scale query batches against the target tier.

    After the first batch the next one runs only if more than
    ``HYBRID_CONTINUE_MIN`` matches accumulated; matching stops early at
    ``early_stop`` matches.
    """
    n_tier = query_fs.coarse_count
    if n_tier == 0 or target_fs.coarse_count == 0:
        return NO_MATCHES
    batch = max(1, int(np.ceil(HYBRID_BATCH_FRACTION * len(query_fs))))
    ti = target_fs.tier_indices
    # converted once: every batch multiplies the whole target tier
    tdesc = target_fs.descriptors[ti].astype(np.float32)
    parts = []
    n_accepted = 0
    for start in range(0, n_tier, batch):
        if parts and n_accepted <= HYBRID_CONTINUE_MIN:
            break
        if n_accepted >= early_stop:
            break
        stop = min(start + batch, n_tier)
        dist, idx = two_nearest_bruteforce(query_fs.descriptors[start:stop], tdesc, stats)
        rows, targets, d, r = ratio_filter(dist, idx, ratio)
        parts.append((rows + start, targets, d, r))
        n_accepted += len(rows)
    accepted = tuple(np.concatenate(column) for column in zip(*parts))
    return matches_from(accepted, query_ids=None, target_ids=ti)


def build_coarse_matchgraph(feature_sets: dict[int, FeatureSet], *,
                            ratio: float = RATIO_UNGUIDED,
                            min_edge_inliers: int = MIN_EDGE_INLIERS,
                            seed: int = 0) -> MatchGraph:
    """Hybrid-match every pair and keep geometry-verified edges.

    The fundamental-matrix RANSACs of all matched pairs run in lockstep,
    each pair seeded ``seed + a * 100003 + b``.
    """
    ids = sorted(feature_sets)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]

    matched = []
    for a, b in pairs:
        matches = hybrid_match(feature_sets[a], feature_sets[b], ratio=ratio)
        if len(matches) >= MIN_EDGE_MATCHES:
            matched.append((a, b, matches))
    verified = estimate_fundamental_ransac([
        (feature_sets[a].xy[m.query], feature_sets[b].xy[m.target], seed + a * 100003 + b)
        for a, b, m in matched])
    graph = MatchGraph()
    for (a, b, matches), (F, mask) in zip(matched, verified):
        if int(mask.sum()) >= min_edge_inliers:
            graph.edges[(a, b)] = Edge(matches=matches, inlier_mask=mask, F=F)
    return graph
