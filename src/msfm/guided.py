"""Geometry-guided feature matching near epipolar lines.

Candidates for a query feature are the target features within a band of
distance d around its epipolar line.  They are retrieved from four offset
grids that bin the target features once per image: every sample of the
line gathers its four containing cells, giving O(K + |C'|) retrieval.  With
samples at most d apart and a cell half-size of at least sqrt(5)/2 of the
band, the gathered cells provably cover the whole band.  The exact linear
scan ``candidates_linear`` is the reference the tests compare against.

Queries whose epipolar lines pierce the target boundary at nearly the same
points share one candidate set, so their descriptor index is built once per
group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descriptors import SearchStats
from .features import FeatureSet
from .geometry import EpipolarLine, TwoViewGeometry
from .matching import RATIO_GUIDED, Match, matches_from, ratio_filter

BAND_D_PX = 8.0
GRID_INFLATION = 1.25
# below this cell half-size / band ratio the four cells of a sample no
# longer cover the band
MIN_GRID_INFLATION = math.sqrt(5.0) / 2.0
GROUP_BOUNDARY_PX = 2.0

_OFFSETS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@dataclass
class OverlapGrid:
    """Four offset grids of cell size 2d binning target features by position.

    Cell indices may be negative.  All four grids share one sorted lookup
    table keyed by (grid, cell).
    """

    d: float
    width: float
    height: float
    _keys: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    _starts: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    _members: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def cell_indices(self, xy: np.ndarray) -> np.ndarray:
        """(n, 4, 2) integer cell index of each point in each offset grid."""
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        shifted = xy[:, None, :] - _OFFSETS[None, :, :] * self.d
        return np.floor(shifted / (2.0 * self.d)).astype(np.int64)

    def _encode(self, idx: np.ndarray, grid=0) -> np.ndarray:
        """Pack grid id and (cx, cy) into one int64 key."""
        cell = (idx[..., 0] + (1 << 20)) * (1 << 21) + (idx[..., 1] + (1 << 20))
        return cell + np.asarray(grid, dtype=np.int64) * (1 << 44)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Feature ids binned under the given packed keys (may repeat)."""
        table = self._keys
        if len(table) == 0 or len(keys) == 0:
            return np.array([], dtype=np.int64)
        pos = np.searchsorted(table, keys)
        pos = np.minimum(pos, len(table) - 1)
        pos = pos[table[pos] == keys]
        if len(pos) == 0:
            return np.array([], dtype=np.int64)
        lo = self._starts[pos]
        lengths = self._starts[pos + 1] - lo
        total = int(lengths.sum())
        if total == 0:
            return np.array([], dtype=np.int64)
        # ragged gather: concatenate members[lo[i]:lo[i]+lengths[i]] for all i
        base = np.repeat(lo, lengths)
        shift = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return self._members[base + shift]


def build_grid(features: FeatureSet | np.ndarray, d: float, *,
               width: float | None = None, height: float | None = None) -> OverlapGrid:
    """Bin features into the four offset grids (once per target image)."""
    if d <= 0:
        raise ValueError(f"cell half-size d must be positive, got {d}")
    if isinstance(features, FeatureSet):
        xy = features.xy.astype(np.float64)
        width = float(features.width)
        height = float(features.height)
    else:
        xy = np.asarray(features, dtype=np.float64).reshape(-1, 2)
        if width is None or height is None:
            raise ValueError("width/height required when binning raw coordinates")
    grid = OverlapGrid(d=float(d), width=float(width), height=float(height))
    idx = grid.cell_indices(xy)
    n = len(xy)
    grids = np.repeat(np.arange(4)[None, :], n, axis=0)
    keys = grid._encode(idx, grids).reshape(-1)
    feat_ids = np.repeat(np.arange(n, dtype=np.int64), 4)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    uniq, starts = np.unique(sorted_keys, return_index=True)
    grid._keys = uniq
    grid._starts = np.append(starts, len(sorted_keys)).astype(np.int64)
    grid._members = feat_ids[order]
    return grid


def clip_line_to_bounds(line: EpipolarLine, width: float, height: float, *,
                        pad: float = 0.0):
    """Intersections of a line with the image rectangle [0,w] x [0,h].

    ``pad`` expands the rectangle outward on all sides (used by candidate
    retrieval so band features beyond the in-image segment still get
    samples).  Returns (p_A, p_B) or None when the line misses the
    rectangle; endpoints are ordered lexicographically for stable
    downstream grouping.
    """
    a, b, c = line.a, line.b, line.c
    x0, x1 = -pad, width + pad
    y0, y1 = -pad, height + pad
    pts = []
    if abs(b) > 1e-15:
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, min(max(y, y0), y1)))
    if abs(a) > 1e-15:
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((min(max(x, x0), x1), y))
    if len(pts) < 2:
        return None
    pts = sorted(set(pts))
    pa, pb = pts[0], pts[-1]
    if np.hypot(pb[0] - pa[0], pb[1] - pa[1]) < 1e-12:
        return None
    return np.array(pa), np.array(pb)


def equidistant_line_points(line: EpipolarLine, bounds: tuple[float, float],
                            d: float, *, pad: float = 0.0) -> np.ndarray:
    """K+1 points spaced at most d apart along the in-image line segment.

    The sequence starts at the lexicographically larger endpoint (k = 0 maps
    to p_B); an empty array signals that the line misses the image.
    """
    clipped = clip_line_to_bounds(line, bounds[0], bounds[1], pad=pad)
    if clipped is None:
        return np.zeros((0, 2))
    pa, pb = clipped
    length = float(np.hypot(*(pb - pa)))
    k_count = max(1, int(np.ceil(length / d)))
    k = np.arange(k_count + 1, dtype=np.float64)[:, None]
    return (k * pa[None, :] + (k_count - k) * pb[None, :]) / k_count


def candidates_linear(xy: np.ndarray, line: EpipolarLine, d: float) -> np.ndarray:
    """Exact band query: indices of features within distance d of the line."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    dist = np.abs(xy @ np.array([line.a, line.b]) + line.c)
    return np.flatnonzero(dist <= d)


def candidates_grid(grid: OverlapGrid, line: EpipolarLine, d: float) -> np.ndarray:
    """Band query via the grid cells of the line samples.

    Accumulates all four containing cells of every sample: with samples at
    most d apart and cell half-size >= d * sqrt(5)/2 this provably covers
    the whole band.  The result also holds features outside the band;
    callers filter it to the exact band.
    """
    samples = equidistant_line_points(line, (grid.width, grid.height), d, pad=d)
    if len(samples) == 0:
        return np.array([], dtype=np.int64)
    idx = grid.cell_indices(samples)
    grids = np.repeat(np.arange(4)[None, :], len(samples), axis=0)
    keys = grid._encode(idx, grids).reshape(-1)
    members = grid.lookup(np.unique(keys))
    if len(members) == 0:
        return members
    return np.unique(members)


@dataclass
class QueryGroup:
    """Query features whose epipolar lines pierce the target boundary together."""

    representative_line: EpipolarLine
    member_features: np.ndarray
    boundary_points: np.ndarray  # (2, 2) endpoints of the representative


def clip_lines_batch(lines: np.ndarray, width: float, height: float):
    """Vectorized rectangle clipping of N normalized lines.

    Returns (ok mask, p_A (N,2), p_B (N,2)) with endpoints ordered
    lexicographically; rows with ok=False missed the rectangle.
    """
    lines = np.asarray(lines, dtype=np.float64).reshape(-1, 3)
    n = len(lines)
    a, b, c = lines[:, 0], lines[:, 1], lines[:, 2]
    x0, x1 = 0.0, width
    y0, y1 = 0.0, height
    cand = np.full((n, 4, 2), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, xv in enumerate((x0, x1)):
            y = -(a * xv + c) / b
            valid = (np.abs(b) > 1e-15) & (y >= y0 - 1e-9) & (y <= y1 + 1e-9)
            cand[valid, k, 0] = xv
            cand[valid, k, 1] = np.clip(y[valid], y0, y1)
        for k, yv in enumerate((y0, y1)):
            x = -(b * yv + c) / a
            valid = (np.abs(a) > 1e-15) & (x >= x0 - 1e-9) & (x <= x1 + 1e-9)
            cand[valid, k + 2, 0] = np.clip(x[valid], x0, x1)
            cand[valid, k + 2, 1] = yv
    # lexicographic order via a scalar key; coordinates are bounded by the
    # rectangle so the key is collision free at sub-pixel level
    span = max(x1 - x0, y1 - y0, 1.0)
    key = cand[:, :, 0] * (4.0 * span) + cand[:, :, 1]
    missing = np.isnan(key)
    key_lo = np.where(missing, np.inf, key)
    key_hi = np.where(missing, -np.inf, key)
    valid_any = ~missing.all(axis=1)
    pa = np.zeros((n, 2))
    pb = np.zeros((n, 2))
    idx_min = np.argmin(key_lo, axis=1)
    idx_max = np.argmax(key_hi, axis=1)
    rows = np.arange(n)
    pa[valid_any] = cand[rows[valid_any], idx_min[valid_any]]
    pb[valid_any] = cand[rows[valid_any], idx_max[valid_any]]
    seg = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    ok = valid_any & (seg > 1e-12)
    return ok, pa, pb


def group_queries(query_fs: FeatureSet, geom: TwoViewGeometry,
                  bounds: tuple[float, float], *,
                  query_indices: np.ndarray | None = None) -> list[QueryGroup]:
    """Partition query features by quantized boundary intersections.

    Bucket width equals ``GROUP_BOUNDARY_PX``, so two members of one group
    always hit the boundary within that distance of each other on both
    endpoints.
    Queries whose lines miss the target image are left out.
    """
    qi = np.arange(len(query_fs)) if query_indices is None else np.asarray(query_indices)
    if len(qi) == 0:
        return []
    hom = np.hstack([query_fs.xy[qi].astype(np.float64), np.ones((len(qi), 1))])
    lines = hom @ geom.F.T
    norms = np.hypot(lines[:, 0], lines[:, 1])
    ok = norms > 1e-12
    lines[ok] /= norms[ok, None]
    clip_ok, pa, pb = clip_lines_batch(lines, bounds[0], bounds[1])
    keep = ok & clip_ok
    if not keep.any():
        return []
    cells = np.concatenate([
        np.floor(pa[keep] / GROUP_BOUNDARY_PX).astype(np.int64),
        np.floor(pb[keep] / GROUP_BOUNDARY_PX).astype(np.int64),
    ], axis=1)
    kept_rows = np.flatnonzero(keep)
    # sort by the four bucket coordinates (first column primary), then by
    # query id; a group starts wherever any coordinate changes
    order = np.lexsort((qi[kept_rows], cells[:, 3], cells[:, 2], cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    changed = (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)
    boundaries = np.flatnonzero(np.concatenate([[True], changed]))
    boundaries = np.append(boundaries, len(sorted_cells))
    groups = []
    for gi in range(len(boundaries) - 1):
        rows = order[boundaries[gi]:boundaries[gi + 1]]
        rep_row = kept_rows[rows[0]]
        groups.append(QueryGroup(
            representative_line=EpipolarLine(float(lines[rep_row, 0]),
                                             float(lines[rep_row, 1]),
                                             float(lines[rep_row, 2])),
            member_features=np.sort(qi[kept_rows[rows]]),
            boundary_points=np.stack([pa[rep_row], pb[rep_row]]),
        ))
    return groups


def guided_match_pair(query_fs: FeatureSet, target_fs: FeatureSet,
                      geom: TwoViewGeometry, *,
                      d: float = BAND_D_PX,
                      ratio: float = RATIO_GUIDED,
                      inflation: float = GRID_INFLATION,
                      query_indices: np.ndarray | None = None,
                      target_indices: np.ndarray | None = None,
                      grid: OverlapGrid | None = None,
                      stats: SearchStats | None = None) -> list[Match]:
    """Match query features against target candidates near their epipolar lines.

    Queries are processed group by group so each candidate set is gathered
    from the overlapping grid once; ``grid`` defaults to one built over the
    target features with cell half-size ``d * inflation``.  Candidates are
    post-filtered to the exact band of each member's own line, so every
    returned match satisfies dist <= d.
    """
    ti = np.arange(len(target_fs)) if target_indices is None else np.asarray(target_indices)
    if len(ti) == 0:
        return []
    bounds = (float(target_fs.width), float(target_fs.height))
    txy = target_fs.xy[ti].astype(np.float64)
    if grid is None:
        grid = build_grid(txy, d * inflation, width=bounds[0], height=bounds[1])

    groups = group_queries(query_fs, geom, bounds, query_indices=query_indices)
    tdesc = target_fs.descriptors_f32()[ti]
    tnorm = np.einsum("ij,ij->i", tdesc, tdesc)
    qdesc = query_fs.descriptors_f32()
    qxy = query_fs.xy.astype(np.float64)
    accepted = []
    for group in groups:
        cand = candidates_grid(grid, group.representative_line, d)
        if len(cand) == 0:
            continue
        members = group.member_features
        # exact band of each member's own line; descriptor distances are only
        # computed for candidates inside the union of the members' bands
        hom = np.hstack([qxy[members], np.ones((len(members), 1))])
        mlines = hom @ geom.F.T
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
        for k, local, dd, rr in ratio_filter(dist, idx, ratio):
            accepted.append((int(members[k]), int(cand[local]), dd, rr))
    return matches_from(accepted, query_fs.image_id, target_fs.image_id,
                        query_ids=None, target_ids=ti)
