"""Geometry-guided feature matching near epipolar lines.

Candidates for a query feature are the target features within a band of
distance d around its epipolar line.  They are retrieved from four offset
grids of cell size 2D that bin the target features once per image: every
sample of the line gathers its four containing cells, giving O(K + |C'|)
retrieval.  With samples at most d apart and a cell half-size D of at least
sqrt(5)/2 of the band, the gathered cells provably cover the whole band.
The four grids are stored as one table of half-cells of size D
(``OverlapGrid``): a sample's four cells hold exactly the features of the
3 x 3 half-cells around its own, and along a line those neighbourhoods are
one contiguous slice of the table per half-cell column.  The exact linear
scan ``candidates_linear`` is the reference the tests compare against.

Lines are normalized ``(n, 3)`` arrays of (a, b, c) with a*x + b*y + c = 0
throughout; ``clip_lines`` is the one rectangle clip.  Queries whose
epipolar lines pierce the target boundary at nearly the same points share
one candidate set (``group_queries``).  ``guided_match_pair`` handles all
groups of an image pair in flat array passes: it samples every
representative line, reads every line's table slices, filters every candidate
to the exact band of each member's own line and takes every member's two
nearest neighbours at once.  Only the descriptor product runs once per
group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptors import SearchStats
from .features import FeatureSet
from .geometry import EpipolarLine
from .matching import NO_MATCHES, RATIO_GUIDED, Matches, matches_from, ratio_filter

BAND_D_PX = 8.0
# grid cell half-size over band d: at least sqrt(5)/2 so that a sample's four
# cells cover the band; candidates are band-filtered, so it sets speed only
GRID_INFLATION = 1.25
GROUP_BOUNDARY_PX = 2.0

# guided matching handles a pair's groups in blocks of about this much work
# (line samples times members, plus two), so that its flat arrays stay near
# 1 MB each whatever the image or group size; larger blocks raise the
# pipeline's peak RSS, smaller ones cost time per block
_BLOCK_WORK = 1 << 16
# the half-cell table reaches this many half-cells beyond the image on
# every side: samples lie in the image padded by d <= D, and their 3 x 3
# neighbourhoods reach two half-cells beyond it, plus one for rounding
_MARGIN = 3


@dataclass
class OverlapGrid:
    """Target features binned once per image, read as four offset grids.

    The four grids have cells of size 2D (D = ``d``), offset by 0 or D in x
    and y.  They are stored as one table of half-cells of size D: a feature
    shares a cell of some offset grid with a point exactly when their
    half-cells (floor(x / D), floor(y / D)) differ by at most 1 on each
    axis, as floor(t / 2) = floor(floor(t) / 2).  Features are sorted by
    column-major half-cell, and ``_starts`` holds the offset of every
    half-cell's run of ``_members``, so that the half-cells of one column
    between two rows are one slice.  The table covers half-cell columns
    -_MARGIN .. floor(width / D) + _MARGIN and the rows alike, about
    (floor(W / D) + 7) (floor(H / D) + 7) offsets: 9 k at 1024 x 768 and
    74 k at 3072 x 2304 with D = 10; features beyond it are never read.
    Offsets and ids are int32, which halves the table that densify keeps
    for every target image of a stage.
    """

    d: float
    width: float
    height: float
    columns: int
    rows: int
    n_features: int
    _starts: np.ndarray
    _members: np.ndarray


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int64 array.

    Same result as ``np.unique``, which in numpy 2.4 goes through a hash
    table and takes 10-30x longer than this one sort.
    """
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """0, 1, .., n-1 for every segment length n, concatenated."""
    total = int(lengths.sum())
    return np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _half_cells(coordinates: np.ndarray, d: float) -> np.ndarray:
    """Half-cell index of each coordinate, shifted by ``_MARGIN``, as floats."""
    return np.floor(coordinates / d) + _MARGIN


def build_grid(xy: np.ndarray, d: float, *, width: float, height: float) -> OverlapGrid:
    """Bin feature positions into the half-cell table (once per target image)."""
    if d <= 0:
        raise ValueError(f"cell half-size d must be positive, got {d}")
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    columns = math.floor(width / d) + 2 * _MARGIN + 1
    rows = math.floor(height / d) + 2 * _MARGIN + 1
    half = _half_cells(xy, d)
    inside = np.flatnonzero(((half >= 0) & (half < [columns, rows])).all(axis=1))
    cells = half[inside, 0].astype(np.int64) * rows + half[inside, 1].astype(np.int64)
    order = np.argsort(cells, kind="stable")
    starts = np.zeros(columns * rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(cells, minlength=columns * rows), out=starts[1:])
    return OverlapGrid(d=float(d), width=float(width), height=float(height),
                       columns=columns, rows=rows, n_features=len(xy),
                       _starts=starts, _members=inside[order].astype(np.int32))


def candidates_linear(xy: np.ndarray, line: EpipolarLine, d: float) -> np.ndarray:
    """Exact band query: indices of features within distance d of the line."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    dist = np.abs(xy @ np.array([line.a, line.b]) + line.c)
    return np.flatnonzero(dist <= d)


def _edge_hits(lines: np.ndarray, x0: float, x1: float, y0: float, y1: float) -> np.ndarray:
    """(N, 4, 2) crossings of N lines with the edges x0, x1, y0 and y1; NaN if missed.

    A crossing within 1e-9 of the edge's span counts and is clamped to it.
    """
    a, b, c = lines[:, 0], lines[:, 1], lines[:, 2]
    cand = np.full((len(lines), 4, 2), np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    return cand


def clip_lines(lines: np.ndarray, width: float, height: float, *, pad: float = 0.0):
    """Clip N normalized lines to the rectangle [-pad, width + pad] x [-pad, height + pad].

    Returns (ok, p_A, p_B): p_A and p_B are the lexicographically least and
    greatest edge crossings, so the order of the endpoints does not depend
    on the line's sign.  Rows with ok False miss the rectangle or touch it
    in one point; their endpoints are 0.
    """
    cand = _edge_hits(lines, -pad, width + pad, -pad, height + pad)
    x, y = cand[:, :, 0], cand[:, :, 1]
    hit = ~np.isnan(x)
    xa = np.where(hit, x, np.inf).min(axis=1)
    xb = np.where(hit, x, -np.inf).max(axis=1)
    ya = np.where(x == xa[:, None], y, np.inf).min(axis=1)
    yb = np.where(x == xb[:, None], y, -np.inf).max(axis=1)
    ok = (hit.sum(axis=1) >= 2) & (np.hypot(xb - xa, yb - ya) >= 1e-12)
    pa = np.where(ok[:, None], np.stack([xa, ya], axis=1), 0.0)
    pb = np.where(ok[:, None], np.stack([xb, yb], axis=1), 0.0)
    return ok, pa, pb


def _line_samples(lines: np.ndarray, grid: OverlapGrid, d: float):
    """Where each line's grid samples lie: (number of samples, K, p_A, p_B).

    Sample k = 0 .. K of a line is (k p_A + (K - k) p_B) / K on its segment
    clipped to the grid's image padded by d, so samples lie at most d
    apart; a line that misses the padded image has no samples.  A band d
    wider than the grid's half-cell is a ValueError.
    """
    if d > grid.d:
        raise ValueError(f"band d = {d} exceeds the grid's half-cell size {grid.d}")
    ok, pa, pb = clip_lines(lines, grid.width, grid.height, pad=d)
    length = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
    k_count = np.maximum(1.0, np.ceil(length / d))
    n_samples = np.where(ok, k_count + 1.0, 0.0).astype(np.int64)
    return n_samples, k_count, pa, pb


@dataclass(frozen=True, eq=False)
class QueryGroups:
    """Query features grouped by where their epipolar lines pierce the target boundary.

    Group g holds ``members[starts[g]:starts[g + 1]]`` (the last one runs to
    the end), in id order; ``lines[g]`` is the normalized epipolar line of
    its first member, the group's representative.
    """

    members: np.ndarray
    starts: np.ndarray
    lines: np.ndarray  # (groups, 3)

    def __len__(self) -> int:
        return len(self.starts)

    def sizes(self) -> np.ndarray:
        """Members per group."""
        return np.diff(self.starts, append=len(self.members))


NO_GROUPS = QueryGroups(np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 3)))


def group_queries(query_fs: FeatureSet, F: np.ndarray,
                  bounds: tuple[float, float], *,
                  query_indices: np.ndarray | None = None) -> QueryGroups:
    """Partition query features by quantized boundary intersections.

    Bucket width equals ``GROUP_BOUNDARY_PX``, so two members of one group
    always hit the boundary within that distance of each other on both
    endpoints.  Groups come in bucket order.
    Queries whose lines miss the target image are left out.
    """
    qi = np.arange(len(query_fs)) if query_indices is None else np.asarray(query_indices)
    if len(qi) == 0:
        return NO_GROUPS
    hom = np.hstack([query_fs.xy[qi].astype(np.float64), np.ones((len(qi), 1))])
    lines = hom @ F.T
    norms = np.hypot(lines[:, 0], lines[:, 1])
    ok = norms > 1e-12
    lines[ok] /= norms[ok, None]
    clip_ok, pa, pb = clip_lines(lines, bounds[0], bounds[1])
    keep = ok & clip_ok
    if not keep.any():
        return NO_GROUPS
    cells = np.concatenate([
        np.floor(pa[keep] / GROUP_BOUNDARY_PX).astype(np.int64),
        np.floor(pb[keep] / GROUP_BOUNDARY_PX).astype(np.int64),
    ], axis=1)
    kept_rows = np.flatnonzero(keep)
    # sort by the four bucket coordinates (first column primary), then by
    # query id, so members come out sorted; a group starts wherever any
    # coordinate changes
    order = np.lexsort((qi[kept_rows], cells[:, 3], cells[:, 2], cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    changed = (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate([[True], changed]))
    return QueryGroups(members=qi[kept_rows[order]], starts=starts,
                       lines=lines[kept_rows[order[starts]]])


def _candidates_batch(grid: OverlapGrid, lines: np.ndarray, d: float):
    """Grid candidates of every row of ``lines`` in one pass.

    The candidates of a line are the features that share a cell of some
    offset grid with one of its samples (``_line_samples``): with samples at
    most d apart and cell half-size >= d * sqrt(5)/2 this covers the whole
    band of distance d.  In the half-cell table they are the 3 x 3
    neighbourhoods of the samples' half-cells.  Samples step at most one
    half-cell, as d <= ``grid.d``, so the samples of one line in one column
    form a run of contiguous rows, and a column's neighbourhood rows are
    one interval: the rows of its run and of the runs before and after it,
    widened by one.  A run with no neighbouring run on one side also reads
    the column beyond it.  Returns (line, feature id) arrays sorted by
    line, then id.
    """
    return _sampled_candidates(grid, *_line_samples(lines, grid, d))


def _sampled_candidates(grid: OverlapGrid, n_samples, k_count, pa, pb):
    """``_candidates_batch`` of lines that ``_line_samples`` sampled."""
    total = int(n_samples.sum())
    if total == 0 or grid.n_features == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    k = _segment_offsets(n_samples).astype(np.float64)
    kc = np.repeat(k_count, n_samples)

    def half_cells(a, b):
        """Half-cell index of every sample on one axis, from its ends' a and b."""
        along = (k * np.repeat(a, n_samples) + (kc - k) * np.repeat(b, n_samples)) / kc
        return _half_cells(along, grid.d).astype(np.int64)

    hx, hy = half_cells(pa[:, 0], pb[:, 0]), half_cells(pa[:, 1], pb[:, 1])
    # runs of samples of one line in one column
    line_start = np.zeros(total, dtype=bool)
    line_start[(np.cumsum(n_samples) - n_samples)[n_samples > 0]] = True
    first = line_start.copy()
    first[1:] |= hx[1:] != hx[:-1]
    first = np.flatnonzero(first)
    line = np.repeat(np.arange(len(n_samples)), n_samples)[first]
    col = hx[first]
    lo, hi = np.minimum.reduceat(hy, first), np.maximum.reduceat(hy, first)
    # the run before and after each one in its line, or the run itself
    opens = line_start[first]
    closes = np.append(opens[1:], True)

    def shifted(values, step):
        out = np.roll(values, step)
        ends = opens if step > 0 else closes
        out[ends] = values[ends]
        return out

    # a column's rows are those of its run and of the neighbouring runs,
    # which lie one column to either side
    top = np.minimum(lo, np.minimum(shifted(lo, 1), shifted(lo, -1)))
    bottom = np.maximum(hi, np.maximum(shifted(hi, 1), shifted(hi, -1)))
    prev_col, next_col = shifted(col, 1), shifted(col, -1)
    parts = [(line, col, top, bottom)]
    for side in (-1, 1):
        alone = (prev_col != col + side) & (next_col != col + side)
        parts.append((line[alone], col[alone] + side, lo[alone], hi[alone]))
    line, col, top, bottom = (np.concatenate(column) for column in zip(*parts))
    begin = grid._starts[col * grid.rows + top - 1]
    lengths = grid._starts[col * grid.rows + bottom + 2] - begin
    # every slice's ids, concatenated: ``_segment_offsets`` with the slice
    # starts folded into its one repeat
    ids = grid._members[np.arange(int(lengths.sum()))
                        + np.repeat(begin - (np.cumsum(lengths) - lengths), lengths)]
    # a line whose samples jitter across a column boundary, as a near-axis
    # line can, reads that column more than once
    n = grid.n_features
    return np.divmod(sorted_unique(np.repeat(line, lengths) * n + ids), n)


def _two_nearest(d2: np.ndarray, starts: np.ndarray):
    """(dist, idx) of the two smallest of every segment of squared distances.

    ``idx`` holds positions in ``d2``, or -1 where no finite distance is
    left; ties go to the lower position.  ``d2``'s minima are overwritten.
    """
    def segment_min(values):
        low = np.minimum.reduceat(values, starts)
        lengths = np.diff(np.append(starts, len(values)))
        at = np.where(values == np.repeat(low, lengths), np.arange(len(values)), len(values))
        return low, np.minimum.reduceat(at, starts)

    best, best_at = segment_min(d2)
    d2[best_at] = np.inf
    second, second_at = segment_min(d2)
    dist = np.sqrt(np.stack([best, second], axis=1))
    idx = np.stack([np.where(np.isfinite(best), best_at, -1),
                    np.where(np.isfinite(second), second_at, -1)], axis=1)
    return dist, idx


def guided_match_pair(query_fs: FeatureSet, target_fs: FeatureSet,
                      F: np.ndarray, *,
                      d: float = BAND_D_PX,
                      ratio: float = RATIO_GUIDED,
                      query_indices: np.ndarray | None = None,
                      target_indices: np.ndarray | None = None,
                      grid: OverlapGrid | None = None,
                      stats: SearchStats | None = None) -> Matches:
    """Match query features against target candidates near their epipolar lines.

    A group's candidates are the target features in the grid cells of its
    representative line's samples (``_candidates_batch``); ``grid`` defaults
    to one built over the target features with cell half-size
    ``d * GRID_INFLATION``.  Candidates are post-filtered to the exact band of
    each member's own line, so every returned match satisfies dist <= d.
    Groups run in blocks of flat arrays; only the descriptor product is
    taken group by group.
    """
    ti = np.arange(len(target_fs)) if target_indices is None else np.asarray(target_indices)
    if len(ti) == 0:
        return NO_MATCHES
    bounds = (float(target_fs.width), float(target_fs.height))
    txy = target_fs.xy[ti].astype(np.float64)
    if grid is None:
        grid = build_grid(txy, d * GRID_INFLATION, width=bounds[0], height=bounds[1])

    groups = group_queries(query_fs, F, bounds, query_indices=query_indices)
    if not groups:
        return NO_MATCHES
    # members of all groups, group by group, with each member's own line
    members, member_start, rep = groups.members, groups.starts, groups.lines
    # float32 rows of the features that products may take: the members, in
    # member order, and the target features
    qdesc = query_fs.descriptors[members].astype(np.float32)
    qnorm = np.einsum("ij,ij->i", qdesc, qdesc)
    tdesc = target_fs.descriptors[ti].astype(np.float32)
    tnorm = np.einsum("ij,ij->i", tdesc, tdesc)
    n_members = groups.sizes()
    hom = np.hstack([query_fs.xy[members].astype(np.float64), np.ones((len(members), 1))])
    mlines = hom @ F.T
    mlines /= np.maximum(np.hypot(mlines[:, 0], mlines[:, 1]), 1e-15)[:, None]

    line_a, line_b, line_c = np.ascontiguousarray(mlines.T)
    tx, ty = np.ascontiguousarray(txy.T)

    def band_dist(rows, cand, repeats=1):
        """|distance| of each candidate to the line of its member; members repeat."""
        a, b, c = (np.repeat(col[rows], repeats) for col in (line_a, line_b, line_c))
        return np.abs(a * tx[cand] + b * ty[cand] + c)

    samples = _line_samples(rep, grid, d)
    n_samples, _, pa, pb = samples
    # A member's line minus the line of member 0 of its group is a linear
    # function.  A candidate lies in a cell that holds a sample of the
    # segment pa-pb, so within r = 2 sqrt(2) grid.d of it, where that
    # function is at most its larger end value plus r times its gradient.
    # The group's slack bounds this over its members; 1e-6 px covers rounding.
    diff = mlines - mlines[np.repeat(member_start, n_members)]
    at_ends = [np.abs(diff[:, 0] * p[:, 0] + diff[:, 1] * p[:, 1] + diff[:, 2])
               for p in (np.repeat(pa, n_members, axis=0), np.repeat(pb, n_members, axis=0))]
    stray = np.maximum(*at_ends) + 2.0 * math.sqrt(2.0) * grid.d * np.hypot(diff[:, 0], diff[:, 1])
    slack = np.maximum.reduceat(stray, member_start) + 1e-6

    # a block's arrays grow with its samples and with its (member, candidate)
    # pairs
    work = np.maximum(n_samples, 2) * (n_members + 2)
    block_of = (np.cumsum(work) - work) // _BLOCK_WORK
    cuts = np.flatnonzero(np.diff(block_of, prepend=-1, append=block_of[-1] + 1)).tolist()
    parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        nm = n_members[lo:hi]
        ms = member_start[lo:hi]
        cand_group, cand = _sampled_candidates(grid, *(part[lo:hi] for part in samples))
        n_cand = np.bincount(cand_group, minlength=hi - lo)
        # a candidate stays if it lies in the band of a member of its group:
        # decided by member 0 unless it is within the slack of that band
        near = band_dist(ms, cand, n_cand)
        keep = near <= d
        unsure = np.flatnonzero(~keep & (near <= d + slack[lo + cand_group]))
        per = nm[cand_group[unsure]]
        rows = np.repeat(ms[cand_group[unsure]], per) + _segment_offsets(per)
        hit = band_dist(rows, np.repeat(cand[unsure], per)) <= d
        keep[np.repeat(unsure, per)[hit]] = True
        kept = cand[keep]
        if len(kept) == 0:
            continue
        n_kept = np.bincount(cand_group[keep], minlength=hi - lo)
        if stats is not None:
            stats.add(int(nm[n_kept > 0].sum()), int((nm * n_kept).sum()))
        # query-major (member, kept candidate) pairs, one BLAS product per group
        kept_start = np.cumsum(n_kept) - n_kept
        per_row = np.repeat(n_kept, nm)
        cand_of = kept[np.repeat(np.repeat(kept_start, nm), per_row) + _segment_offsets(per_row)]
        prod = np.empty(len(cand_of), dtype=np.float32)
        at = 0
        for m0, m1, c0, c1 in zip(ms.tolist(), (ms + nm).tolist(),
                                  kept_start.tolist(), (kept_start + n_kept).tolist()):
            if c0 == c1:
                continue
            product = qdesc[m0:m1] @ tdesc[kept[c0:c1]].T
            prod[at:at + product.size] = product.ravel()
            at += product.size
        block_members = slice(int(ms[0]), int(ms[-1] + nm[-1]))
        d2 = np.repeat(qnorm[block_members], per_row) + tnorm[cand_of]
        d2 -= 2.0 * prod
        np.maximum(d2, 0.0, out=d2)
        d2[band_dist(block_members, cand_of, per_row) > d] = np.inf
        dist, idx = _two_nearest(d2, (np.cumsum(per_row) - per_row)[per_row > 0])
        row, target, dd, rr = ratio_filter(dist, idx, ratio)
        parts.append((members[block_members][per_row > 0][row], cand_of[target], dd, rr))
    if not parts:
        return NO_MATCHES
    accepted = tuple(np.concatenate(column) for column in zip(*parts))
    return matches_from(accepted, query_ids=None, target_ids=ti)
