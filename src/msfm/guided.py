"""Geometry-guided feature matching near epipolar lines.

Candidates for a query feature are the target features within a band of
distance d around its epipolar line.  They are read from a ``BandIndex``
built once per target image: the target features sorted by (row strip, x)
and by (column strip, y), strips being ``STRIP_PX`` high.  A line reads the
strips that run along its flatter axis, one ``searchsorted`` interval per
strip its band crosses, so retrieval costs O(strips + |C'|) per line and
never samples the line.

Lines are normalized ``(n, 3)`` arrays of (a, b, c) with a*x + b*y + c = 0
throughout.  Queries whose epipolar lines cross the target image's two
sides across their flatter axis in the same d-wide buckets, d being the
band half-width, share one candidate set (``group_queries``), read around
the first member's line widened by a slack that covers every member's band.
A wider bucket means fewer, larger groups and products, and a wider read;
the matches are the same at any width.  ``guided_match_pair``
handles all groups of an image pair in flat array passes: it reads every
group's strips, filters every candidate to the exact band of each member's
own line and takes every member's two nearest neighbours at once.  Only
the descriptor product runs once per group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import SearchStats
from .features import FeatureSet
from .matching import NO_MATCHES, RATIO_GUIDED, Matches, matches_from, ratio_filter

BAND_D_PX = 8.0
# height of the band index's strips: a line reads one interval per strip its
# band crosses, and each interval reaches at most one strip height beyond
# the band; a power of two, so that a feature's strip is exact
STRIP_PX = 16.0

# guided matching handles a pair's groups in blocks of about this much work
# (candidates times members, plus two each), so that its flat arrays stay
# near 1 MB each whatever the image or group size; larger blocks raise the
# pipeline's peak RSS, smaller ones cost time per block
_BLOCK_WORK = 1 << 16


@dataclass(frozen=True, eq=False)
class BandIndex:
    """Target features sorted for band queries, built once per target image.

    Coordinates are taken from ``lo``, the least x and y of the features,
    so that they lie in the box [0, extent].  Row strip k holds the
    features with floor(y / STRIP_PX) = k, column strip k those with
    floor(x / STRIP_PX) = k; row strips are numbered 0 .. ``row_strips`` - 1
    and column strips after them.  Each feature is in ``keys`` twice,
    ascending: as strip * span + x in its row strip and strip * span + y in
    its column strip, with span > extent, so that the features of one strip
    with coordinate in [u, v] are one ``searchsorted`` interval.  ``ids``
    holds the feature of each key.  Keys are float32 and ids int32: 16 bytes
    per feature.  Rounding is monotone, so a query key rounded as the
    features' keys are never leaves out a feature it bounds; it may take in
    a neighbour, which the band filter removes.
    """

    lo: np.ndarray  # (2,)
    extent: np.ndarray  # (2,)
    row_strips: int
    span: float
    keys: np.ndarray
    ids: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.ids) // 2


def build_index(xy: np.ndarray) -> BandIndex:
    """Sort feature positions into the band index (once per target image)."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    lo = xy.min(axis=0) if len(xy) else np.zeros(2)
    local = xy - lo
    extent = local.max(axis=0) if len(xy) else np.zeros(2)
    span = float(extent.max()) + 1.0
    strip = np.floor(local / STRIP_PX)
    row_strips = int(extent[1] // STRIP_PX) + 1
    keys = np.concatenate([strip[:, 1] * span + local[:, 0],
                           (row_strips + strip[:, 0]) * span + local[:, 1]]).astype(np.float32)
    order = np.argsort(keys, kind="stable")
    return BandIndex(lo=lo, extent=extent, row_strips=row_strips, span=span,
                     keys=keys[order], ids=(order % max(len(xy), 1)).astype(np.int32))


def _segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """0, 1, .., n-1 for every segment length n, concatenated."""
    total = int(lengths.sum())
    return np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)


@dataclass(frozen=True, eq=False)
class QueryGroups:
    """Query features grouped by where their epipolar lines cross the target image's sides.

    Group g holds ``members[starts[g]:starts[g + 1]]`` (the last one runs to
    the end), in id order; ``member_lines`` holds the normalized epipolar
    line of every member, in member order.  A group's first member is its
    representative.
    """

    members: np.ndarray
    starts: np.ndarray
    member_lines: np.ndarray  # (members, 3)

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def lines(self) -> np.ndarray:
        """(groups, 3) lines of the representatives."""
        return self.member_lines[self.starts]

    def sizes(self) -> np.ndarray:
        """Members per group."""
        return np.diff(self.starts, append=len(self.members))


NO_GROUPS = QueryGroups(np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 3)))


def group_queries(query_fs: FeatureSet, F: np.ndarray,
                  bounds: tuple[float, float], d: float, *,
                  query_indices: np.ndarray | None = None) -> QueryGroups:
    """Partition query features by where their lines cross the target image's sides.

    A line with |a| <= |b| is keyed on its y at x = 0 and at x = width, any
    other line on its x at y = 0 and at y = height; each crossing is
    bucketed d wide, d being the band half-width, so two members of one
    group cross both sides within d of each other and a group's slack stays
    near d.  The width changes only how many products run and how much is
    read, never the matches.  Groups come in key order (the first kind of
    line first), members in id order.  Queries whose line has a near-zero
    normal (at the epipole) are left out.
    """
    qi = np.arange(len(query_fs)) if query_indices is None else np.asarray(query_indices)
    if len(qi) == 0:
        return NO_GROUPS
    hom = np.hstack([query_fs.xy[qi].astype(np.float64), np.ones((len(qi), 1))])
    lines = hom @ F.T
    norms = np.hypot(lines[:, 0], lines[:, 1])
    kept_rows = np.flatnonzero(norms > 1e-12)
    if len(kept_rows) == 0:
        return NO_GROUPS
    lines = lines[kept_rows] / norms[kept_rows, None]
    a, b, c = lines.T
    steep = np.abs(a) > np.abs(b)
    p, q = np.where(steep, b, a), np.where(steep, a, b)
    side = np.where(steep, bounds[1], bounds[0])
    cells = np.stack([steep, np.floor(-c / q / d), np.floor(-(c + p * side) / q / d)], axis=1)
    # sort by the key (first column primary), then by query id, so members
    # come out sorted; a group starts wherever any key column changes
    order = np.lexsort((qi[kept_rows], cells[:, 2], cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    changed = (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)
    starts = np.flatnonzero(np.concatenate([[True], changed]))
    return QueryGroups(members=qi[kept_rows[order]], starts=starts, member_lines=lines[order])


def _band_slices(index: BandIndex, lines: np.ndarray, w: np.ndarray):
    """Intervals of ``index.keys`` that hold every feature within w of each line.

    A line with |a| <= |b| runs along the rows and reads row strips, any
    other line column strips.  In the frame of its strips, u along them and
    v across, with the box's corner at 0, the line is p u + q v + c = 0 with
    |q| >= sqrt(1/2).  Its band spans v between the least and the greatest
    of -(c + p u) / q -+ w / |q| over u in [0, extent], clipped to the box;
    each strip that range crosses is read over the u of the band between the
    strip's edges (within that range), clipped to the box.  Returns (line,
    begin, end): one row per strip read, in line order.
    """
    a, b, c = lines.T
    flat = np.abs(a) <= np.abs(b)
    p, q = np.where(flat, a, b), np.where(flat, b, a)
    extent_u, extent_v = np.where(flat, index.extent[:, None], index.extent[::-1, None])
    c = c + a * index.lo[0] + b * index.lo[1]
    ends = [-(c + p * u) / q for u in (0.0, extent_u)]
    v0 = np.maximum(np.minimum(*ends) - w / np.abs(q), 0.0)
    v1 = np.minimum(np.maximum(*ends) + w / np.abs(q), extent_v)
    first = np.floor(v0 / STRIP_PX)
    n_strips = np.where(v0 <= v1, np.floor(v1 / STRIP_PX) - first + 1.0, 0.0).astype(np.int64)
    line = np.repeat(np.arange(len(lines)), n_strips)
    strip = first[line] + _segment_offsets(n_strips)
    p, c, w, extent_u = p[line], c[line], w[line], extent_u[line]
    v = np.clip(np.stack([strip, strip + 1.0]) * STRIP_PX, v0[line], v1[line])
    crossing = np.abs(p) > 1e-12  # else the line runs along the strip, end to end
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = -(c + q[line] * v) / p
        u0 = np.where(crossing, u.min(axis=0) - w / np.abs(p), 0.0)
        u1 = np.where(crossing, u.max(axis=0) + w / np.abs(p), extent_u)
    base = (strip + np.where(flat, 0, index.row_strips)[line]) * index.span
    begin = np.searchsorted(index.keys, (base + np.clip(u0, 0.0, extent_u)).astype(np.float32))
    end = np.searchsorted(index.keys, (base + np.clip(u1, 0.0, extent_u)).astype(np.float32),
                          side="right")
    return line, begin, end


def _gather(index: BandIndex, line: np.ndarray, begin: np.ndarray, end: np.ndarray):
    """(line, feature id) of every key in the intervals, sorted by line, then id.

    A feature is in at most one interval of a line: its strips differ.
    """
    lengths = np.maximum(end - begin, 0)
    ids = index.ids[np.arange(int(lengths.sum()))
                    + np.repeat(begin - (np.cumsum(lengths) - lengths), lengths)]
    n = index.n_features
    return np.divmod(np.sort(np.repeat(line, lengths) * n + ids), n)


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
                      index: BandIndex | None = None,
                      stats: SearchStats | None = None) -> Matches:
    """Match query features against target candidates near their epipolar lines.

    A group's candidates are the target features that ``index`` (default:
    one built over the target features) finds within d plus the group's
    slack of its representative's line.  The slack is the largest |m - r|
    over the index box's corners, for each member's line m turned to face
    the representative's line r: m - r is affine, so that bounds it over
    the whole box, and every feature within d of m lies within d plus the
    slack of r.  Candidates are post-filtered to the exact band of each
    member's own line, so every returned match satisfies dist <= d, and the
    result is what a scan of every member's band over all target features
    would give.  Groups run in blocks of flat arrays; only the descriptor
    product is taken group by group.
    """
    if len(target_fs) == 0:
        return NO_MATCHES
    bounds = (float(target_fs.width), float(target_fs.height))
    txy = target_fs.xy.astype(np.float64)
    if index is None:
        index = build_index(txy)

    groups = group_queries(query_fs, F, bounds, d, query_indices=query_indices)
    if not groups:
        return NO_MATCHES
    members, member_start, mlines = groups.members, groups.starts, groups.member_lines
    # float32 rows of the features that products may take: the members, in
    # member order, and the target features
    qdesc = query_fs.descriptors[members].astype(np.float32)
    qnorm = np.einsum("ij,ij->i", qdesc, qdesc)
    tdesc = target_fs.descriptors.astype(np.float32)
    tnorm = np.einsum("ij,ij->i", tdesc, tdesc)
    n_members = groups.sizes()

    line_a, line_b, line_c = np.ascontiguousarray(mlines.T)
    tx, ty = np.ascontiguousarray(txy.T)

    def band_dist(rows, cand, repeats=1):
        """|distance| of each candidate to the line of its member; members repeat."""
        a, b, c = (np.repeat(col[rows], repeats) for col in (line_a, line_b, line_c))
        return np.abs(a * tx[cand] + b * ty[cand] + c)

    # each group's slack; 1e-6 px covers rounding
    rep = mlines[np.repeat(member_start, n_members)]
    diff = np.where((mlines[:, :2] * rep[:, :2]).sum(axis=1, keepdims=True) < 0,
                    -mlines, mlines) - rep
    corners = np.array([[x, y, 1.0] for x in (0.0, index.extent[0])
                        for y in (0.0, index.extent[1])])
    corners[:, :2] += index.lo
    slack = np.maximum.reduceat(np.abs(diff @ corners.T).max(axis=1), member_start) + 1e-6

    # every group's strip intervals; a block's arrays grow with its
    # (member, candidate) pairs
    slice_group, begin, end = _band_slices(index, groups.lines, d + slack)
    n_read = np.bincount(slice_group, np.maximum(end - begin, 0),
                         minlength=len(groups)).astype(np.int64)
    work = (n_read + 2) * (n_members + 2)
    block_of = (np.cumsum(work) - work) // _BLOCK_WORK
    cuts = np.flatnonzero(np.diff(block_of, prepend=-1, append=block_of[-1] + 1)).tolist()
    slice_cuts = np.searchsorted(slice_group, cuts).tolist()
    parts = []
    for lo, hi, s0, s1 in zip(cuts[:-1], cuts[1:], slice_cuts[:-1], slice_cuts[1:]):
        nm = n_members[lo:hi]
        ms = member_start[lo:hi]
        cand_group, cand = _gather(index, slice_group[s0:s1] - lo, begin[s0:s1], end[s0:s1])
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
    return matches_from(accepted, query_ids=None, target_ids=np.arange(len(target_fs)))
