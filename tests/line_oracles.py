"""Per-line reference implementations of the epipolar-line helpers.

``msfm.guided`` handles lines as ``(n, 3)`` arrays in flat passes.  The
functions here do the same work one line (or one cell) at a time, in plain
Python where it reads best; the tests compare the array code against them.
"""

from dataclasses import dataclass

import numpy as np

from msfm.errors import DegenerateGeometryError
from msfm.geometry import EpipolarLine
from msfm.guided import GROUP_BOUNDARY_PX, _candidates_batch

OFFSETS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def epipolar_line(F: np.ndarray, p) -> EpipolarLine:
    """Map a query-image pixel to its target-image epipolar line."""
    x, y = float(p[0]), float(p[1])
    l = F @ np.array([x, y, 1.0])
    n = float(np.hypot(l[0], l[1]))
    if n < 1e-9 * max(1.0, np.hypot(x, y)):
        raise DegenerateGeometryError(f"point ({x}, {y}) is the epipole")
    l = l / n
    return EpipolarLine(float(l[0]), float(l[1]), float(l[2]))


def point_line_distance(p, line: EpipolarLine) -> float:
    """Unsigned pixel distance from a point to a line."""
    n = np.hypot(line.a, line.b)
    if n == 0.0:
        raise DegenerateGeometryError("line has a = b = 0")
    return abs(line.a * float(p[0]) + line.b * float(p[1]) + line.c) / n


def clip_line_to_bounds(line: EpipolarLine, width: float, height: float, *,
                        pad: float = 0.0):
    """Intersections of a line with the image rectangle [0,w] x [0,h].

    ``pad`` expands the rectangle outward on all sides.  Returns (p_A, p_B),
    ordered lexicographically, or None when the line misses the rectangle.
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


def cell_indices(grid, xy: np.ndarray) -> np.ndarray:
    """(n, 4, 2) integer cell index of each point in each offset grid.

    Grid g has cells of size 2 ``grid.d``, offset by ``OFFSETS[g] * grid.d``.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    shifted = xy[:, None, :] - OFFSETS[None, :, :] * grid.d
    return np.floor(shifted / (2.0 * grid.d)).astype(np.int64)


def encode(idx: np.ndarray) -> np.ndarray:
    """One int64 per (..., 2) cell index; indices lie within +-2^20."""
    return (idx[..., 0] + (1 << 20)) * (1 << 21) + (idx[..., 1] + (1 << 20))


def reference_grid_table(grid, xy: np.ndarray):
    """(starts, members) of ``grid``'s half-cell table over ``xy``, via ``np.unique``.

    Half-cell (floor(x / D), floor(y / D)) sits at column and row
    ``index + 3`` of a ``grid.columns`` x ``grid.rows`` table; features
    beyond it are left out.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    half = np.floor(xy / grid.d).astype(np.int64) + 3
    inside = np.flatnonzero(((half >= 0) & (half < [grid.columns, grid.rows])).all(axis=1))
    cells = half[inside, 0] * grid.rows + half[inside, 1]
    counts = np.zeros(grid.columns * grid.rows, dtype=np.int64)
    uniq, n = np.unique(cells, return_counts=True)
    counts[uniq] = n
    return np.concatenate([[0], np.cumsum(counts)]), inside[np.lexsort((inside, cells))]


def reference_candidates_grid(grid, xy: np.ndarray, line: EpipolarLine, d: float) -> np.ndarray:
    """Grid candidates of one line, brute force from the feature positions:
    the features that share a cell of any of the four offset grids with any
    sample of the line.  Reads ``grid``'s geometry, not its table."""
    samples = equidistant_line_points(line, (grid.width, grid.height), d, pad=d)
    if len(samples) == 0 or len(xy) == 0:
        return np.array([], dtype=np.int64)
    features, at = cell_indices(grid, xy), cell_indices(grid, samples)
    shared = np.zeros(len(features), dtype=bool)
    for g in range(4):
        shared |= np.isin(encode(features[:, g]), encode(at[:, g]))
    return np.flatnonzero(shared)


@dataclass
class QueryGroup:
    """Query features whose epipolar lines pierce the target boundary together."""

    representative_line: EpipolarLine
    member_features: np.ndarray


def reference_group_queries(query_fs, F: np.ndarray, bounds, *,
                            query_indices=None) -> list[QueryGroup]:
    """``group_queries`` as a list of groups, each query clipped on its own.

    Groups come in order of their (p_A, p_B) buckets, members in id order;
    the representative is the first member.
    """
    qi = np.arange(len(query_fs)) if query_indices is None else np.asarray(query_indices)
    if len(qi) == 0:
        return []
    hom = np.hstack([query_fs.xy[qi].astype(np.float64), np.ones((len(qi), 1))])
    lines = hom @ F.T
    norms = np.hypot(lines[:, 0], lines[:, 1])
    ok = norms > 1e-12
    lines[ok] /= norms[ok, None]
    buckets = {}
    for row in np.flatnonzero(ok).tolist():
        clipped = clip_line_to_bounds(EpipolarLine(*lines[row].tolist()), *bounds)
        if clipped is None:
            continue
        key = tuple(np.floor(np.concatenate(clipped) / GROUP_BOUNDARY_PX).astype(int).tolist())
        buckets.setdefault(key, []).append(row)
    groups = []
    for key in sorted(buckets):
        rows = sorted(buckets[key], key=lambda r: qi[r])
        groups.append(QueryGroup(representative_line=EpipolarLine(*lines[rows[0]].tolist()),
                                 member_features=qi[rows]))
    return groups


def candidates_grid(grid, line: EpipolarLine, d: float) -> np.ndarray:
    """Band query of one line via the grid cells of its samples, as a batch
    of one for ``_candidates_batch``.

    The result also holds features outside the band; callers filter it to
    the exact band.
    """
    return _candidates_batch(grid, np.array([[line.a, line.b, line.c]]), d)[1]
