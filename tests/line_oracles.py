"""Per-line reference implementations of the epipolar-line helpers.

``msfm.guided`` handles lines as ``(n, 3)`` arrays in flat passes.  The
functions here do the same work one line at a time, in plain Python where
it reads best; the tests compare the array code against them.
"""

import math
from dataclasses import dataclass

import numpy as np

from msfm.errors import DegenerateGeometryError
from msfm.guided import _band_slices, _gather


@dataclass(frozen=True)
class EpipolarLine:
    """Line a*x + b*y + c = 0 with (a, b) unit length."""

    a: float
    b: float
    c: float


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


def clip_line_to_bounds(line: EpipolarLine, width: float, height: float):
    """Intersections of a line with the image rectangle [0,w] x [0,h].

    Returns (p_A, p_B), ordered lexicographically, or None when the line
    misses the rectangle.
    """
    a, b, c = line.a, line.b, line.c
    x0, x1 = 0.0, width
    y0, y1 = 0.0, height
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


def candidates_linear(xy: np.ndarray, line: EpipolarLine, d: float) -> np.ndarray:
    """Exact band query: indices of features within distance d of the line."""
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    dist = np.abs(xy @ np.array([line.a, line.b]) + line.c)
    return np.flatnonzero(dist <= d)


def band_slices(index, lines: np.ndarray, w):
    """``_band_slices`` of (n, 3) lines at one half-width or one per line."""
    lines = np.asarray(lines, dtype=np.float64).reshape(-1, 3)
    return _band_slices(index, lines, np.broadcast_to(np.asarray(w, dtype=np.float64),
                                                      len(lines)))


def band_candidates(index, lines: np.ndarray, w):
    """(line, feature id) of every feature the index reads for each line."""
    return _gather(index, *band_slices(index, lines, w))


def candidates_index(index, line: EpipolarLine, d: float) -> np.ndarray:
    """Band query of one line via the band index, as a batch of one.

    The result also holds features outside the band; callers filter it to
    the exact band.
    """
    return band_candidates(index, [line.a, line.b, line.c], d)[1]


@dataclass
class QueryGroup:
    """Query features whose epipolar lines cross the target image's sides together."""

    representative_line: EpipolarLine
    member_features: np.ndarray


def side_crossings(line: EpipolarLine, width: float, height: float):
    """(steep, s0, s1): where a line crosses the two sides across its flatter axis.

    A line with |a| <= |b| is not steep, and s0 and s1 are its y at x = 0
    and x = width; a steep one gives its x at y = 0 and y = height.
    """
    steep = abs(line.a) > abs(line.b)
    p, q, side = (line.b, line.a, height) if steep else (line.a, line.b, width)
    return steep, -line.c / q, -(line.c + p * side) / q


def reference_group_queries(query_fs, F: np.ndarray, bounds, d: float, *,
                            query_indices=None) -> list[QueryGroup]:
    """``group_queries`` as a list of groups, each query keyed on its own.

    Groups come in order of their (steep, s0, s1) buckets, each crossing
    bucketed d wide, members in id order; the representative is the first
    member.
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
        steep, s0, s1 = side_crossings(EpipolarLine(*lines[row].tolist()), *bounds)
        key = (steep, math.floor(s0 / d), math.floor(s1 / d))
        buckets.setdefault(key, []).append(row)
    groups = []
    for key in sorted(buckets):
        rows = sorted(buckets[key], key=lambda r: qi[r])
        groups.append(QueryGroup(representative_line=EpipolarLine(*lines[rows[0]].tolist()),
                                 member_features=qi[rows]))
    return groups
