"""Exact two-nearest-neighbour search over 128-dim descriptors.

Distances come from blocked BLAS distance matrices accumulated in f32; ties
break toward the lower index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_QUERY_BLOCK = 512


@dataclass
class SearchStats:
    """Running counters for matching cost accounting."""

    queries: int = 0
    candidates: int = 0  # descriptor comparisons actually performed

    def add(self, queries: int, candidates: int) -> None:
        self.queries += queries
        self.candidates += candidates


def two_nearest_bruteforce(queries: np.ndarray, targets: np.ndarray,
                           stats: SearchStats | None = None):
    """Exact top-2 neighbours by L2 distance, f32 accumulation.

    Returns (dist, idx), both (n, 2); with a single target the second column
    is +inf / -1.
    """
    q = np.ascontiguousarray(queries, dtype=np.float32)
    t = np.ascontiguousarray(targets, dtype=np.float32)
    nq, nt = len(q), len(t)
    if stats is not None:
        stats.add(nq, nq * nt)
    dist = np.full((nq, 2), np.inf)
    idx = np.full((nq, 2), -1, dtype=np.int64)
    if nq == 0 or nt == 0:
        return dist, idx
    tt = np.einsum("ij,ij->i", t, t)
    for start in range(0, nq, _QUERY_BLOCK):
        qb = q[start:start + _QUERY_BLOCK]
        qq = np.einsum("ij,ij->i", qb, qb)
        # (qq + tt) - 2 p, in that order, in two (block, n) arrays
        p = qb @ t.T
        p *= 2.0
        d2 = np.add.outer(qq, tt)
        d2 -= p
        np.maximum(d2, 0.0, out=d2)
        best = np.argmin(d2, axis=1)
        rows = np.arange(len(qb))
        best_d2 = d2[rows, best].copy()
        d2[rows, best] = np.inf
        if nt > 1:
            second = np.argmin(d2, axis=1)
            second_d2 = d2[rows, second]
        else:
            second = np.full(len(qb), -1, dtype=np.int64)
            second_d2 = np.full(len(qb), np.inf)
        del p, d2  # before the next block makes its own
        sl = slice(start, start + len(qb))
        dist[sl, 0] = np.sqrt(best_d2)
        dist[sl, 1] = np.sqrt(second_d2)
        idx[sl, 0] = best
        idx[sl, 1] = second
    return dist, idx
