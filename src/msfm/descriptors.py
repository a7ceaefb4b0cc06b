"""Exact two-nearest-neighbour search over 128-dim descriptors.

Distances come from blocked BLAS products accumulated in f32; ties break
toward the lower index.  A block ranks each query's targets by tt - 2p (p
the products), since qq is constant along a row, and computes only the two
winners' distances, as (qq + tt) - 2p clamped at 0.  For uint8 descriptors
every term is an integer below 2^24, so the ranking is exactly that of the
distances; for float32 queries (localize's track means) a winner's distance
is the same float32 arithmetic as the whole matrix would give.
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
        rows = np.arange(len(qb))
        # rank by tt - 2p (qq is constant along a row) in a second array:
        # qq added to tt - 2p would round otherwise than (qq + tt) - 2p on
        # float32 means, so p is kept for the winners' distances
        p = qb @ t.T
        rank = np.multiply(p, -2.0)
        rank += tt
        winners = [np.argmin(rank, axis=1)]
        if nt > 1:
            rank[rows, winners[0]] = np.inf
            winners.append(np.argmin(rank, axis=1))
        sl = slice(start, start + len(qb))
        for k, j in enumerate(winners):
            # only the winners' distances, as (qq + tt) - 2p clamped at 0
            dist[sl, k] = np.sqrt(np.maximum((qq + tt[j]) - 2.0 * p[rows, j], 0.0))
            idx[sl, k] = j
        del p, rank  # before the next block makes its own
    return dist, idx
