"""The 2-NN search as it was before ``two_nearest_bruteforce`` ranked by
tt - 2p: each block forms the whole (qq + tt) - 2p, clamps it at 0 and
takes two ``argmin``s over it.  The tests require equal results from both.
"""

import numpy as np

_QUERY_BLOCK = 512


def two_nearest_bruteforce(queries: np.ndarray, targets: np.ndarray):
    """Exact top-2 neighbours by L2 distance, f32 accumulation: (dist, idx)."""
    q = np.ascontiguousarray(queries, dtype=np.float32)
    t = np.ascontiguousarray(targets, dtype=np.float32)
    nq, nt = len(q), len(t)
    dist = np.full((nq, 2), np.inf)
    idx = np.full((nq, 2), -1, dtype=np.int64)
    if nq == 0 or nt == 0:
        return dist, idx
    tt = np.einsum("ij,ij->i", t, t)
    for start in range(0, nq, _QUERY_BLOCK):
        qb = q[start:start + _QUERY_BLOCK]
        qq = np.einsum("ij,ij->i", qb, qb)
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
        sl = slice(start, start + len(qb))
        dist[sl, 0] = np.sqrt(best_d2)
        dist[sl, 1] = np.sqrt(second_d2)
        idx[sl, 0] = best
        idx[sl, 1] = second
    return dist, idx
