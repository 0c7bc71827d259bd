"""Wolfe's min-norm point of many vertex sets at once.

``profile.hull_distance`` finds the point of least norm in the convex hull
of one vertex set with Wolfe's corral method (Wolfe, "Finding the nearest
point in a polytope", Math. Programming 11, 1976). ``lockstep_min_norm``
runs the same major loop over a stack of vertex sets of one shape,
operation for operation, so each problem's arithmetic is the single call's.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 1000  # hull_distance's default max_iter: past it a problem is rerun there


def lockstep_min_norm(V: np.ndarray) -> tuple:
    """(distance, rerun) per problem of a C-contiguous (B, k, d) stack of
    vertex sets: the norm of each set's min-norm point, bit for bit as
    ``hull_distance`` computes it, or a rerun flag (with a 0.0 placeholder).

    While no vertex is dropped, every corral grows by one vertex per
    iteration, so all corrals of the stack keep one size and each operation
    is one stacked numpy call: ``matmul``, ``argmin`` and ``solve`` on a
    stack call the same kernels per problem as on one problem. Stacks are
    not padded to a common k, which would change the rounding of the
    matrix-vector products. A problem that leaves this path (the minor loop
    drops a vertex, a vertex is chosen twice, a system is singular, or
    ``MAX_ITER`` is reached) is flagged, for ``hull_distance`` to run from
    scratch: Wolfe's method is deterministic, so that run returns (or
    raises) what the single call does.
    """
    dist = np.zeros(V.shape[0])
    rerun = np.zeros(V.shape[0], dtype=bool)
    norms2 = np.einsum("bij,bij->bi", V, V)
    scale2 = norms2.max(axis=1)
    zero_tol = 1e-12 * (1.0 + np.sqrt(scale2))
    gap_tol = 1e-14 * np.maximum(scale2, 1e-300)
    live = np.arange(V.shape[0])  # the problems still in the loop
    corral = np.argmin(norms2, axis=1)[:, None]
    x = V[live, corral[:, 0]]
    for _ in range(MAX_ITER):
        xx = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
        nrm = np.sqrt(xx)
        dots = np.matmul(V, x[:, :, None])[:, :, 0]
        s = np.argmin(dots, axis=1)
        gap = xx - dots[np.arange(len(s)), s]
        zero = nrm <= zero_tol[live]  # distance 0.0, already in place
        met = ~zero & (gap <= gap_tol[live])
        dist[live[met]] = nrm[met]
        repeat = ~(zero | met) & (corral == s[:, None]).any(axis=1)
        rerun[live[repeat]] = True
        go = ~(zero | met | repeat)
        if not go.any():
            return dist, rerun
        live, V, corral = live[go], V[go], np.concatenate([corral[go], s[go, None]], axis=1)
        # the affine minimizer of every corral, as profile._affine_minimizer solves it
        Vs = V[np.arange(len(live))[:, None], corral]
        m = corral.shape[1]
        A = np.zeros((len(live), m + 1, m + 1))
        A[:, :m, :m] = np.matmul(Vs, Vs.transpose(0, 2, 1))
        A[:, :m, m] = A[:, m, :m] = 1.0
        b = np.zeros((len(live), m + 1, 1))
        b[:, m] = 1.0
        try:
            mu = np.linalg.solve(A, b)[:, :m, 0]
        except np.linalg.LinAlgError:  # some system is singular: rerun them all
            rerun[live] = True
            return dist, rerun
        kept = np.all(mu > 1e-12, axis=1)
        rerun[live[~kept]] = True
        if not kept.any():
            return dist, rerun
        live, V, corral = live[kept], V[kept], corral[kept]
        x = np.matmul(mu[kept, None, :], Vs[kept])[:, 0, :]
    rerun[live] = True
    return dist, rerun
