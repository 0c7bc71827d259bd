"""Wolfe's min-norm point of many vertex sets at once.

``profile.hull_distance`` finds the point of least norm in the convex hull
of one vertex set with Wolfe's corral method (Wolfe, "Finding the nearest
point in a polytope", Math. Programming 11, 1976): a major loop that adds
the vertex most opposed to the current point to the corral, and a minor
loop that solves for the affine minimizer of the corral and, while some
weight of it is not positive, moves back towards it and drops a vertex.
``min_norm_distances`` runs both loops over a stack of vertex sets of one
shape, operation for operation, so each problem's arithmetic is the single
call's.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 1000  # hull_distance's default max_iter: past it a problem is rerun there


def min_norm_distances(V: np.ndarray) -> tuple:
    """(distance, rerun) per problem of a C-contiguous (B, k, d) stack of
    vertex sets: the norm of each set's min-norm point, bit for bit as
    ``hull_distance`` computes it, or a rerun flag (with a 0.0 placeholder).

    Every live problem makes one major iteration per pass, so the major
    loop is one stacked numpy call per operation: ``matmul``, ``argmin``
    and ``solve`` on a stack call the same kernels per problem as on one
    problem. Corrals and their weights are kept padded to k columns, but
    every reduction, product and solve runs on the problems of one corral
    size, unpadded: padding would change the rounding of the sums and of
    the matrix-vector products. The minor loop shrinks a corral at every
    drop, so it is one pass over the corral sizes, largest first. A problem
    is flagged, for ``hull_distance`` to run from scratch, only when its
    stacked solve is singular (the single call falls back to ``lstsq``), a
    vertex is chosen twice, or ``MAX_ITER`` is reached: Wolfe's method is
    deterministic, so that run returns (or raises) what the single call
    does.
    """
    count, k = V.shape[:2]
    dist = np.zeros(count)
    rerun = np.zeros(count, dtype=bool)
    norms2 = np.einsum("bij,bij->bi", V, V)
    scale2 = norms2.max(axis=1)
    zero_tol = 1e-12 * (1.0 + np.sqrt(scale2))
    gap_tol = 1e-14 * np.maximum(scale2, 1e-300)
    live = rows = np.arange(count)  # the problems still in the loop; their positions
    corral = np.full((count, k), -1)  # vertex indices, -1 past the corral's size
    corral[:, 0] = np.argmin(norms2, axis=1)
    lam = np.zeros((count, k))  # corral weights, 0.0 past the corral's size
    lam[:, 0] = 1.0
    size = np.ones(count, dtype=np.intp)
    x = V[rows, corral[:, 0]]
    for _ in range(MAX_ITER):
        xx = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
        nrm = np.sqrt(xx)
        dots = np.matmul(V, x[:, :, None])[:, :, 0]
        s = np.argmin(dots, axis=1)
        zero = nrm <= zero_tol  # distance 0.0, already in place
        # xx - dots[s]: a tie of -0.0 and +0.0 in the min leaves it unchanged, as xx >= +0.0
        met = xx - dots.min(axis=1) <= gap_tol
        repeat = (corral == s[:, None]).any(axis=1)
        done = zero | met | repeat
        if done.any():
            met &= ~zero
            dist[live[met]] = nrm[met]
            rerun[live[repeat & ~(zero | met)]] = True
            if done.all():
                return dist, rerun
            go = ~done
            live, V, x, s, zero_tol, gap_tol = live[go], V[go], x[go], s[go], zero_tol[go], gap_tol[go]
            corral, lam, size, rows = corral[go], lam[go], size[go], rows[:len(live)]
        corral[rows, size] = s
        size += 1
        if _minor_loop(V, corral, lam, size, x):  # singular corrals are left at size 0
            singular = size == 0
            rerun[live[singular]] = True
            if singular.all():
                return dist, rerun
            go = ~singular
            live, V, x, zero_tol, gap_tol = live[go], V[go], x[go], zero_tol[go], gap_tol[go]
            corral, lam, size, rows = corral[go], lam[go], size[go], rows[:len(live)]
    rerun[live] = True
    return dist, rerun


def _minor_loop(V: np.ndarray, corral: np.ndarray, lam: np.ndarray, size: np.ndarray,
                x: np.ndarray) -> bool:
    """Run ``hull_distance``'s minor loop on every problem, updating its
    corral, weights, size and point in place; returns whether some stacked
    solve was singular, and sets the size of its problems to 0."""
    singular = False
    for m in range(int(size.max()), 1, -1):
        rows = np.flatnonzero(size == m)
        if not rows.size:
            continue
        # the affine minimizer of every corral, as profile._affine_minimizer solves it
        Vs = V[rows[:, None], corral[rows, :m]]
        A = np.ones((len(rows), m + 1, m + 1))
        A[:, :m, :m] = np.matmul(Vs, Vs.transpose(0, 2, 1))
        A[:, m, m] = 0.0
        b = np.zeros(m + 1)
        b[m] = 1.0
        try:
            mu = np.linalg.solve(A, b)[:, :m]
        except np.linalg.LinAlgError:  # some system is singular: rerun them all
            size[rows] = 0
            singular = True
            continue
        ok = np.all(mu > 1e-12, axis=1)
        lam[rows[ok], :m] = mu[ok]
        x[rows[ok]] = np.matmul(mu[ok, None, :], Vs[ok])[:, 0, :]
        if ok.all():
            continue
        rows, mu = rows[~ok], mu[~ok]
        at = np.arange(len(rows))  # row positions, for picking one entry per row
        old = lam[rows, :m]
        neg = mu <= 1e-12
        # theta per problem: the first least lam/(lam - mu) over its entries
        # with mu <= 1e-12, NaN first as np.argmin takes it, clamped to
        # [0, 1] as min(1.0, max(0.0, theta)) clamps a float
        thetas = np.full_like(old, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(old, old - mu, out=thetas, where=neg)
        pick = np.argmin(thetas, axis=1)
        # a row whose thetas are all +inf takes its first entry with mu <= 1e-12
        pick = np.where(neg[at, pick], pick, np.argmax(neg, axis=1))
        theta = thetas[at, pick]
        theta = np.where(theta > 0.0, theta, 0.0)
        theta = np.where(theta < 1.0, theta, 1.0)
        new = theta[:, None] * mu + (1.0 - theta)[:, None] * old
        keep = ~(new <= 1e-14)
        keep[at, pick] = False
        lost = np.flatnonzero(~keep.any(axis=1))
        keep[lost, np.argmax(new[lost], axis=1)] = True
        # the kept vertices first, in corral order, then the padding
        order = np.argsort(~keep, axis=1, kind="stable")
        left = np.count_nonzero(keep, axis=1)
        past = np.arange(m) >= left[:, None]
        corral[rows, :m] = np.where(past, -1, np.take_along_axis(corral[rows, :m], order, axis=1))
        lam[rows, :m] = np.where(past, 0.0, np.take_along_axis(new, order, axis=1))
        size[rows] = left
        for m2 in np.flatnonzero(np.bincount(left)).tolist():
            group = rows[left == m2]
            kept = lam[group, :m2]
            lam[group, :m2] = kept = kept / kept.sum(axis=1)[:, None]
            if m2 == 1:  # out of the minor loop, at x = lam @ V[corral]
                x[group] = np.matmul(kept[:, None, :], V[group[:, None], corral[group, :1]])[:, 0, :]
    return singular
