"""Wolfe's min-norm point of many vertex sets at once.

The point of least norm in the convex hull of a vertex set is found with
Wolfe's corral method (Wolfe, "Finding the nearest point in a polytope",
Math. Programming 11, 1976): a major loop that adds the vertex most opposed
to the current point to the corral, and a minor loop that solves for the
affine minimizer of the corral and, while some weight of it is not
positive, moves back towards it and drops a vertex. ``min_norm_distances``
runs both loops over a stack of vertex sets of one shape, operation for
operation, so each problem's arithmetic is that of a loop over one problem
(kept in the tests as ``oracle_hull_distance``). It is the one
implementation: ``profile.hull_distance`` is one call on a stack of one,
and the hull check calls it on the stacks of many steps.
"""

from __future__ import annotations

import numpy as np

MAX_ITER = 1000  # major iterations before a problem takes the final verdict
ATOL = 1e-9  # a stalled problem is accepted when its gap is at most ATOL * (norm + ATOL)


def min_norm_distances(V: np.ndarray, max_iter: int = MAX_ITER) -> tuple:
    """(distance, failed) of a C-contiguous (B, k, d) stack of vertex sets:
    the norm of each set's min-norm point, and a dict that maps each problem
    that did not converge to its gap bound (its distance then holds the
    best norm found).

    A problem ends when its point is within 1e-12 (relative) of the origin,
    giving 0.0, or when its duality gap is at most 1e-14 of its largest
    squared vertex norm. It stalls when the major loop picks a vertex that
    is already in its corral, or after ``max_iter`` major iterations; a
    stalled problem is accepted if its gap is at most ``ATOL * (norm +
    ATOL)`` and fails otherwise.

    Every live problem makes one major iteration per pass, so the major
    loop is one stacked numpy call per operation: ``matmul``, ``argmin``
    and ``solve`` on a stack call the same kernels per problem as on one
    problem. Corrals and their weights are kept padded to k columns, but
    every reduction, product and solve runs on the problems of one corral
    size, unpadded: padding would change the rounding of the sums and of
    the matrix-vector products. The minor loop shrinks a corral at every
    drop, so it is one pass over the corral sizes, largest first.
    """
    count, k = V.shape[:2]
    dist = np.zeros(count)
    failed = {}
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
    for it in range(max_iter + 1):
        xx = np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]
        nrm = np.sqrt(xx)
        dots = np.matmul(V, x[:, :, None])[:, :, 0]
        s = np.argmin(dots, axis=1)
        # xx - dots[s]: a tie of -0.0 and +0.0 in the min leaves it unchanged, as xx >= +0.0
        gap = xx - dots.min(axis=1)
        zero = nrm <= zero_tol  # distance 0.0, already in place
        if it < max_iter:
            met = ~zero & (gap <= gap_tol)
            stalled = ~(zero | met) & (corral == s[:, None]).any(axis=1)
        else:  # the cap: every problem left takes the final verdict
            met, stalled = np.zeros_like(zero), ~zero
        done = zero | met | stalled
        if done.any():
            ends = met | stalled
            dist[live[ends]] = nrm[ends]
            for b in np.flatnonzero(stalled & ~(gap <= ATOL * (nrm + ATOL))).tolist():
                failed[int(live[b])] = float(gap[b])
            if done.all():
                break
            go = ~done
            live, V, x, s, zero_tol, gap_tol = live[go], V[go], x[go], s[go], zero_tol[go], gap_tol[go]
            corral, lam, size, rows = corral[go], lam[go], size[go], rows[:len(live)]
        corral[rows, size] = s
        size += 1
        _minor_loop(V, corral, lam, size, x)
    return dist, failed


def _affine_minimizers(A: np.ndarray, m: int) -> np.ndarray:
    """Weights mu (summing to 1, sign-free) minimizing the norm of each
    corral's affine combination, from the stack ``A`` of its bordered Gram
    systems: one stacked solve, or, when some system is singular, one
    ``solve`` per problem with ``lstsq`` for the singular ones."""
    b = np.zeros(m + 1)
    b[m] = 1.0
    try:
        return np.linalg.solve(A, b)[:, :m]
    except np.linalg.LinAlgError:
        pass
    mu = np.empty((len(A), m))
    for r, a in enumerate(A):
        try:
            mu[r] = np.linalg.solve(a, b)[:m]
        except np.linalg.LinAlgError:
            mu[r] = np.linalg.lstsq(a, b, rcond=None)[0][:m]
    return mu


def _minor_loop(V: np.ndarray, corral: np.ndarray, lam: np.ndarray, size: np.ndarray,
                x: np.ndarray) -> None:
    """Run Wolfe's minor loop on every problem, updating its corral,
    weights, size and point in place."""
    for m in range(int(size.max()), 1, -1):
        rows = np.flatnonzero(size == m)
        if not rows.size:
            continue
        Vs = V[rows[:, None], corral[rows, :m]]
        A = np.ones((len(rows), m + 1, m + 1))
        A[:, :m, :m] = np.matmul(Vs, Vs.transpose(0, 2, 1))
        A[:, m, m] = 0.0
        mu = _affine_minimizers(A, m)
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
