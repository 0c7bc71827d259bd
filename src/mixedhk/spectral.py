"""Graph Laplacian machinery for the update operator I - B(t).

Provides the Laplacian and generalized-Laplacian predicate, a dense cyclic
Jacobi eigensolver (desk scale, n <= 64) that rotates one symmetric row pair
of Python floats at a time, with ``eigh`` for the full eigensystem and
``eigvalsh`` for eigenvalues alone, exact Cheeger constants (n <= 16)
by an exhaustive search that builds every subset's boundary from a smaller
subset's (subset doubling), the factorization of the update operator through
the Laplacian, and the numerically checked eigenvalue chain that powers the
displacement lower bound: for a connected profile with all stubbornness
below one,

    lambda_2((I-B)'(I-B)) >= ((1 - max alpha) / n)^2 * lambda_2(L)^2

and lambda_2(L) is sandwiched by the Cheeger constant, 2 i(G) >= lambda_2 >=
i(G)^2 / (2 max_degree), which for connected graphs keeps it above 2/n^3.
``check_cheeger`` and ``lambda2_chain_check`` return their verdicts as the
JSON-ready dicts that ``mixed-hk spectral`` prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_alpha, averaging_matrix
from .errors import NumericalFailure, SizeLimitError
from .profile import Profile

CHEEGER_MAX_N = 16
EIGH_MAX_N = 64
CHAIN_SAMPLES = 1000  # random unit vectors of the chain's variational check


def laplacian(profile: Profile) -> np.ndarray:
    """Combinatorial Laplacian: degrees on the diagonal, -1 on edges."""
    return np.diag(profile.degrees - 1.0) - profile.adjacency()


def is_generalized_laplacian(M: np.ndarray, profile: Profile) -> bool:
    """True iff M is symmetric with off-diagonal entries exactly 0 off edges
    and strictly negative on edges. The diagonal is unconstrained."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (profile.n, profile.n):
        raise ValueError(f"matrix shape {M.shape} does not match n={profile.n}")
    if float(np.abs(M - M.T).max(initial=0.0)) > 1e-12:
        raise ValueError("matrix must be symmetric within 1e-12")
    # symmetry holds within 1e-12, so the strict upper triangle decides
    edges = np.triu(profile.mask, 1)
    gaps = np.triu(~profile.mask, 1)
    return bool(np.all(M[edges] < 0.0) and np.all(M[gaps] == 0.0))


def _jacobi(M: np.ndarray, max_sweeps: int, vectors: bool):
    """Validate M and diagonalize it by cyclic Jacobi rotations.

    Returns the diagonal left by the last sweep, unsorted, and the rotated
    basis as rows of V' when ``vectors`` is set (None otherwise). A sits in
    a flat row-major list of Python floats, and each rotation is one pass
    over a row pair mirrored into the two columns. That gives the bits of
    the column pass followed by the row pass: A is bitwise symmetric
    ((A + A')/2 is, since addition commutes, and a rotation keeps it so), so
    off the 2 x 2 block both passes read the same operands, and Python
    floats round each product and each difference once, as numpy's ufuncs
    do. Only the block needs the two-step form. V needs the column pass
    alone, which on rows of V' is one pass over a row pair.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    n = A.shape[0]
    if n > EIGH_MAX_N:
        raise SizeLimitError(f"dense Jacobi solver capped at n <= {EIGH_MAX_N}, got {n}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    scale = float(np.abs(A).max(initial=0.0))
    if float(np.abs(A - A.T).max(initial=0.0)) > 1e-10 * max(scale, 1.0):
        raise ValueError("matrix must be symmetric within 1e-10")
    A = (A + A.T) / 2.0
    if n == 1:
        return np.array([A[0, 0]]), np.eye(1)
    fro = float(np.sqrt((A * A).sum()))
    if fro == 0.0:
        return np.zeros(n), np.eye(n)

    a = A.ravel().tolist()  # row k is also column k
    vt = np.eye(n).tolist() if vectors else None
    for _ in range(max_sweeps):
        A = np.array(a).reshape(n, n)
        off = A - np.diag(np.diag(A))
        off_norm = float(np.sqrt((off * off).sum()))
        if off_norm <= 1e-14 * fro:
            break
        skip = off_norm / (n * n) * 1e-4
        for p in range(n - 1):
            row_p = a[p * n:p * n + n]
            for q in range(p + 1, n):
                apq = row_p[q]
                if abs(apq) <= skip:
                    continue
                row_q = a[q * n:q * n + n]
                app, aqq = row_p[p], row_q[q]
                # apq != 0 here; Python floats overflow to inf like numpy's
                theta = (aqq - app) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                # the block's row pass reads the column pass's results
                new_p[p] = c * (c * app - s * apq) - s * (c * apq - s * aqq)
                new_q[q] = s * (s * app + c * apq) + c * (s * apq + c * aqq)
                new_p[q] = new_q[p] = 0.0
                a[p * n:p * n + n] = a[p::n] = new_p
                a[q * n:q * n + n] = a[q::n] = new_q
                row_p = new_p
                if vt is not None:
                    vp, vq = vt[p], vt[q]
                    vt[p] = [c * x - s * y for x, y in zip(vp, vq)]
                    vt[q] = [s * x + c * y for x, y in zip(vp, vq)]
    else:
        raise NumericalFailure(
            f"Jacobi sweep limit {max_sweeps} reached with off-diagonal norm {off_norm}",
            best=np.sort(a[::n + 1]),
            gap=off_norm,
        )
    return np.array(a[::n + 1]), vt


def eigh(M: np.ndarray, *, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns, orthonormal). Signs
    are canonicalized so each eigenvector's largest-magnitude entry is
    positive, which makes positivity assertions deterministic. Intended for
    desk-scale matrices (n <= 64). Raises ValueError for a NaN or infinite
    entry, and NumericalFailure if the off-diagonal mass does not vanish
    within ``max_sweeps`` sweeps. Each rotation updates the row pair (p, q)
    of A and of V' in Python floats; the result has the bits of rotating
    the columns and then the rows of numpy arrays.
    """
    w, vt = _jacobi(M, max_sweeps, vectors=True)
    order = np.argsort(w, kind="stable")
    V = np.array(vt).T[:, order]
    for k in range(len(w)):
        col = V[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            V[:, k] = -col
    return w[order], V


def eigvalsh(M: np.ndarray, *, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending: ``eigh(M)[0]`` bit for
    bit, from the same rotations without accumulating eigenvectors. Raises
    as ``eigh`` does."""
    w, _ = _jacobi(M, max_sweeps, vectors=False)
    return np.sort(w, kind="stable")


def cheeger_constant(profile: Profile) -> float:
    """Exact isoperimetric constant by exhaustive subset enumeration.

    i(G) = min |boundary(S)| / |S| over nonempty S with |S| <= n/2. Capped at
    n <= 16 (2^16 subsets); beyond that a SizeLimitError tells callers to
    skip the check. For n = 1 there is no admissible subset and the minimum
    over the empty family is +inf.

    The subsets are built by doubling: entry S of ``boundary`` and ``pop``
    is the subset with bitmask S, and adding vertex v to every S over
    vertices below v gives

        boundary(S + v) = boundary(S) + deg(v) - 2 |N(v) & S|

    with |N(v) & S| read as pop[S & N(v)]. Every entry stays a nonnegative
    uint32, because boundary(S) and deg(v) both count N(v) & S.
    """
    n = profile.n
    if n > CHEEGER_MAX_N:
        raise SizeLimitError(
            f"exhaustive Cheeger search capped at n <= {CHEEGER_MAX_N} (got {n}); "
            "skip this check for larger graphs"
        )
    if n == 1:
        return float("inf")
    bits = np.uint32(1) << np.arange(n, dtype=np.uint32)
    nbmask = (profile.mask * bits).sum(axis=1, dtype=np.uint32)
    masks = np.arange(1 << (n - 1), dtype=np.uint32)
    boundary = np.zeros(1, dtype=np.uint32)
    pop = np.zeros(1, dtype=np.uint32)
    for v in range(n):
        inside = pop[masks[:1 << v] & nbmask[v]]
        boundary = np.concatenate((boundary, boundary + int(profile.degrees[v] - 1) - 2 * inside))
        pop = np.concatenate((pop, pop + 1))
    boundary, pop = boundary[1:], pop[1:]  # drop the empty set
    valid = 2 * pop <= n
    return float((boundary[valid] / pop[valid]).min())


def check_cheeger(profile: Profile) -> dict:
    """Eigen-decompose the Laplacian and verify the Cheeger sandwich; returns
    the report that ``mixed-hk spectral`` prints before its operator checks.

    The report holds ``n``, the Laplacian's ascending ``eigenvalues``,
    ``lambda2`` (None for n = 1), the Cheeger constant ``cheeger`` (None
    where it is infinite, for n = 1), ``max_degree``, ``verdicts`` and
    ``notes``. Verdicts (each with 1e-9 slack): ``cheeger_upper``
    2 i(G) >= lambda_2, ``cheeger_lower`` lambda_2 >= i(G)^2 / (2 max_degree),
    and ``connectivity_gap`` lambda_2 > 2/n^3 for connected graphs (vacuous
    for disconnected ones, noted for n in {1, 2} where the chain is boundary).
    """
    return _cheeger_report(profile, eigvalsh(laplacian(profile)))


def _cheeger_report(profile: Profile, w: np.ndarray) -> dict:
    """``check_cheeger``'s report, from the Laplacian's ascending eigenvalues ``w``."""
    n = profile.n
    i_g = cheeger_constant(profile)
    max_deg = int(profile.degrees.max()) - 1
    if n == 1:
        lam2 = None
        verdicts = {"cheeger_upper": True, "cheeger_lower": True, "connectivity_gap": True}
        notes = ["n=1: no admissible cut subset; sandwich vacuous"]
    else:
        notes = []
        lam2 = float(w[1])
        upper = 2.0 * i_g >= lam2 - 1e-9
        lower = lam2 >= (i_g * i_g) / (2.0 * max_deg) - 1e-9 if max_deg > 0 else lam2 >= -1e-9
        if profile.is_connected():
            gap = lam2 > 2.0 / n**3 - 1e-9
            if n == 2:
                notes.append("n=2: i(G) = 2/n exactly; gap bound asserted with slack only")
        else:
            gap = True
            notes.append("disconnected profile: connectivity gap not applicable")
        verdicts = {"cheeger_upper": bool(upper), "cheeger_lower": bool(lower),
                    "connectivity_gap": bool(gap)}
    return {"n": n, "eigenvalues": w.tolist(), "lambda2": lam2,
            "cheeger": i_g if math.isfinite(i_g) else None, "max_degree": max_deg,
            "verdicts": verdicts, "notes": notes}


@dataclass
class UpdateFactorization:
    """I - B(t) split into stubbornness, degree, and Laplacian factors."""

    I_minus_B: np.ndarray
    stubborn_factor: np.ndarray  # diagonal entries 1 - alpha_i
    degree_factor: np.ndarray  # diagonal entries 1 / (1 + degree_i)
    laplacian: np.ndarray
    residual: float


def update_factorization(profile: Profile, alpha: np.ndarray) -> UpdateFactorization:
    """Verify I - B = (I - diag(alpha)) (I + D)^(-1) L for one step operator.

    B is assembled from the profile's averaging matrix (``build_profile``
    gives the profile of a state). Requires every alpha_i in [0, 1), as
    ``step`` checks it (ConfigError otherwise), and below 1 so the
    stubbornness factor is invertible (ValueError). The identity is exact algebra; the
    reported residual only measures rounding (<= 1e-12 on any desk-scale
    input).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (profile.n,):
        raise ValueError(f"alpha has shape {alpha.shape}, expected ({profile.n},)")
    _check_alpha(alpha)
    if (alpha >= 1.0).any():
        raise ValueError("update_factorization requires every alpha_i < 1 "
                         "(stubbornness factor must be invertible)")
    n = profile.n
    stub = np.diag(1.0 - alpha)
    deg_inv = np.diag(1.0 / profile.degrees)  # 1 / (1 + degree_i)
    L = laplacian(profile)
    B = np.diag(alpha) + stub @ averaging_matrix(profile.mask)
    I_minus_B = np.eye(n) - B
    product = stub @ deg_inv @ L
    residual = float(np.abs(I_minus_B - product).max())
    return UpdateFactorization(I_minus_B, stub, deg_inv, L, residual)


def lambda2_chain_check(profile: Profile, alpha: np.ndarray, *, samples: int = CHAIN_SAMPLES,
                        seed: int = 0) -> dict:
    """Numerically verify the eigenvalue chain behind the displacement bound.

    For a connected profile with all alpha_i < 1 and Q = I - B:
      zero_simple       0 is a simple eigenvalue of Q'Q with eigenvector 1.
      chain_bound       lambda_2(Q'Q) >= ((1 - max alpha)/n)^2 lambda_2(L)^2.
      perron_frobenius  the Laplacian's smallest eigenvalue is simple and its
                        eigenvector is all-positive after sign fixing.
      variational       x'Q'Qx >= lambda_2(Q'Q) - 1e-9 for ``samples`` random
                        unit vectors orthogonal to 1 (seeded, reproducible).

    Raises ValueError for disconnected profiles (0 would not be simple) or a
    negative ``samples``, and SizeLimitError beyond n = 16.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    fact = update_factorization(profile, alpha)
    obstacle = _chain_obstacle(profile)
    if obstacle is not None:
        raise obstacle
    return _chain_report(fact, alpha, eigh(fact.laplacian), samples, seed)


def _chain_obstacle(profile: Profile):
    """The error that keeps the eigenvalue chain from applying to
    ``profile``, or None for a connected profile of 2 to ``CHEEGER_MAX_N``
    agents."""
    n = profile.n
    if n < 2:
        return ValueError("eigenvalue chain needs at least two agents")
    if n > CHEEGER_MAX_N:
        return SizeLimitError(f"chain check capped at n <= {CHEEGER_MAX_N}, got {n}")
    if not profile.is_connected():
        return ValueError("profile must be connected (eigenvalue 0 of Q'Q is "
                          "simple only for connected profiles)")
    return None


def _chain_report(fact: UpdateFactorization, alpha: np.ndarray, lap: tuple, samples: int,
                  seed: int) -> dict:
    """``lambda2_chain_check``'s report, from the step operator's
    factorization and the Laplacian's eigensystem ``lap`` (``eigh``'s pair)."""
    n = fact.laplacian.shape[0]
    alpha = np.asarray(alpha, dtype=np.float64)
    Q = fact.I_minus_B
    QtQ = Q.T @ Q
    w_qtq = eigvalsh(QtQ)
    scale = max(float(np.abs(QtQ).max()), 1.0)
    tol = 1e-9 * scale

    near_zero = int(np.sum(np.abs(w_qtq) <= tol))
    ones = np.ones(n) / np.sqrt(n)
    zero_vec_ok = float(np.linalg.norm(QtQ @ ones)) <= tol
    zero_simple = near_zero == 1 and zero_vec_ok

    w_lap, vecs_lap = lap
    lam2_qtq = float(w_qtq[1])
    lam2_lap = float(w_lap[1])
    floor = ((1.0 - float(alpha.max())) / n) ** 2 * lam2_lap**2
    chain_bound = lam2_qtq >= floor - tol

    lap_simple = (w_lap[1] - w_lap[0]) > tol
    smallest_vec = vecs_lap[:, 0]
    perron = lap_simple and bool(np.all(smallest_vec > 0.0))

    # one draw fills the samples in C order, the stream of one draw per row;
    # the stacked 1 x n matmuls reach the dot and gemv kernels of x @ QtQ @ x
    X = np.random.default_rng(seed).standard_normal((samples, n))
    X -= X.mean(axis=1, keepdims=True)
    nrm = np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])
    keep = nrm >= 1e-12
    X = X[keep] / nrm[keep, None]
    vals = ((X[:, None, :] @ QtQ) @ X[:, :, None])[:, 0, 0]
    worst = float(vals.min(initial=float("inf")))
    variational = not bool((vals < lam2_qtq - tol).any())
    return {
        "zero_simple": bool(zero_simple),
        "chain_bound": bool(chain_bound),
        "perron_frobenius": bool(perron),
        "variational": bool(variational),
        "lambda2_qtq": lam2_qtq,
        "lambda2_laplacian": lam2_lap,
        "chain_floor": floor,
        "variational_min_sampled": worst,
        "factorization_residual": fact.residual,
    }
