"""Mixed Hegselmann-Krause opinion dynamics: state, stubbornness schedules,
and the one-step update rule.

Opinions live in R^d. At each step every agent averages the opinions of its
neighbors (everyone within Euclidean distance epsilon, itself included) and
mixes that average with its current opinion:

    x_i(t+1) = a_i(t) * x_i(t) + (1 - a_i(t)) * mean_{j in N_i(t)} x_j(t)

where a_i(t) in [0, 1] is the agent's stubbornness at time t. a = 0
everywhere recovers the plain synchronous model; a = 1 everywhere except one
uniformly chosen agent recovers the asynchronous one.

Arithmetic contract (this is what makes trajectories bitwise reproducible by
an independent implementation):

* squared distances accumulate per coordinate, ascending, left to right;
* the neighbor predicate is ``dist_sq <= epsilon * epsilon`` in plain
  floating point (ties at the boundary are neighbors); the neighbor mask is
  computed in row blocks of at most ``MASK_BLOCK_BYTES`` of squared
  distances, each entry summed in the same order, so above one block no
  n-by-n float matrix is built;
* neighbor means accumulate over ascending agent index, left to right, then
  divide by the neighbor count; ``neighbor_means`` takes any block of
  neighbor-mask rows and sums each row with one sequential
  ``np.add.accumulate`` over its gathered neighbors, and a step asks it
  only for the agents that move (a_i != 1 and a neighbor besides
  themselves);
* agents with a_i = 1, and agents whose only neighbor is themselves, keep
  their opinion bit for bit; agents with a_i = 0 adopt the neighbor mean bit
  for bit; otherwise the convex combination above is evaluated elementwise.

Numeric domain (``OpinionState`` rejects anything outside it): epsilon**2 is
a normal float, so the predicate never compares against an underflowed or
overflowed bound; n*n*epsilon**2 is finite, so no capped energy (a sum of
n*n terms of at most epsilon**2) overflows; and the sum over coordinates of
the squared range of the opinions is finite, so no squared distance
overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ScheduleExhaustedError

SCHEDULE_KINDS = ("synchronous", "asynchronous", "constant", "power_law", "table")
# The [monitors] flags, in config-file order, and those a run sets by default.
# Every flag but merge asks simulate for step records.
MONITOR_FLAGS = ("energy", "contraction", "merge", "interaction", "hull")
DEFAULT_MONITORS = ("energy", "contraction", "merge")
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max  # normal float range
# Byte budget of one row block of squared distances when a neighbor mask is
# built (about 65 rows at n = 1000): the block stays in cache.
MASK_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class OpinionState:
    """Opinions of n agents in R^d at time step t, with the confidence bound."""

    t: int
    x: np.ndarray  # shape (n, d), float64
    epsilon: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"opinions must be a 2-D array, got shape {x.shape}")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("opinions must be finite (no NaN/Inf)")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (_TINY <= self.epsilon * self.epsilon <= _HUGE):
            raise ValueError(f"epsilon**2 must be a normal float (so the neighbor "
                             f"predicate compares exactly), got epsilon={self.epsilon}")
        # a capped energy sums n*n terms of at most epsilon**2 (factor 2 of rounding headroom)
        n = x.shape[0]
        if 2.0 * n * n * (self.epsilon * self.epsilon) > _HUGE:
            raise ValueError(f"epsilon={self.epsilon} is too large for {n} agents: "
                             f"n*n*epsilon**2 must be finite, so no capped energy overflows")
        # every coordinate range is at most 2 max|x|, so small opinions skip the
        # slower exact test of the summed squared ranges (factor 2 of rounding headroom)
        reach = float(np.abs(x).max())
        if 8.0 * x.shape[1] * reach * reach > _HUGE:
            with np.errstate(over="ignore"):
                spread2 = float(np.sum(np.ptp(x, axis=0) ** 2))
            if not np.isfinite(spread2):
                raise ValueError("opinions too far apart: their squared distances overflow "
                                 "(the sum of squared coordinate ranges is not finite)")
        if self.t < 0:
            raise ValueError(f"time index must be nonnegative, got {self.t}")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class StubbornnessSchedule:
    """Rule producing the stubbornness vector a(t) in [0,1]^n for each t.

    Kinds:
      synchronous   a(t) = 0 everywhere (fully open-minded agents).
      asynchronous  a(t) = 1 everywhere except one coordinate, chosen
                    uniformly from a counter-based stream keyed by (seed, t),
                    which is 0.
      constant      a fixed vector, given as ``alpha``.
      power_law     a_i(t) = 1 - min(1, 1/(t+1)**a) for every i, ``a > 1``.
      table         explicit per-time rows; querying past the last row raises
                    ScheduleExhaustedError.
    """

    kind: str
    alpha: Optional[np.ndarray] = None  # constant
    exponent: Optional[float] = None  # power_law
    table: Optional[tuple] = None  # table: tuple of row arrays
    seed: Optional[int] = None  # asynchronous (falls back to the run seed)

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if self.kind == "constant":
            if self.alpha is None:
                raise ConfigError("constant schedule requires an alpha vector")
            a = np.asarray(self.alpha, dtype=np.float64)
            _check_alpha(a)
            object.__setattr__(self, "alpha", a)
        elif self.kind == "power_law":
            if self.exponent is None or not (self.exponent > 1):
                raise ConfigError(f"power_law schedule requires exponent a > 1, got {self.exponent}")
        elif self.kind == "table":
            if not self.table:
                raise ConfigError("table schedule requires at least one row")
            rows = tuple(np.asarray(r, dtype=np.float64) for r in self.table)
            for r in rows:
                _check_alpha(r)
            object.__setattr__(self, "table", rows)

    def alpha_at(self, t: int, n: int, seed: Optional[int] = None) -> np.ndarray:
        """The stubbornness vector applied at time t for n agents."""
        return schedule_alpha(self, t, n, seed)

    def descriptor(self) -> dict:
        """JSON-serializable description (round-trips through configs)."""
        out = {"kind": self.kind}
        if self.kind == "constant":
            out["alpha"] = [float(v) for v in self.alpha]
        elif self.kind == "power_law":
            out["a"] = float(self.exponent)
        elif self.kind == "table":
            out["table"] = [[float(v) for v in row] for row in self.table]
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out


def _check_alpha(a: np.ndarray):
    if a.ndim != 1:
        raise ConfigError(f"alpha must be a vector, got shape {a.shape}")
    # NaN fails both comparisons, so this also rejects every non-finite entry
    if not ((a >= 0.0) & (a <= 1.0)).all():
        raise ConfigError("every stubbornness entry must lie in [0, 1]")


def schedule_alpha(schedule: StubbornnessSchedule, t: int, n: int, seed: Optional[int] = None) -> np.ndarray:
    """Evaluate a schedule at time t.

    The asynchronous kind derives its choice from (seed, t) alone, so replays
    and partial re-runs agree exactly.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if schedule.kind == "synchronous":
        return np.zeros(n)
    if schedule.kind == "constant":
        if schedule.alpha.shape[0] != n:
            raise ConfigError(f"constant alpha has length {schedule.alpha.shape[0]}, expected {n}")
        return schedule.alpha.copy()
    if schedule.kind == "power_law":
        val = 1.0 - min(1.0, 1.0 / float(t + 1) ** schedule.exponent)
        return np.full(n, val)
    if schedule.kind == "table":
        if t >= len(schedule.table):
            raise ScheduleExhaustedError(
                f"table schedule has {len(schedule.table)} rows, queried at t={t}"
            )
        row = schedule.table[t]
        if row.shape[0] != n:
            raise ConfigError(f"table row {t} has length {row.shape[0]}, expected {n}")
        return row.copy()
    # asynchronous: everyone absolutely stubborn except one uniformly chosen agent
    key = schedule.seed if schedule.seed is not None else seed
    if key is None:
        raise ConfigError("asynchronous schedule needs a seed (schedule seed or run seed)")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(key) & (2**64 - 1), int(t))))
    chosen = int(rng.integers(0, n))
    a = np.ones(n)
    a[chosen] = 0.0
    return a


@dataclass
class ModelConfig:
    """Everything needed to reproduce one run."""

    initial: np.ndarray  # (n, d) initial opinions
    epsilon: float
    schedule: StubbornnessSchedule
    max_steps: int
    consensus_tol: float = 1e-12
    seed: int = 0
    monitors: tuple = DEFAULT_MONITORS

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.float64)
        # reuse the state validator
        OpinionState(0, self.initial, self.epsilon)
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (self.consensus_tol > 0):
            raise ConfigError(f"consensus_tol must be positive, got {self.consensus_tol}")
        bad = set(self.monitors) - set(MONITOR_FLAGS)
        if bad:
            raise ConfigError(f"unknown monitor flags {sorted(bad)}; "
                              f"known: {sorted(MONITOR_FLAGS)}")
        self.monitors = tuple(self.monitors)

    @property
    def n(self) -> int:
        return self.initial.shape[0]

    @property
    def d(self) -> int:
        return self.initial.shape[1]


def squared_distances(x: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, accumulated per coordinate.

    Coordinates are added ascending, left to right, so an independent
    implementation following the same order reproduces every bit.
    """
    everything = slice(None)
    return _squared_distance_rows(np.ascontiguousarray(x.T), everything, everything)


def _squared_distance_rows(xt: np.ndarray, rows: slice, cols: slice,
                           out: Optional[np.ndarray] = None,
                           scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``rows`` by ``cols`` block of the squared-distance matrix of the
    opinions whose transpose (one contiguous row per coordinate) is ``xt``,
    accumulated per coordinate, ascending, into ``out``; ``scratch`` holds
    each coordinate's squared differences. Both are buffers of the block's
    shape, allocated when None."""
    acc = np.subtract(xt[0, rows, None], xt[0, cols], out=out)
    np.square(acc, out=acc)
    for k in range(1, xt.shape[0]):
        scratch = np.subtract(xt[k, rows, None], xt[k, cols], out=scratch)
        np.square(scratch, out=scratch)
        acc += scratch
    return acc


def _neighbor_mask(x: np.ndarray, epsilon: float) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The neighbor mask of opinions ``x``, and their squared-distance matrix
    when it fits one block (else None).

    The mask is computed one block of rows at a time, each block's squared
    distances taking at most ``MASK_BLOCK_BYTES``, so a block stays in cache
    while it is compared against epsilon**2; no n-by-n float matrix is
    built. A block covers the columns from its first row on; the entries
    left of it are copied from the transposed blocks above, since
    (a - b)**2 and (b - a)**2 have the same bits and the coordinates are
    summed in the same order. So every entry has the bits of
    ``squared_distances(x) <= epsilon * epsilon``. When all n rows fit one
    block, that block is ``squared_distances(x)``.
    """
    n = x.shape[0]
    eps2 = epsilon * epsilon
    rows = max(1, MASK_BLOCK_BYTES // (8 * n))
    if rows >= n:
        d2 = squared_distances(x)
        return d2 <= eps2, d2
    xt = np.ascontiguousarray(x.T)
    mask = np.empty((n, n), dtype=bool)
    acc, scratch = np.empty(rows * n), np.empty(rows * n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        shape = (hi - lo, n - lo)
        size = shape[0] * shape[1]
        d2 = _squared_distance_rows(xt, slice(lo, hi), slice(lo, n),
                                    acc[:size].reshape(shape), scratch[:size].reshape(shape))
        np.less_equal(d2, eps2, out=mask[lo:hi, lo:])
        mask[hi:, lo:hi] = mask[lo:hi, hi:].T
    return mask, None


def neighbor_matrix(state: OpinionState) -> np.ndarray:
    """Boolean n-by-n matrix; entry (i, j) true iff j is a neighbor of i.

    The diagonal is always true, and the relation is symmetric. Boundary ties
    (distance exactly epsilon) count as neighbors. The matrix is computed in
    row blocks of squared distances (see ``MASK_BLOCK_BYTES``), each entry
    with the bits of ``squared_distances(x) <= epsilon * epsilon``.
    """
    return _neighbor_mask(state.x, state.epsilon)[0]


def averaging_matrix(mask: np.ndarray) -> np.ndarray:
    """Row-stochastic matrix A with A[i, j] = 1/|N_i| for j in N_i, else 0,
    from a neighbor mask (``neighbor_matrix`` of a state, or a profile's
    ``mask``)."""
    counts = mask.sum(axis=1).astype(np.float64)
    return mask.astype(np.float64) / counts[:, None]


def neighbor_means(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One neighbor mean per row of ``rows``, under the arithmetic contract.

    ``rows`` is any (k, n) block of neighbor-mask rows, each holding at least
    one neighbor (a full mask, or the rows of the agents that move). Each
    row's neighbors are summed in ascending index order, left to right, from
    the first neighbor on (one sequential ``np.add.accumulate`` over the
    gathered neighbors of every row), then divided by the row's neighbor
    count.
    """
    k, n = rows.shape
    # the flat nonzero of a row-major block lists row by row, each row's
    # neighbors ascending (and is several times faster than a 2-D nonzero)
    row_of, cols = np.divmod(np.flatnonzero(rows), n)
    counts = np.bincount(row_of, minlength=k)
    # row r's neighbors fill idx[r, :counts[r]], padded after them
    valid = np.arange(counts.max(initial=1)) < counts[:, None]
    idx = np.zeros(valid.shape, dtype=np.intp)
    idx[valid] = cols
    # accumulate adds strictly left to right along a row, starting from the
    # first neighbor itself, and each row's sum is read before its padding
    # is added, so no +0.0 turns a -0.0 sum into +0.0
    sums = np.add.accumulate(x[idx], axis=1)[np.arange(k), counts - 1]
    return sums / counts[:, None]


def step(state: OpinionState, alpha: np.ndarray, *, profile=None) -> OpinionState:
    """Advance the dynamics one step under stubbornness vector alpha.

    Every new opinion lies in the convex hull of the agent's neighbors'
    opinions. Absolutely stubborn agents (alpha_i = 1) and isolated agents
    keep their opinion bit for bit; absolutely open-minded agents
    (alpha_i = 0) adopt the neighbor mean bit for bit. Neighbor means are
    computed for the other agents (the movers) only, so a step costs what
    its movers cost. ``profile`` is the state's analysis (a
    ``profile.StateAnalysis``) when the caller already has it: its ``mask``
    and ``degrees`` are read instead of computed.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (state.n,):
        raise ConfigError(f"alpha has shape {alpha.shape}, expected ({state.n},)")
    _check_alpha(alpha)
    mask = neighbor_matrix(state) if profile is None else profile.mask
    degrees = mask.sum(axis=1) if profile is None else profile.degrees
    movers = np.flatnonzero((alpha != 1.0) & (degrees > 1))
    means = neighbor_means(state.x, mask[movers])
    a = alpha[movers, None]
    new_x = state.x.copy()
    # 0*x + 1*mean would turn a -0.0 mean into +0.0, so adopters take the mean as is
    new_x[movers] = np.where(a == 0.0, means, a * state.x[movers] + (1.0 - a) * means)
    return OpinionState(state.t + 1, new_x, state.epsilon)
