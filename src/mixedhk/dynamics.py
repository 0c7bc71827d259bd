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
  ``np.add.accumulate`` over its gathered neighbors (one gather for a
  single row, as in every asynchronous step, else one padded gather for
  the block), and a step asks it only for the agents that move (a_i != 1
  and a neighbor besides themselves);
* agents with a_i = 1, and agents whose only neighbor is themselves, keep
  their opinion bit for bit; agents with a_i = 0 adopt the neighbor mean bit
  for bit; otherwise the convex combination above is evaluated elementwise.

Numeric domain (``OpinionState`` rejects anything outside it): epsilon**2 is
a normal float, so the predicate never compares against an underflowed or
overflowed bound; n*n*epsilon**2 is finite, so no capped energy (a sum of
n*n terms of at most epsilon**2) overflows; and the sum over coordinates of
the squared range of the opinions is finite, so no squared distance
overflows.

Asynchronous stream: the agent that moves at time t is
``np.random.default_rng(np.random.SeedSequence((key & (2**64 - 1), t)))
.integers(0, n)``, so replays and partial re-runs agree exactly.
``StubbornnessSchedule.alphas`` draws a block of times at once by running
numpy's chain itself over an array of t, in uint64 arithmetic:
SeedSequence's 32-bit hash mixing of the entropy words, PCG64's seeding
and one step of its 128-bit LCG (in 32-bit limbs), the XSL-RR output,
and Lemire's bounded draw on the output's low 32 bits (Lemire, "Fast
random integer generation in an interval", ACM TOMACS 29(1), 2019). A t
whose draw could be rejected (probability below n / 2**32), or that needs
a second entropy word (t >= 2**32), is drawn by numpy's generator itself.
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
# Bytes of a stack of squared-distance matrices computed at once, and of its
# scratch: a stack of four states at n = 120, d = 2 took 331 us in one pass
# and 159 us in chunks of this size, one of 72 at n = 30, d = 2 381 and 182 us.
STACK_CHUNK_BYTES = 128 * 1024


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
        _check_epsilon(self.epsilon, x.shape[0])
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


def _check_epsilon(epsilon: float, n: int) -> None:
    """Raise ``ValueError`` unless ``epsilon`` is a confidence bound inside
    the numeric domain for n agents."""
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (_TINY <= epsilon * epsilon <= _HUGE):
        raise ValueError(f"epsilon**2 must be a normal float (so the neighbor "
                         f"predicate compares exactly), got epsilon={epsilon}")
    # a capped energy sums n*n terms of at most epsilon**2 (factor 2 of rounding headroom)
    if 2.0 * n * n * (epsilon * epsilon) > _HUGE:
        raise ValueError(f"epsilon={epsilon} is too large for {n} agents: "
                         f"n*n*epsilon**2 must be finite, so no capped energy overflows")


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
        return self.alphas(t, 1, n, seed)[0]

    def alphas(self, t0: int, count: int, n: int, seed: Optional[int] = None) -> np.ndarray:
        """The stubbornness vectors applied at times t0, ..., t0 + count - 1
        for n agents, as a (count, n) array, row k for time t0 + k.

        A table block ends early at the table's end, or before its first row
        of the wrong length, so that the error belongs to the time that
        reaches it: querying from t0 = len(table) raises
        ``ScheduleExhaustedError``, and from a row of the wrong length
        ``ConfigError``. The asynchronous kind draws from the stream keyed
        by (seed, t) (see the module docstring): the schedule's seed, else
        ``seed``.
        """
        if t0 < 0:
            raise ValueError(f"time must be nonnegative, got {t0}")
        if self.kind == "synchronous":
            return np.zeros((count, n))
        if self.kind == "constant":
            if self.alpha.shape[0] != n:
                raise ConfigError(f"constant alpha has length {self.alpha.shape[0]}, expected {n}")
            return np.repeat(self.alpha[None], count, axis=0)
        if self.kind == "power_law":
            # Python floats, one time at a time, as the rule is written
            vals = [1.0 - min(1.0, 1.0 / float(t + 1) ** self.exponent)
                    for t in range(t0, t0 + count)]
            return np.repeat(np.array(vals)[:, None], n, axis=1)
        if self.kind == "table":
            if t0 >= len(self.table):
                raise ScheduleExhaustedError(
                    f"table schedule has {len(self.table)} rows, queried at t={t0}")
            rows = self.table[t0:t0 + count]
            fit = next((k for k, row in enumerate(rows) if row.shape[0] != n), len(rows))
            if not fit:
                raise ConfigError(f"table row {t0} has length {rows[0].shape[0]}, expected {n}")
            return np.array(rows[:fit])
        # asynchronous: everyone absolutely stubborn except one uniformly chosen agent
        key = self.seed if self.seed is not None else seed
        if key is None:
            raise ConfigError("asynchronous schedule needs a seed (schedule seed or run seed)")
        a = np.ones((count, n))
        a[np.arange(count), _async_movers(int(key) & (2**64 - 1), t0, count, n)] = 0.0
        return a

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
    """Evaluate a schedule at time t: the one-row case of ``schedule.alphas``."""
    return schedule.alphas(t, 1, n, seed)[0]


# The constants of numpy's SeedSequence hash and mix, and of PCG64's LCG.
_M32, _S16, _S31, _S32 = (np.uint64(v) for v in (0xFFFFFFFF, 16, 31, 32))
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Below this many times, numpy's generator draws faster than one array pass
# (about 12 us per time against 130 us plus 0.3 us per time, n = 30).
_ARRAY_DRAW_MIN = 12


def _hash_consts(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) pairs of ``count`` successive SeedSequence
    hashes whose constant starts at ``init``, as (count, 1) columns."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return (np.array(consts[:-1], np.uint64)[:, None], np.array(consts[1:], np.uint64)[:, None])


# 4 hashes of the entropy, 12 of the cross mix; 8 of the state words
_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = ((v ^ xor) * mul) & _M32
    return v ^ (v >> _S16)


def _limb_product(a: np.ndarray, k: int) -> np.ndarray:
    """The 32-bit column sums of the 128-bit product of the limbs ``a``
    (4, c), lowest first, by the constant k, before carrying."""
    cols = np.zeros_like(a)
    for l in range(4):
        p = a[:4 - l] * np.uint64((k >> 32 * l) & 0xFFFFFFFF)
        cols[l:] += p & _M32
        cols[l + 1:] += (p >> _S32)[:3 - l]
    return cols


def _carry(cols: np.ndarray) -> np.ndarray:
    """32-bit limbs, lowest first, of the column sums ``cols`` modulo 2**128."""
    limbs = np.empty_like(cols)
    carry = np.uint64(0)
    for j in range(4):
        v = cols[j] + carry
        limbs[j], carry = v & _M32, v >> _S32
    return limbs


def _async_movers(key: int, t0: int, count: int, n: int) -> np.ndarray:
    """The agent chosen at each time t0, ..., t0 + count - 1 by the
    asynchronous stream keyed by ``key`` (0 <= key < 2**64): numpy's
    SeedSequence, PCG64 and bounded-integer chain, run on an array of t."""
    if count < _ARRAY_DRAW_MIN:
        return np.array([_scalar_mover(key, t, n) for t in range(t0, t0 + count)], dtype=np.intp)
    ts = np.arange(t0, t0 + count, dtype=np.uint64)
    key_words = [key & 0xFFFFFFFF] + ([key >> 32] if key >> 32 else [])
    # SeedSequence: the pool hashes the entropy words (the key's, then t's),
    # then mixes every pool word into every other
    pool = np.zeros((4, count), np.uint64)
    pool[:len(key_words)] = np.array(key_words, np.uint64)[:, None]
    pool[len(key_words)] = ts & _M32
    xor, mul = _POOL_HASH
    pool = _hashmix(pool, xor[:4], mul[:4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[src], xor[4 + 3 * src:7 + 3 * src], mul[4 + 3 * src:7 + 3 * src])
        mixed = (_MIX_L * pool[dst] - _MIX_R * h) & _M32
        pool[dst] = mixed ^ (mixed >> _S16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_STATE_HASH)
    # PCG64 seeding: state 0, one LCG step, add the seed, one LCG step; the
    # first output takes one more step, so state = (inc + seed) M^2 + inc (M + 1)
    seed, seq = words[[2, 3, 0, 1]], words[[6, 7, 4, 5]]
    inc = (seq << np.uint64(1)) & _M32
    inc[1:] |= seq[:-1] >> _S31
    inc[0] |= np.uint64(1)
    first = _carry(inc + seed)
    state = _carry(_limb_product(first, _PCG_MULT * _PCG_MULT % 2**128)
                   + _limb_product(inc, (_PCG_MULT + 1) % 2**128))
    # XSL-RR output, then Lemire's draw on its low 32 bits
    folded = ((state[3] << _S32) | state[2]) ^ ((state[1] << _S32) | state[0])
    rot = state[3] >> np.uint64(26)
    out = (folded >> rot) | (folded << ((np.uint64(64) - rot) & np.uint64(63)))
    scaled = (out & _M32) * np.uint64(n)
    chosen = (scaled >> _S32).astype(np.intp)
    for k in np.flatnonzero(((scaled & _M32) < n) | (ts >= 2**32) | (n >= 2**32)).tolist():
        chosen[k] = _scalar_mover(key, t0 + k, n)
    return chosen


def _scalar_mover(key: int, t: int, n: int) -> int:
    """The agent chosen at time t by the asynchronous stream keyed by
    ``key``, drawn by numpy's generator."""
    return int(np.random.default_rng(np.random.SeedSequence((key, t))).integers(0, n))


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


def _squared_distance_stack(xs: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack of the ``squared_distances`` matrices of a
    (B, n, d) stack of opinions, each entry with the bits of its own,
    computed a chunk of at most ``STACK_CHUNK_BYTES`` at a time."""
    B, n, _ = xs.shape
    step = max(1, STACK_CHUNK_BYTES // (8 * n * n))
    xt = np.ascontiguousarray(xs.transpose(2, 0, 1))
    out, scratch = np.empty((B, n, n)), np.empty((min(step, B), n, n))
    everything = slice(None)
    for lo in range(0, B, step):
        hi = min(lo + step, B)
        _squared_distance_rows(xt[:, lo:hi], everything, everything, out[lo:hi], scratch[:hi - lo])
    return out


def _squared_distance_rows(xt: np.ndarray, rows: slice, cols: slice,
                           out: Optional[np.ndarray] = None,
                           scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """The ``rows`` by ``cols`` block of the squared-distance matrix of the
    opinions whose transpose (one row per coordinate) is ``xt``,
    accumulated per coordinate, ascending, into ``out``; ``scratch`` holds
    each coordinate's squared differences. Both are buffers of the block's
    shape, allocated when None. For the (d, B, n) transpose of a (B, n, d)
    stack of opinions, the blocks of the B matrices, stacked."""
    acc = np.subtract(xt[0, ..., rows, None], xt[0, ..., None, cols], out=out)
    np.square(acc, out=acc)
    for k in range(1, xt.shape[0]):
        scratch = np.subtract(xt[k, ..., rows, None], xt[k, ..., None, cols], out=scratch)
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
    count. A single row, the one mover of an asynchronous step, gathers its
    neighbors alone; any other block, an empty one included, gathers every
    row's neighbors into one padded array.
    """
    k, n = rows.shape
    if k == 1:  # one mover, as in every asynchronous step: its neighbors in one gather
        cols = np.flatnonzero(rows)
        return np.add.accumulate(x[cols], axis=0)[-1:] / len(cols)
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


def step(state: OpinionState, alpha: np.ndarray) -> OpinionState:
    """Advance the dynamics one step under stubbornness vector alpha.

    Every new opinion lies in the convex hull of the agent's neighbors'
    opinions. Absolutely stubborn agents (alpha_i = 1) and isolated agents
    keep their opinion bit for bit; absolutely open-minded agents
    (alpha_i = 0) adopt the neighbor mean bit for bit. Neighbor means are
    computed for the other agents (the movers) only, so a step costs what
    its movers cost.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (state.n,):
        raise ConfigError(f"alpha has shape {alpha.shape}, expected ({state.n},)")
    _check_alpha(alpha)
    mask = neighbor_matrix(state)
    return OpinionState(state.t + 1, _advance(state.x, alpha, mask, mask.sum(axis=1)),
                        state.epsilon)


def _advance(x: np.ndarray, alpha: np.ndarray, mask: np.ndarray,
             degrees: np.ndarray) -> np.ndarray:
    """The opinions one ``step`` after opinions ``x`` under ``alpha``, a
    valid stubbornness vector for them, given their neighbor ``mask`` and
    its row sums ``degrees``; nothing is validated."""
    movers = np.flatnonzero((alpha != 1.0) & (degrees > 1))
    means = neighbor_means(x, mask[movers])
    a = alpha[movers, None]
    new_x = x.copy()
    # 0*x + 1*mean would turn a -0.0 mean into +0.0, so adopters take the mean as is
    new_x[movers] = np.where(a == 0.0, means, a * x[movers] + (1.0 - a) * means)
    return new_x


def _advance_one(x: np.ndarray, i: int, epsilon: float) -> np.ndarray:
    """The opinions one ``step`` after opinions ``x`` when agent i alone is
    open-minded (alpha_i = 0, every other alpha_j = 1), as in every
    asynchronous step: what ``_advance`` computes, from agent i's row of
    squared distances alone, whose entries have the bits of the whole
    matrix's; nothing is validated."""
    row = _squared_distance_rows(x.T, slice(i, i + 1), slice(None)) <= epsilon * epsilon
    new_x = x.copy()
    if np.count_nonzero(row) > 1:
        new_x[i] = neighbor_means(x, row)[0]
    return new_x
