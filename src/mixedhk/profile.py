"""Opinion profile graphs and the geometry behind their predicates.

The profile at time t is the undirected graph on agents with an edge wherever
two opinions are within epsilon of each other. This module builds profiles,
computes convex-hull diameters and distances, decides delta-triviality and
delta-equilibrium, and detects merge events along a trajectory, as the event
dicts that check reports and trajectory sidecars hold.

One ``StateAnalysis`` per state holds everything the monitors read off it:
the neighbor mask, degrees and component labels, and the component
diameters, the state's diameter and the capped energy. The mask, degrees
and labels are computed when the analysis is made, the mask in row
blocks, so a run that reads only the mask and its consensus test
(``components_within`` rejects most states from one distance per agent)
computes no geometry. The geometry is computed on first read by one
kernel, ``block_geometry``, over a (B, n, n) stack of squared-distance
matrices: for one state, or for the block of states a ``Checker`` settles
at once (``settle_geometry``). A state that fits one mask block keeps its
squared-distance matrix, the mask's one block, for that kernel, so no
distance is computed twice. Each of these values equals, bit for bit,
what its single-purpose routine computes (``neighbor_matrix`` and its row
sums, ``diameter``, and for the energy one sum of the capped
``squared_distances``). A
``StateAnalysis`` is a ``Profile``: the mask is the only form in which a
profile graph is held. The independent pure-Python edge and merge-detection
routes, the eager analysis, the per-agent hull check and a scalar Wolfe
loop live in the tests as oracles, so agreement between this module, the
Wolfe kernel and the dynamics stays a checked invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import dynamics
from .dynamics import OpinionState, _neighbor_mask, squared_distances
from .errors import NumericalFailure
from .wolfe import MAX_ITER, min_norm_distances


@dataclass(frozen=True, eq=False)
class Profile:
    """Undirected epsilon-proximity graph on n agents at time t, held as its
    neighbor mask: ``mask[i, j]`` is true iff i == j or i and j are adjacent.
    Every other graph quantity is read off the mask."""

    t: int
    mask: np.ndarray  # (n, n) bool, symmetric, diagonal true
    labels: np.ndarray  # (n,) int: component per agent, numbered by first member
    degrees: np.ndarray  # (n,) int: |N_i| per agent, the agent itself included

    @classmethod
    def from_edges(cls, n: int, edges, t: int = 0) -> "Profile":
        """Build a profile directly from an edge list (for graph-level checks)."""
        mask = np.eye(n, dtype=bool)
        for i, j in edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j}) for n={n}")
            mask[i, j] = mask[j, i] = True
        degrees = mask.sum(axis=1)
        return cls(t, mask, _component_labels(mask, degrees), degrees)

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    @cached_property
    def edges(self) -> frozenset:
        """The (i, j) pairs with i < j that are adjacent."""
        i, j = np.nonzero(np.triu(self.mask, 1))
        return frozenset(zip(i.tolist(), j.tolist()))

    @property
    def num_components(self) -> int:
        return 1 + int(self.labels.max()) if self.n else 0

    def components(self) -> list[list[int]]:
        """Agent indices grouped by component, ordered by label."""
        groups = [[] for _ in range(self.num_components)]
        for i, c in enumerate(self.labels.tolist()):
            groups[c].append(i)
        return groups

    def degree(self, i: int) -> int:
        return int(self.degrees[i]) - 1

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix (float64), zero diagonal."""
        return (self.mask & ~np.eye(self.n, dtype=bool)).astype(np.float64)

    def is_connected(self) -> bool:
        return self.num_components == 1


def _component_labels(mask: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Component label per agent of a symmetric boolean adjacency mask whose
    diagonal is true, given its row counts ``degrees``; labels are numbered
    by each component's first member.

    Breadth-first search from the first member of each component that is
    not a single agent, one mask row per reached agent.
    """
    n = mask.shape[0]
    first = np.arange(n)  # first member of each agent's component
    for i in np.flatnonzero(degrees > 1).tolist():
        if first[i] != i:
            continue
        members = mask[i].copy()
        frontier = members
        while True:
            frontier = np.logical_or.reduce(mask[frontier]) > members
            if not np.count_nonzero(frontier):
                break
            members |= frontier
        first[members] = i
    return (np.cumsum(first == np.arange(n)) - 1)[first]


@dataclass(frozen=True, eq=False)
class StateAnalysis(Profile):
    """A state's profile plus the per-state quantities the monitors read,
    each computed at most once.

    The neighbor mask, degrees and component labels are computed when the
    analysis is made. The geometry (``component_diameters``, ``diameter``
    and ``energy``) is computed on first read by ``block_geometry``, for
    this state alone, or for a block of states at once when a ``Checker``
    settles its buffered steps (``settle_geometry``). When the state fits
    one mask block, its squared-distance matrix, which the mask came from,
    is kept until then, so no distance is computed twice; once the geometry
    is known the matrix is dropped. Each value equals, bit for bit, what the
    single-purpose routine computes (``neighbor_matrix``, ``diameter`` of
    the state and of each component, and one sum of the capped
    ``squared_distances``).
    """

    x: np.ndarray  # the state's opinions (the same array, not a copy)
    epsilon: float
    # (component diameters, diameter, energy), or None until first read
    _geometry: Optional[tuple] = field(default=None, repr=False)
    # the squared-distance matrix, kept from the mask until the geometry is read
    _d2: Optional[np.ndarray] = field(default=None, repr=False)

    def _read_geometry(self) -> tuple:
        if self._geometry is None:
            settle_geometry([self])
        return self._geometry

    @property
    def component_diameters(self) -> list:
        """Diameter of each component, in label order."""
        return self._read_geometry()[0]

    @property
    def diameter(self) -> float:
        """Diameter of the whole state."""
        return self._read_geometry()[1]

    @property
    def energy(self) -> float:
        """Capped pairwise energy."""
        return self._read_geometry()[2]

    def components_within(self, tol: float) -> bool:
        """True iff every component's diameter is at most ``tol``.

        Rejects cheaply first: an agent farther than ``tol`` from its
        component's first member proves a component wider than ``tol``,
        because that distance has the bits of its squared-distance entry and
        sqrt is monotone. Only otherwise are the component diameters read.
        When they are known already, they decide at once.
        """
        if self._geometry is None:
            offsets = self.x - self.x[first_members(self.labels)]
            dist2 = offsets[:, 0] ** 2
            for k in range(1, offsets.shape[1]):
                dist2 = dist2 + offsets[:, k] ** 2
            if (np.sqrt(dist2) > tol).any():
                return False
        return all(dm <= tol for dm in self.component_diameters)


def first_members(labels: np.ndarray) -> np.ndarray:
    """The index of each agent's component's first member, from component
    labels numbered by first member. The running maximum of such labels
    rises exactly at each first member, so label c's first member is the
    first index where it reaches c."""
    return np.maximum.accumulate(labels).searchsorted(labels)


def block_geometry(d2: np.ndarray, labels: np.ndarray, epsilon: float) -> tuple:
    """The geometry of B states from their stacked squared-distance
    matrices ``d2`` (B, n, n), capped in place, and component labels
    ``labels`` (B, n): each state's component diameters, as a (B, n) array
    whose first 1 + max(label) entries of a row are the state's diameters
    in label order (the rest 0.0), and each state's diameter and capped
    energy, as (B,) arrays.

    A component's diameter is the square root of the largest squared
    distance inside its block of the matrix, which is what ``diameter``
    computes on the component's points. The capped energy of a state, the
    sum over ordered pairs of min(dist^2, eps^2), is one ``sum`` over its
    row of ``d2.reshape(B, n*n)``, which adds the n*n entries in the order
    a ``sum`` of the state's own capped matrix does.
    """
    B, n = labels.shape
    # the maxima down each column: the row maxima, as both operands are
    # symmetric, in a reduction that runs along the contiguous rows
    row_max = np.max(d2, axis=1, where=labels[:, :, None] == labels[:, None, :], initial=0.0)
    block_max = np.zeros(B * n)
    np.maximum.at(block_max, (labels + n * np.arange(B)[:, None]).ravel(), row_max.ravel())
    flat = d2.reshape(B, n * n)
    diameters = np.sqrt(flat.max(axis=1))
    energies = np.minimum(flat, epsilon * epsilon, out=flat).sum(axis=1)
    return np.sqrt(block_max).reshape(B, n), diameters, energies


def settle_geometry(analyses: list) -> tuple:
    """The geometry of every analysis in ``analyses`` (all of states with
    the same epsilon and number of agents): a list of each one's component
    diameters, and arrays of their diameters and energies. Those that have
    no geometry yet get it from one ``block_geometry`` call over their
    stacked squared-distance matrices: the kept ones, else one
    ``squared_distances`` call each."""
    todo = list({id(a): a for a in analyses if a._geometry is None}.values())
    if todo:
        n = todo[0].n
        d2 = np.empty((len(todo), n, n)) if len(todo) > 1 else None
        for k, a in enumerate(todo):
            matrix = squared_distances(a.x) if a._d2 is None else a._d2
            # each kept matrix is let go once copied, so the block is held about once
            object.__setattr__(a, "_d2", None)
            if d2 is None:
                d2 = matrix[None]
            else:
                d2[k] = matrix
        labels = np.array([a.labels for a in todo])
        comps, diameters, energies = block_geometry(d2, labels, todo[0].epsilon)
        for a, row, k, diam, energy in zip(todo, comps.tolist(), (labels.max(axis=1) + 1).tolist(),
                                           diameters.tolist(), energies.tolist()):
            object.__setattr__(a, "_geometry", (row[:k], diam, energy))
    geometry = [a._geometry for a in analyses]
    return ([g[0] for g in geometry], np.array([g[1] for g in geometry]),
            np.array([g[2] for g in geometry]))


def neighbor_spread(x: np.ndarray, rows: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """Largest distance from each of ``agents`` to one of its neighbors;
    ``rows`` holds those agents' rows of the neighbor mask.

    ``x`` holds one state's opinions, or the opinions of several states of
    n = ``rows.shape[1]`` agents stacked as (B*n, d); an agent's index then
    counts from the first state's first agent, and its neighbors are read
    from its own state.

    Each squared distance is the row sum of squared coordinate differences,
    as in the per-agent movement-budget formula; at d >= 8 numpy's pairwise
    summation can order that sum differently from ``squared_distances``.
    """
    n = rows.shape[1]
    # the flat nonzero of a row-major block, several times faster than a 2-D one
    k, cols = np.divmod(np.flatnonzero(rows), n)
    owners = agents[k]
    diffs = x[cols + (owners - owners % n)] - x[owners]
    spread2 = np.zeros(len(agents))
    np.maximum.at(spread2, k, (diffs * diffs).sum(axis=1))
    return np.sqrt(spread2)


def analyze_state(state: OpinionState, previous: Optional[StateAnalysis] = None) -> StateAnalysis:
    """Analyze one state: its neighbor mask (built in row blocks, as
    ``neighbor_matrix`` builds it), degrees and component labels now, and
    its geometry on first read. When the state fits one mask block, the
    mask's block, the whole squared-distance matrix, is kept for the
    geometry.

    ``previous`` is another state's analysis, in practice the one before:
    when its neighbor mask equals this state's, its component labels are
    reused instead of searched again. Only the labels array is shared, so
    ``previous`` itself is not kept alive.
    """
    mask, d2 = _neighbor_mask(state.x, state.epsilon)
    degrees = mask.sum(axis=1)
    # equal degrees first: they are cheap and usually differ when the mask does
    if (previous is not None and degrees.tobytes() == previous.degrees.tobytes()
            and mask.tobytes() == previous.mask.tobytes()):
        labels = previous.labels
    else:
        labels = _component_labels(mask, degrees)
    return StateAnalysis(state.t, mask, labels, degrees, state.x, state.epsilon, None, d2)


def geometry_block(n: int) -> int:
    """How many (n, n) squared-distance matrices fit ``MASK_BLOCK_BYTES``
    together: 0 when a state of n agents does not fit one mask block."""
    return dynamics.MASK_BLOCK_BYTES // (8 * n * n)


def build_profile(state: OpinionState) -> Profile:
    """Profile of a state: edges exactly where the epsilon rule holds."""
    return analyze_state(state)


def diameter(points: np.ndarray) -> float:
    """Maximum pairwise Euclidean distance of a point set.

    This equals the diameter of the convex hull: any two hull points are
    zero-sum combinations of the vertices, so their distance is bounded by
    the largest vertex-pair distance.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("diameter of an empty point set is undefined")
    if pts.shape[0] == 1:
        return 0.0
    d2 = squared_distances(pts)
    return float(np.sqrt(d2.max()))


def hull_distance(P: np.ndarray, Q: np.ndarray, *, max_iter: int = MAX_ITER) -> float:
    """Euclidean distance between the convex hulls of two point sets.

    Minimizes ||sum_i lam_i p_i - sum_j mu_j q_j|| over the two weight
    simplices, cast as the min-norm point of the pairwise difference set and
    solved with Wolfe's corral algorithm (iterative conditional-gradient
    vertex selection plus exact affine minimization over the active set),
    which terminates at machine precision on desk-scale inputs: one
    ``wolfe.min_norm_distances`` call on a stack of one problem. Returns 0.0
    when the hulls intersect. Raises NumericalFailure carrying the best
    value and a gap bound if the duality gap never closes.
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("hull_distance needs two nonempty point sets")
    if P.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: {P.shape[1]} vs {Q.shape[1]}")
    # vertices of the difference set {p - q}
    V = (P[:, None, :] - Q[None, :, :]).reshape(1, -1, P.shape[1])
    dist, failed = min_norm_distances(V, max_iter)
    if failed:
        raise _not_converged(float(dist[0]), failed[0], max_iter)
    return float(dist[0])


def _not_converged(best: float, gap: float, max_iter: int) -> NumericalFailure:
    return NumericalFailure(
        f"hull_distance did not converge in {max_iter} iterations "
        f"(best {best}, gap bound {gap})",
        best=best,
        gap=gap,
    )


def hull_stacks(now: StateAnalysis, next_x: np.ndarray):
    """The hull problems of one step, by neighbor count: for each count k
    in ``now``, the agents with k neighbors and the C-contiguous (B, k, d)
    stack of their vertex sets x_i(t+1) - x_{N_i}(t), the set that
    ``hull_distance(next_x[i][None, :], now.x[N_i])`` builds. The stacks
    are views of one array, computed in one pass over the agents sorted by
    neighbor count; returned as a list of (agents, stack) pairs."""
    order = np.argsort(now.degrees, kind="stable")
    degrees = now.degrees[order]
    cols = np.nonzero(now.mask[order])[1]
    V = np.repeat(next_x[order], degrees, axis=0) - now.x[cols]
    stacks = []
    start = row = 0
    # bincount, not unique: the first np.unique call imports numpy.ma (about 1 MiB)
    for k, b in enumerate(np.bincount(degrees).tolist()):
        if b:
            stacks.append((order[start:start + b], V[row:row + b * k].reshape(b, k, -1)))
            start, row = start + b, row + b * k
    return stacks


class HullBuffer:
    """The hull problems of many steps, kept by neighbor count k until
    ``count_over`` solves them with ``hull_strays``."""

    def __init__(self):
        self.stacks: dict = {}  # k -> [((step, agents), (B, k, d) stack)]
        self.nbytes = 0

    def add(self, step: int, now: StateAnalysis, next_x: np.ndarray) -> "HullBuffer":
        """Add the hull problems of the step from ``now`` to ``next_x``; returns the buffer."""
        for agents, V in hull_stacks(now, next_x):
            self.stacks.setdefault(V.shape[1], []).append(((step, agents), V))
            self.nbytes += V.nbytes
        return self

    def count_over(self, tol: float) -> int:
        """Empty the buffer, returning how many of its distances exceed ``tol``."""
        stacks, self.stacks, self.nbytes = self.stacks, {}, 0
        return hull_strays(stacks, tol)


def hull_strays(stacks: dict, tol: float) -> int:
    """How many distances of the buffered hull problems ``stacks`` (of a
    ``HullBuffer``) exceed ``tol``: one ``wolfe.min_norm_distances`` call
    per neighbor count k, over the stacks of every buffered step. Raises
    the ``NumericalFailure`` of the first problem that did not converge in
    (step, agent) order, the one that a loop over steps and agents meets."""
    over, failures = 0, []
    for parts in stacks.values():
        V = np.concatenate([V for _, V in parts]) if len(parts) > 1 else parts[0][1]
        dist, failed = min_norm_distances(V)
        over += int(np.count_nonzero(dist > tol))
        if failed:
            owners = [(step, i) for (step, agents), _ in parts for i in agents.tolist()]
            failures += [(owners[b], float(dist[b]), gap) for b, gap in failed.items()]
    if failures:
        _, best, gap = min(failures)
        raise _not_converged(best, gap, MAX_ITER)
    return over


@dataclass
class EquilibriumVerdict:
    """Outcome of a delta-equilibrium check at one state.

    ``partition`` holds the canonical candidate groups (agent indices).
    ``witness`` explains a negative verdict: the group whose diameter exceeds
    delta, with its diameter.
    """

    exists: bool
    partition: Optional[list]
    witness: Optional[dict]


# Relative guard band around epsilon for the strict hull-separation test:
# values within the band count as NOT exceeding epsilon, so a pair at
# distance exactly epsilon robustly fails the separation requirement.
SEPARATION_GUARD = 1e-9


def check_delta_equilibrium(state: OpinionState, delta: float) -> EquilibriumVerdict:
    """Decide whether the state is a delta-equilibrium.

    A delta-equilibrium is a partition of the opinions into groups whose
    convex hulls are pairwise more than epsilon apart and whose diameters are
    at most delta. Only one candidate partition needs testing: connected
    components of the profile, merged transitively while any two groups'
    hulls are within epsilon. Every epsilon-connected pair must share a group
    and hulls within epsilon force a merge in any valid partition, so each
    candidate group lies inside a single group of any valid partition; since
    coarsening cannot shrink a diameter, the candidate succeeds iff any
    partition does. The one-group partition is allowed (pairwise conditions
    are then vacuous).
    """
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
    profile = build_profile(state)
    groups = [list(g) for g in profile.components()]
    eps_cut = state.epsilon * (1.0 + SEPARATION_GUARD)

    merged = True
    while merged and len(groups) > 1:
        merged = False
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                dist = hull_distance(state.x[groups[gi]], state.x[groups[gj]])
                if dist <= eps_cut:
                    groups[gi] = sorted(groups[gi] + groups[gj])
                    del groups[gj]
                    merged = True
                    break
            if merged:
                break

    for g in groups:
        diam = diameter(state.x[g])
        if diam > delta:
            return EquilibriumVerdict(False, [sorted(g) for g in groups],
                                      {"group": sorted(g), "diameter": diam, "delta": delta})
    return EquilibriumVerdict(True, [sorted(g) for g in groups], None)


def _equality_matrix(x: np.ndarray, rel: float = 1e-14) -> np.ndarray:
    """``opinions_equal`` for every pair of rows of ``x``, as a boolean matrix."""
    scale = np.abs(x).max(axis=1)
    bound = rel * np.maximum.outer(scale, scale)
    equal = np.abs(x[:, None, 0] - x[None, :, 0]) <= bound
    for k in range(1, x.shape[1]):
        equal &= np.abs(x[:, None, k] - x[None, :, k]) <= bound
    return equal


def opinions_equal(a: np.ndarray, b: np.ndarray, rel: float = 1e-14) -> bool:
    """Merge-detection equality: max_k |a_k - b_k| <= rel * max(max|a|, max|b|).

    Bitwise-equal finite opinions (and -0.0 against 0.0) always qualify; the
    relative hair of slack covers rounding drift when two agents converge
    through different intermediate values. The predicate is defined for
    finite opinions only, which is all a state can hold: with an infinite
    or NaN coordinate the result means nothing (inf - inf is NaN).
    """
    return bool(_equality_matrix(np.stack([a, b]), rel)[0, 1])


def detect_merge_events(states: list) -> list[dict]:
    """Find every (t, i, j) where two distinct opinions coincide at t.

    ``states`` is a trajectory's list of (n, d) opinion arrays. A pair merges
    at t if it is equal at t (see opinions_equal) and unequal at t-1; the
    event is flagged ``departed`` if the pair separates again at any later
    recorded time. Each event is the dict that check reports and trajectory
    sidecars hold, ``{"type": "merge", "t", "i", "j", "departed"}``. One
    backward pass keeps the pairs found unequal at some later time, so the
    cost is one n-by-n equality matrix per state. Events come in ascending
    (t, i, j) order.
    """
    if len(states) < 2:
        raise ValueError("merge detection needs a trajectory of length >= 2")
    n = states[0].shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    unequal_later = np.zeros((n, n), dtype=bool)
    equal_now = _equality_matrix(states[-1])
    found = []
    for t in range(len(states) - 1, 0, -1):
        equal_before = _equality_matrix(states[t - 1])
        i, j = np.nonzero(equal_now & ~equal_before & upper)
        found.append([{"type": "merge", "t": t, "i": a, "j": b, "departed": gone}
                      for a, b, gone in zip(i.tolist(), j.tolist(), unequal_later[i, j].tolist())])
        unequal_later |= ~equal_now
        equal_now = equal_before
    return [event for chunk in reversed(found) for event in chunk]
