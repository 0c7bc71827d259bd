"""Shared test helpers: independently coded oracles and generators.

The oracles here deliberately avoid the package's own numpy kernels: plain
Python floats, explicit loops, the documented evaluation order. They exist so
that engine results can be checked against a second implementation.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from mixedhk.errors import NumericalFailure, SizeLimitError
from mixedhk.spectral import CHEEGER_MAX_N


def oracle_hk_step(x: list, eps: float) -> list:
    """Plain synchronous averaging step (everyone fully open-minded), coded
    with Python floats and the documented accumulation order."""
    n = len(x)
    d = len(x[0])
    eps2 = eps * eps
    new = []
    for i in range(n):
        nb = []
        for j in range(n):
            acc = 0.0
            for k in range(d):
                diff = x[i][k] - x[j][k]
                acc = acc + diff * diff
            if acc <= eps2:
                nb.append(j)
        sums = list(x[nb[0]])
        for j in nb[1:]:
            for k in range(d):
                sums[k] = sums[k] + x[j][k]
        new.append([s / len(nb) for s in sums])
    return new


def oracle_mixed_step(x: list, eps: float, alpha: list) -> list:
    """General mixed step oracle under the same arithmetic contract."""
    n = len(x)
    d = len(x[0])
    eps2 = eps * eps
    new = []
    for i in range(n):
        nb = []
        for j in range(n):
            acc = 0.0
            for k in range(d):
                diff = x[i][k] - x[j][k]
                acc = acc + diff * diff
            if acc <= eps2:
                nb.append(j)
        a = alpha[i]
        if a == 1.0 or len(nb) == 1:
            new.append(list(x[i]))
            continue
        sums = list(x[nb[0]])
        for j in nb[1:]:
            for k in range(d):
                sums[k] = sums[k] + x[j][k]
        mean = [s / len(nb) for s in sums]
        if a == 0.0:
            new.append(mean)
        else:
            new.append([a * x[i][k] + (1.0 - a) * mean[k] for k in range(d)])
    return new


def random_opinions(rng: np.random.Generator, n: int, d: int, scale: float = 1.0) -> np.ndarray:
    return rng.uniform(-scale, scale, size=(n, d))


def random_alpha(rng: np.random.Generator, n: int, *, allow_extremes: bool = True) -> np.ndarray:
    """Stubbornness vector mixing exact 0s, exact 1s, and interior values."""
    a = rng.uniform(0.0, 1.0, size=n)
    if allow_extremes:
        mode = rng.integers(0, 4, size=n)
        a[mode == 0] = 0.0
        a[mode == 1] = 1.0
    return a


def all_graphs(n: int):
    """Yield every labeled graph on n vertices as an edge list."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]


def is_connected_edges(n: int, edges) -> bool:
    if n == 1:
        return True
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connected_graphs(n: int):
    """Every labeled connected graph on n vertices."""
    for edges in all_graphs(n):
        if is_connected_edges(n, edges):
            yield edges


def oracle_profile(x: np.ndarray, eps: float) -> tuple[set, list]:
    """Profile edges and component labels by the pure-Python route: the
    epsilon rule tested pair by pair on ``squared_distances``, then
    union-find with labels numbered by first occurrence."""
    from mixedhk.dynamics import squared_distances

    n = x.shape[0]
    d2 = squared_distances(x)
    eps2 = eps * eps
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if d2[i, j] <= eps2:
                edges.add((i, j))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    labels = {}
    out = []
    for i in range(n):
        r = find(i)
        if r not in labels:
            labels[r] = len(labels)
        out.append(labels[r])
    return edges, out


def oracle_squared_distances(x: np.ndarray) -> np.ndarray:
    """The whole squared-distance matrix in one broadcast per coordinate,
    accumulated ascending: the full-matrix route the row blocks replaced."""
    acc = (x[:, None, 0] - x[None, :, 0]) ** 2
    for k in range(1, x.shape[1]):
        acc = acc + (x[:, None, k] - x[None, :, k]) ** 2
    return acc


def oracle_analyze_state(state):
    """The eager state analysis: mask, degrees, labels, component diameters,
    diameter and capped energy, all from one full squared-distance matrix
    computed up front."""
    from types import SimpleNamespace

    from mixedhk.profile import _component_labels

    d2 = oracle_squared_distances(state.x)
    eps2 = state.epsilon * state.epsilon
    mask = d2 <= eps2
    degrees = mask.sum(axis=1)
    labels = _component_labels(mask, degrees)
    row_max = np.max(d2, axis=1, where=labels[:, None] == labels[None, :], initial=0.0)
    block_max = np.zeros(int(labels.max()) + 1)
    np.maximum.at(block_max, labels, row_max)
    return SimpleNamespace(t=state.t, x=state.x, epsilon=state.epsilon, n=state.n,
                           mask=mask, degrees=degrees, labels=labels,
                           component_diameters=np.sqrt(block_max).tolist(),
                           diameter=float(np.sqrt(d2.max())),
                           energy=float(np.minimum(d2, eps2).sum()))


def _oracle_affine_minimizer(Vs: np.ndarray) -> np.ndarray:
    """Weights mu (summing to 1, sign-free) minimizing ||mu @ Vs||."""
    m = Vs.shape[0]
    A = np.empty((m + 1, m + 1))
    A[:m, :m] = Vs @ Vs.T
    A[:m, m] = 1.0
    A[m, :m] = 1.0
    A[m, m] = 0.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(A, b, rcond=None)[0]
    return sol[:m]


def oracle_hull_distance(P: np.ndarray, Q: np.ndarray, *, atol: float = 1e-9,
                         max_iter: int = 1000) -> float:
    """Euclidean distance between the convex hulls of two point sets: the
    min-norm point of the difference set by Wolfe's corral method, one
    problem at a time with scalar control flow (a Python list for the
    corral, one ``solve`` per affine minimizer). ``wolfe.min_norm_distances``
    must reproduce its bits, its verdicts and its NumericalFailure (best
    value and gap bound) on every problem of a stack."""
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("hull_distance needs two nonempty point sets")
    if P.shape[1] != Q.shape[1]:
        raise ValueError(f"dimension mismatch: {P.shape[1]} vs {Q.shape[1]}")
    # vertices of the difference set {p - q}
    V = (P[:, None, :] - Q[None, :, :]).reshape(-1, P.shape[1])
    norms2 = np.einsum("ij,ij->i", V, V)
    scale2 = float(norms2.max())
    scale = float(np.sqrt(scale2))
    zero_tol = 1e-12 * (1.0 + scale)
    gap_tol = 1e-14 * max(scale2, 1e-300)

    corral = [int(np.argmin(norms2))]
    lam = np.array([1.0])
    x = V[corral[0]].copy()
    gap = float("inf")

    for _ in range(max_iter):
        nrm = float(np.linalg.norm(x))
        if nrm <= zero_tol:
            return 0.0
        dots = V @ x
        s = int(np.argmin(dots))
        gap = float(x @ x - dots[s])
        if gap <= gap_tol:
            return nrm
        if s in corral:
            # the corral cannot improve further; accept within contract
            if gap <= atol * (nrm + atol):
                return nrm
            break
        corral.append(s)
        lam = np.append(lam, 0.0)
        # minor loop: pull the corral back to a feasible affine minimizer
        while True:
            Vs = V[corral]
            mu = _oracle_affine_minimizer(Vs)
            if np.all(mu > 1e-12):
                lam = mu
                x = mu @ Vs
                break
            neg = np.flatnonzero(mu <= 1e-12)
            thetas = lam[neg] / (lam[neg] - mu[neg])
            pick = int(np.argmin(thetas))
            theta = min(1.0, max(0.0, float(thetas[pick])))
            lam = theta * mu + (1.0 - theta) * lam
            drop = int(neg[pick])
            keep = np.ones(len(corral), dtype=bool)
            keep[drop] = False
            keep &= ~(lam <= 1e-14)
            if not keep.any():
                keep[int(np.argmax(lam))] = True
            corral = [corral[i] for i in range(len(corral)) if keep[i]]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = lam @ V[corral]
            if len(corral) == 1:
                break
    nrm = float(np.linalg.norm(x))
    if nrm <= zero_tol:
        return 0.0
    gap = float(x @ x - (V @ x).min())  # fresh bound for the final verdict
    if gap <= atol * (nrm + atol):
        return nrm
    raise NumericalFailure(
        f"hull_distance did not converge in {max_iter} iterations "
        f"(best {nrm}, gap bound {gap})",
        best=nrm,
        gap=gap,
    )


def oracle_hull_distances(x: np.ndarray, next_x: np.ndarray, mask: np.ndarray,
                          max_iter: int = 1000) -> np.ndarray:
    """Per agent, the distance of its new opinion from the convex hull of its
    neighbors' previous opinions (``mask`` rows): one scalar
    ``oracle_hull_distance`` call per agent."""
    return np.array([oracle_hull_distance(next_x[i][None, :], x[np.flatnonzero(mask[i])],
                                          max_iter=max_iter)
                     for i in range(x.shape[0])])


def oracle_opinions_equal(a: np.ndarray, b: np.ndarray, rel: float = 1e-14) -> bool:
    """Merge equality of one pair: bitwise fast path, then relative slack."""
    if a.tobytes() == b.tobytes():
        return True
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max()) <= rel * scale


def oracle_merge_events(states: list) -> list[tuple]:
    """(t, i, j, departed) merge events by pairwise comparison, with a
    forward scan for a later separation."""
    n = states[0].shape[0]
    events = []
    for t in range(1, len(states)):
        x_prev, x_now = states[t - 1], states[t]
        for i in range(n):
            for j in range(i + 1, n):
                if (oracle_opinions_equal(x_now[i], x_now[j])
                        and not oracle_opinions_equal(x_prev[i], x_prev[j])):
                    departed = any(
                        not oracle_opinions_equal(states[s][i], states[s][j])
                        for s in range(t + 1, len(states))
                    )
                    events.append((t, i, j, departed))
    return events


def oracle_movement_budget(traj, agent: int, slack: float = 1e-12) -> tuple:
    """(terms, partial sums, step-wise verdicts, violations) of one agent,
    with a fresh neighbor matrix and a per-agent norm at every step."""
    from mixedhk.dynamics import neighbor_matrix

    terms, sums, ok = [], [], []
    running = 0.0
    violations = 0
    for t in range(traj.steps):
        state = traj.state_at(t)
        idx = np.flatnonzero(neighbor_matrix(state)[agent])
        count = len(idx)
        if count <= 1:
            spread = 0.0
        else:
            diffs = state.x[idx] - state.x[agent]
            spread = float(np.sqrt((diffs * diffs).sum(axis=1).max()))
        a = float(traj.alphas[t][agent])
        term = (1.0 - a) * (1.0 - 1.0 / count) * spread
        movement = float(np.linalg.norm(traj.states[t + 1][agent] - traj.states[t][agent]))
        good = movement <= term + slack
        violations += not good
        terms.append(term)
        running += term
        sums.append(running)
        ok.append(good)
    return tuple(terms), tuple(sums), tuple(ok), violations


def oracle_step_record(alpha, now, nxt, *, interaction: bool, hull: bool) -> dict:
    """The record of step t -> t+1 evaluated for that one step alone, from
    the eager analyses (``oracle_analyze_state``) of both states: the
    per-step route that the checker's block settling replaced."""
    from mixedhk.monitors import (DIAM_SLACK, ENERGY_SLACK, HULL_TOL, contraction_coefficient)
    from mixedhk.profile import HullBuffer

    alpha = np.asarray(alpha, dtype=np.float64)
    disp_sq = ((nxt.x - now.x) ** 2).sum(axis=1)
    ratio = np.divide(alpha, 1.0 - alpha, out=np.zeros(now.n), where=alpha < 1.0)
    bound = float(4.0 * ((1.0 + now.degrees * ratio) * disp_sq).sum())
    drop = now.energy - nxt.energy
    d_before, d_after = now.diameter, nxt.diameter
    trivial = now.n >= 2 and d_before <= now.epsilon
    beta = contraction_coefficient(alpha) if trivial else None
    interact = bool((nxt.mask & (now.labels[:, None] != now.labels[None, :])).any())
    return {
        "t": now.t,
        "energy": now.energy,
        "energy_next": nxt.energy,
        "energy_drop": drop,
        "energy_drop_bound": bound,
        "energy_ok": drop >= bound - ENERGY_SLACK * now.n**2 * now.epsilon**2,
        "contraction_coeff": beta,
        "diam_global": d_before,
        "diam_per_component": list(now.component_diameters),
        "displacement_sq": disp_sq.tolist(),
        "epsilon_trivial": trivial,
        "contraction_ok": d_after <= beta * d_before + DIAM_SLACK if trivial else None,
        "nonexpansion_ok": d_after <= d_before + DIAM_SLACK,
        "interaction": interact if interaction else None,
        "hull_ok": HullBuffer().add(0, now, nxt.x).count_over(HULL_TOL) == 0 if hull else None,
    }


def step_record(state, next_state, alpha, *, interaction: bool = False,
                hull: bool = False) -> dict:
    """The step record of one transition, from a fresh eager analysis of each state."""
    return oracle_step_record(alpha, oracle_analyze_state(state),
                              oracle_analyze_state(next_state),
                              interaction=interaction, hull=hull)


class OracleChecker:
    """The per-step checker: each pushed step settles at once, from the
    eager analyses of its two states, one array expression per step. Its
    reports are what ``monitors.Checker``'s block settling must reproduce
    byte for byte."""

    def __init__(self, epsilon: float, delta=None, *, hull: bool = True):
        from mixedhk.profile import HullBuffer

        self.delta = epsilon / 4.0 if delta is None else delta
        self.hull = hull
        self.violations = {"energy_descent": 0, "contraction": 0, "nonexpansion": 0,
                           "movement_bound": 0, "equivalence": 0, "hull": 0,
                           "displacement_floor": 0}
        self.equivalence = [] if self.delta <= epsilon / 4.0 else None
        self.records = []
        self.partial_sums = None
        self._hull = HullBuffer()

    def push(self, alpha, now, nxt):
        from mixedhk.monitors import DIAM_SLACK
        from mixedhk.profile import neighbor_spread

        alpha = np.asarray(alpha, dtype=np.float64)
        record = oracle_step_record(alpha, now, nxt, interaction=True, hull=False)
        v = self.violations
        v["energy_descent"] += not record["energy_ok"]
        v["contraction"] += record["contraction_ok"] is False
        v["nonexpansion"] += not record["nonexpansion_ok"]
        move = nxt.x - now.x
        trivial = all(dm <= self.delta for dm in now.component_diameters)
        if not trivial and not (alpha >= 1.0).any():
            lhs = float((move ** 2).sum())
            floor = 2.0 * self.delta**2 * (1.0 - float(alpha.max())) ** 2 / move.shape[0]**8
            v["displacement_floor"] += not lhs > floor * (1.0 - 1e-9)
        if self.hull:
            self._hull.add(len(self.records), now, nxt.x)
        if self.equivalence is not None and trivial:
            c1 = any(dm > self.delta for dm in nxt.component_diameters)
            c2 = record["interaction"]
            c3 = any(dm > now.epsilon / 2.0 for dm in nxt.component_diameters)
            self.equivalence.append({"t": now.t, "next_nontrivial": c1, "interaction": c2,
                                     "half_eps_nontrivial": c3, "equivalent": c1 == c2 == c3})
            v["equivalence"] += not c1 == c2 == c3
        self.records.append(record)
        movable = np.flatnonzero(alpha < 1.0)
        spread = np.zeros(now.n)
        spread[movable] = neighbor_spread(now.x, now.mask[movable], movable)
        terms = (1.0 - alpha) * (1.0 - 1.0 / now.degrees) * spread
        movement = np.sqrt(np.matmul(move[:, None, :], move[:, :, None])[:, 0, 0])
        v["movement_bound"] += now.n - int(np.count_nonzero(movement <= terms + DIAM_SLACK))
        self.partial_sums = terms if self.partial_sums is None else self.partial_sums + terms
        self.last = nxt

    def report(self, traj) -> dict:
        import math

        from mixedhk.monitors import HULL_TOL, settling_bounds
        from mixedhk.profile import detect_merge_events

        if self._hull.nbytes:
            self.violations["hull"] += self._hull.count_over(HULL_TOL)
        last = getattr(self, "last", None) or oracle_analyze_state(traj.state_at(0))
        diameters = [r["diam_per_component"] for r in self.records] + [last.component_diameters]
        tau = next((t for t, diams in enumerate(diameters)
                    if all(dm <= self.delta for dm in diams)), None)
        violations = dict(self.violations)
        total = sum(violations.values())
        sup_a = traj.sup_alpha()
        tau_bound = interaction_bound = None
        if sup_a < 1.0 and self.delta <= traj.epsilon:
            tau_bound, interaction_bound = settling_bounds(traj.n, traj.epsilon, self.delta, sup_a)
            if tau_bound == math.inf:
                tau_bound = None
        return {
            "header": traj.header(),
            "delta": self.delta,
            "violations": violations,
            "total_violations": total,
            "energy_descent_violations": violations["energy_descent"],
            "contraction_violations": violations["contraction"],
            "tau_delta": tau,
            "tau_bound": tau_bound,
            "sup_alpha": sup_a,
            "consensus_reached": all(dm <= traj.consensus_tol for dm in last.component_diameters),
            "final_diameter": last.diameter,
            "partial_sums": ([0.0] * traj.n if self.partial_sums is None
                             else self.partial_sums.tolist()),
            "interaction_times": oracle_interaction_times(traj.epsilon, diameters),
            "interaction_bound": interaction_bound,
            "merge_events": detect_merge_events(traj.states) if len(traj.states) >= 2 else [],
            "interaction_equivalence": {"mismatches": violations["equivalence"]},
            "per_step": self.records,
            "ok": total == 0,
        }


def oracle_check(traj, delta=None, *, hull: bool = True) -> OracleChecker:
    """An ``OracleChecker`` pushed every stored transition of ``traj``."""
    checker = OracleChecker(traj.epsilon, delta, hull=hull)
    analyses = _oracle_analyses(traj)
    now = next(analyses)
    for alpha, nxt in zip(traj.alphas, analyses):
        checker.push(alpha, now, nxt)
        now = nxt
    return checker


def oracle_check_report(traj, delta=None, *, hull: bool = True) -> dict:
    """The check report of ``traj`` by the per-step route."""
    return oracle_check(traj, delta, hull=hull).report(traj)


def floor_verdict(state, next_state, alpha, delta: float) -> SimpleNamespace:
    """The displacement-floor verdict of one transition: ``applicable``,
    ``ok``, the left-hand side ``displacement_sq_sum``, the ``floor`` and a
    ``reason``, with delta-triviality from the components of
    ``oracle_profile`` and their ``diameter`` and the squared displacement
    summed agent by agent."""
    from mixedhk.profile import diameter

    alpha = np.asarray(alpha, dtype=np.float64)
    if any(a >= 1.0 for a in alpha.tolist()):
        return SimpleNamespace(applicable=False, ok=None, displacement_sq_sum=None,
                               floor=None, reason="some alpha_i = 1")
    _, labels = oracle_profile(state.x, state.epsilon)
    groups = [[i for i, label in enumerate(labels) if label == c] for c in set(labels)]
    if all(diameter(state.x[g]) <= delta for g in groups):
        return SimpleNamespace(applicable=False, ok=None, displacement_sq_sum=None,
                               floor=None, reason="every component delta-trivial")
    lhs = 0.0
    for before, after in zip(state.x, next_state.x):
        lhs += float(((after - before) ** 2).sum())
    floor = 2.0 * delta**2 * (1.0 - max(alpha.tolist())) ** 2 / state.n**8
    return SimpleNamespace(applicable=True, ok=lhs > floor * (1.0 - 1e-9),
                           displacement_sq_sum=lhs, floor=floor, reason="applicable")


def pushed_floor_violations(state, next_state, alpha, delta: float) -> int:
    """The displacement-floor count of a hull-free ``Checker`` pushed the one
    transition from ``state`` to ``next_state``."""
    from mixedhk.monitors import Checker
    from mixedhk.profile import analyze_state

    checker = Checker(state.epsilon, delta, hull=False)
    checker.push(alpha, analyze_state(state), analyze_state(next_state))
    return checker.violations["displacement_floor"]


def oracle_energy_drop_bound(state, next_state, alpha) -> float:
    """The energy-drop bound with the degrees from ``neighbor_matrix`` and a
    per-agent loop for the coefficients 1 + |N_i| alpha_i / (1 - alpha_i)."""
    from mixedhk.dynamics import neighbor_matrix

    degrees = neighbor_matrix(state).sum(axis=1)
    disp_sq = ((next_state.x - state.x) ** 2).sum(axis=1)
    coeff = np.ones(len(alpha))
    for i, a in enumerate(np.asarray(alpha, dtype=np.float64)):
        if a < 1.0:
            coeff[i] += float(degrees[i]) * (a / (1.0 - a))
    return float(4.0 * (coeff * disp_sq).sum())


def oracle_contraction(state, next_state, alpha) -> tuple:
    """(epsilon-trivial, contraction ok, non-expansion ok, coefficient,
    diameter before, diameter after), with both diameters from
    ``profile.diameter``."""
    from mixedhk.monitors import DIAM_SLACK, contraction_coefficient
    from mixedhk.profile import diameter

    before, after = diameter(state.x), diameter(next_state.x)
    nonexpansion = after <= before + DIAM_SLACK
    if state.n >= 2 and before <= state.epsilon:
        coeff = contraction_coefficient(alpha)
        return True, after <= coeff * before + DIAM_SLACK, nonexpansion, coeff, before, after
    return False, None, nonexpansion, None, before, after


def oracle_interaction_times(epsilon: float, comp_cache: list, m_max: int = 64) -> list[int]:
    """First-interaction times by rescanning every state's component
    diameters once per threshold epsilon/m, with a window scan per m."""

    def first_settled(delta):
        return next((t for t, diams in enumerate(comp_cache)
                     if all(dm <= delta for dm in diams)), None)

    horizon = len(comp_cache)
    times = set()
    taus = {}

    def tau(m):
        if m not in taus:
            taus[m] = first_settled(epsilon / m)
        return taus[m]

    for m in range(4, m_max + 1):
        t_m = tau(m)
        if t_m is None:
            break
        t_next = tau(m + 1)
        right = t_next if t_next is not None else horizon
        thr = epsilon / m
        for t in range(t_m, right):
            if any(dm > thr for dm in comp_cache[t]):
                times.add(t)
                break
    return sorted(times)


def _oracle_analyses(traj):
    """Each recorded state's eager analysis, built only when it is reached."""
    for t in range(len(traj.states)):
        yield oracle_analyze_state(traj.state_at(t))


def oracle_settling_time(traj, delta: float):
    """First recorded t at which every component's diameter is <= delta,
    from a fresh analysis of every state."""
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
    return next((t for t, a in enumerate(_oracle_analyses(traj))
                 if all(dm <= delta for dm in a.component_diameters)), None)


def oracle_first_interaction_times(traj) -> list[int]:
    """First-interaction times from a fresh analysis of every state."""
    return oracle_interaction_times(
        traj.epsilon, [a.component_diameters for a in _oracle_analyses(traj)])


def oracle_interaction_equivalence(traj, delta: float) -> dict:
    """The three interaction conditions at each step whose profile has only
    delta-trivial components, from a fresh analysis of every state and an
    edge test of the next mask against the current labels."""
    if not (0.0 < delta <= traj.epsilon / 4.0):
        raise ValueError(f"equivalence needs 0 < delta <= epsilon/4, got {delta}")
    steps = []
    analyses = _oracle_analyses(traj)
    now = next(analyses)
    for t, nxt in enumerate(analyses):
        if all(dm <= delta for dm in now.component_diameters):
            c1 = any(dm > delta for dm in nxt.component_diameters)
            c2 = bool((nxt.mask & (now.labels[:, None] != now.labels[None, :])).any())
            c3 = any(dm > traj.epsilon / 2.0 for dm in nxt.component_diameters)
            steps.append({"t": t, "next_nontrivial": c1, "interaction": c2,
                          "half_eps_nontrivial": c3, "equivalent": c1 == c2 == c3})
        now = nxt
    return {"delta": delta, "steps": steps,
            "mismatches": sum(not r["equivalent"] for r in steps),
            "interaction_steps": [r["t"] for r in steps if r["interaction"]]}


def oracle_consensus_envelope_check(traj, beta_cap: float) -> dict:
    """The consensus envelope with each state's diameter from
    ``profile.diameter``."""
    from mixedhk.monitors import contraction_coefficient
    from mixedhk.profile import diameter

    if not (0.0 < beta_cap < 1.0):
        raise ValueError(f"beta_cap must lie in (0, 1), got {beta_cap}")
    t1 = next((t for t, x in enumerate(traj.states) if diameter(x) <= traj.epsilon), None)
    if t1 is None or traj.n < 2:
        return {"applicable": False, "surrogate": True}
    d0 = diameter(traj.states[t1])
    slack = 1e-9 * max(d0, 1.0)
    prod = 1.0
    capped = 0
    envelope_ok = power_ok = True
    for t in range(t1, traj.steps):
        coeff = contraction_coefficient(traj.alphas[t])
        prod *= coeff
        capped += coeff <= beta_cap
        d_next = diameter(traj.states[t + 1])
        envelope_ok &= not d_next > prod * d0 + slack
        power_ok &= not d_next > beta_cap**capped * d0 + slack
    return {"applicable": True, "surrogate": True, "t_trivial": t1,
            "hypothesis_met": capped > 0, "contracting_steps": capped,
            "envelope_ok": envelope_ok, "power_envelope_ok": power_ok,
            "final_diameter": diameter(traj.states[-1])}


def oracle_schedule_alpha(schedule, t: int, n: int, seed=None) -> np.ndarray:
    """A schedule's stubbornness vector at time t, one time at a time: the
    asynchronous agent drawn by numpy's own generator, seeded by
    SeedSequence((key, t)). The scalar route the block draw replaced."""
    from mixedhk.errors import ConfigError, ScheduleExhaustedError

    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if schedule.kind == "synchronous":
        return np.zeros(n)
    if schedule.kind == "constant":
        if schedule.alpha.shape[0] != n:
            raise ConfigError(f"constant alpha has length {schedule.alpha.shape[0]}, expected {n}")
        return schedule.alpha.copy()
    if schedule.kind == "power_law":
        return np.full(n, 1.0 - min(1.0, 1.0 / float(t + 1) ** schedule.exponent))
    if schedule.kind == "table":
        if t >= len(schedule.table):
            raise ScheduleExhaustedError(
                f"table schedule has {len(schedule.table)} rows, queried at t={t}")
        row = schedule.table[t]
        if row.shape[0] != n:
            raise ConfigError(f"table row {t} has length {row.shape[0]}, expected {n}")
        return row.copy()
    key = schedule.seed if schedule.seed is not None else seed
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(key) & (2**64 - 1), int(t))))
    a = np.ones(n)
    a[int(rng.integers(0, n))] = 0.0
    return a


def oracle_simulate(config, checker=None):
    """The run one step at a time: each alpha from ``oracle_schedule_alpha``,
    each update from the full neighbor mask, each state analysed eagerly
    (``oracle_analyze_state``) and tested for a steady step, then for
    consensus; ``checker`` (an ``OracleChecker``) is pushed every step and
    the ``[monitors]`` records are made one step at a time. The per-state
    loop that block simulation replaced."""
    from mixedhk.dynamics import OpinionState, _advance
    from mixedhk.profile import detect_merge_events
    from mixedhk.trajectory import Trajectory

    flags = set(config.monitors)
    metrics = [] if flags - {"merge"} else None
    now = oracle_analyze_state(OpinionState(0, config.initial.copy(), config.epsilon))
    states, alphas = [now.x], []
    stop_reason = "horizon"
    for t in range(config.max_steps):
        alpha = oracle_schedule_alpha(config.schedule, t, config.n, config.seed)
        x = _advance(now.x, alpha, now.mask, now.degrees)
        nxt = oracle_analyze_state(OpinionState(t + 1, x, config.epsilon))
        states.append(x)
        alphas.append(alpha)
        if checker is not None:
            checker.push(alpha, now, nxt)
        if metrics is not None:
            metrics.append(oracle_step_record(alpha, now, nxt, interaction="interaction" in flags,
                                              hull="hull" in flags))
        if x.tobytes() == now.x.tobytes():
            stop_reason = "steady"
            break
        now = nxt
        if all(dm <= config.consensus_tol for dm in now.component_diameters):
            stop_reason = "consensus"
            break
    traj = Trajectory(n=config.n, d=config.d, epsilon=config.epsilon,
                      schedule=config.schedule.descriptor(), seed=config.seed, states=states,
                      alphas=alphas, stop_reason=stop_reason,
                      consensus_tol=config.consensus_tol, metrics=metrics)
    if "merge" in flags:
        traj.events = detect_merge_events(states)
    return traj


def oracle_one_run(config, seed: int, delta, hull: bool) -> dict:
    """One batch run's record by the two-pass route: simulate with every
    monitor off, then check the stored trajectory from scratch by the
    per-step route (``oracle_check_report``)."""
    from dataclasses import replace

    from mixedhk.simulate import simulate

    cfg = replace(config, seed=seed, initial=config.initial.copy(), monitors=())
    traj = simulate(cfg)
    report = oracle_check_report(traj, delta, hull=hull)
    single_mover_bad = 0
    if cfg.schedule.kind == "asynchronous":
        for t in range(traj.steps):
            moved = sum(traj.states[t][i].tobytes() != traj.states[t + 1][i].tobytes()
                        for i in range(traj.n))
            single_mover_bad += moved > 1
    return {
        "seed": seed,
        "steps": traj.steps,
        "stop_reason": traj.stop_reason,
        "violations": report["violations"],
        "total_violations": report["total_violations"] + single_mover_bad,
        "single_mover_violations": single_mover_bad,
        "tau_delta": report["tau_delta"],
        "consensus_reached": report["consensus_reached"],
        "final_diameter": report["final_diameter"],
    }


# Graph oracles: the edge-set routes for the Laplacian, the adjacency and
# averaging matrices and the generalized-Laplacian predicate, one loop over
# edges or vertex pairs each. The package reads all of them off the mask.

def oracle_laplacian(profile) -> np.ndarray:
    """Combinatorial Laplacian accumulated edge by edge."""
    L = np.zeros((profile.n, profile.n))
    for i, j in profile.edges:
        L[i, j] = L[j, i] = -1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
    return L


def oracle_adjacency(profile) -> np.ndarray:
    adj = np.zeros((profile.n, profile.n))
    for i, j in profile.edges:
        adj[i, j] = adj[j, i] = 1.0
    return adj


def oracle_averaging(profile) -> np.ndarray:
    """Averaging matrix of a profile: (adjacency + I) over its row sums."""
    adj = oracle_adjacency(profile) + np.eye(profile.n)
    return adj / adj.sum(axis=1)[:, None]


def oracle_is_generalized_laplacian(M: np.ndarray, profile) -> bool:
    """Pairwise generalized-Laplacian predicate, after the same shape and
    symmetry checks as the package."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (profile.n, profile.n):
        raise ValueError(f"matrix shape {M.shape} does not match n={profile.n}")
    if float(np.abs(M - M.T).max(initial=0.0)) > 1e-12:
        raise ValueError("matrix must be symmetric within 1e-12")
    edges = profile.edges
    for i in range(profile.n):
        for j in range(i + 1, profile.n):
            if (i, j) in edges:
                if not (M[i, j] < 0.0):
                    return False
            elif M[i, j] != 0.0:
                return False
    return True


def eigh_batch(mats: np.ndarray, *, sweeps: int = 14) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi over a stack of small symmetric matrices at once.

    Same rotation schedule and formulas as ``mixedhk.spectral.eigh``, vectorized across
    the batch axis so exhaustive graph sweeps stay cheap. Returns
    (eigenvalues (B, n) ascending, eigenvector columns (B, n, n)). Runs a
    fixed number of sweeps (quadratic convergence makes 14 ample for
    n <= 16) and raises NumericalFailure if any matrix still has
    off-diagonal mass afterwards.
    """
    A = np.array(mats, dtype=np.float64)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"need a (B, n, n) stack, got shape {A.shape}")
    B, n, _ = A.shape
    if n > CHEEGER_MAX_N:
        raise SizeLimitError(f"batched Jacobi intended for n <= {CHEEGER_MAX_N}, got {n}")
    scale = np.abs(A).max(axis=(1, 2))
    if float(np.abs(A - A.transpose(0, 2, 1)).max(initial=0.0)) > 1e-10 * max(scale.max(initial=0.0), 1.0):
        raise ValueError("matrices must be symmetric within 1e-10")
    A = (A + A.transpose(0, 2, 1)) / 2.0
    V = np.broadcast_to(np.eye(n), (B, n, n)).copy()
    if n == 1:
        return A[:, 0, :].copy(), V
    lanes = np.arange(B)
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[:, p, q]
                rotate = np.abs(apq) > 1e-300
                if not rotate.any():
                    continue
                theta = np.zeros(B)
                np.divide(A[:, q, q] - A[:, p, p], 2.0 * apq, out=theta, where=rotate)
                t = np.sign(theta) + (theta == 0.0)  # sign with 0 -> +1
                with np.errstate(over="ignore"):
                    t /= np.abs(theta) + np.sqrt(1.0 + theta * theta)
                big = np.abs(theta) > 1e150  # sqrt would overflow; use t ~ 1/(2 theta)
                if big.any():
                    with np.errstate(divide="ignore"):
                        t = np.where(big, 0.5 / theta, t)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                c = np.where(rotate, c, 1.0)
                s = np.where(rotate, s, 0.0)
                col_p = A[:, :, p].copy()
                col_q = A[:, :, q].copy()
                A[:, :, p] = c[:, None] * col_p - s[:, None] * col_q
                A[:, :, q] = s[:, None] * col_p + c[:, None] * col_q
                row_p = A[:, p, :].copy()
                row_q = A[:, q, :].copy()
                A[:, p, :] = c[:, None] * row_p - s[:, None] * row_q
                A[:, q, :] = s[:, None] * row_p + c[:, None] * row_q
                A[:, p, q] = np.where(rotate, 0.0, A[:, p, q])
                A[:, q, p] = A[:, p, q]
                vec_p = V[:, :, p].copy()
                vec_q = V[:, :, q].copy()
                V[:, :, p] = c[:, None] * vec_p - s[:, None] * vec_q
                V[:, :, q] = s[:, None] * vec_p + c[:, None] * vec_q
    off = A.copy()
    off[:, np.arange(n), np.arange(n)] = 0.0
    worst = np.abs(off).max(axis=(1, 2))
    bad = worst > 1e-10 * np.maximum(scale, 1e-300)
    if bad.any():
        raise NumericalFailure(
            f"batched Jacobi left {int(bad.sum())} matrices unconverged "
            f"(worst off-diagonal {float(worst.max())})",
            best=None, gap=float(worst.max()),
        )
    w = A[:, np.arange(n), np.arange(n)]
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    # canonical signs: largest-magnitude entry of each column positive
    idx = np.argmax(np.abs(V), axis=1)
    signs = np.sign(V[lanes[:, None], idx, np.arange(n)[None, :]])
    signs[signs == 0.0] = 1.0
    V = V * signs[:, None, :]
    return w, V


# Spectral oracles: the routes the package replaced by array passes, kept
# step for step, so the fast routes can be compared bit for bit. Cheeger
# counts each subset's boundary edge by edge; Jacobi rotates copies of the
# columns and rows of A and V one by one; the variational samples are drawn
# and evaluated one at a time.

def _oracle_popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    pop = np.zeros_like(masks)
    for b in range(n):
        pop += (masks >> b) & 1
    return pop


def oracle_cheeger_constant(profile) -> float:
    """Isoperimetric constant with one uint32 pass over all subsets per edge."""
    n = profile.n
    if n > CHEEGER_MAX_N:
        raise SizeLimitError(f"exhaustive Cheeger search capped at n <= {CHEEGER_MAX_N}")
    if n == 1:
        return float("inf")
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    pop = _oracle_popcounts(masks, n)
    boundary = np.zeros(masks.shape[0], dtype=np.uint32)
    for i, j in profile.edges:
        boundary += ((masks >> i) & 1) ^ ((masks >> j) & 1)
    valid = 2 * pop <= n
    return float((boundary[valid] / pop[valid]).min())


def oracle_eigh(M: np.ndarray, *, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi with numpy scalars and a copy of every rotated vector."""
    A = np.asarray(M, dtype=np.float64)
    n = A.shape[0]
    A = (A + A.T) / 2.0
    V = np.eye(n)
    if n == 1:
        return np.array([A[0, 0]]), V
    fro = float(np.sqrt((A * A).sum()))
    if fro == 0.0:
        return np.zeros(n), V
    for _ in range(max_sweeps):
        off = A - np.diag(np.diag(A))
        off_norm = float(np.sqrt((off * off).sum()))
        if off_norm <= 1e-14 * fro:
            break
        thresh = off_norm / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= thresh * 1e-4:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + np.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + np.sqrt(1.0 + theta * theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = A[q, p] = 0.0
                vec_p = V[:, p].copy()
                vec_q = V[:, q].copy()
                V[:, p] = c * vec_p - s * vec_q
                V[:, q] = s * vec_p + c * vec_q
    else:
        raise NumericalFailure(
            f"Jacobi sweep limit {max_sweeps} reached with off-diagonal norm {off_norm}",
            best=np.sort(np.diag(A)),
            gap=off_norm,
        )
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    w = w[order]
    V = V[:, order]
    for k in range(n):
        col = V[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            V[:, k] = -col
    return w, V


def oracle_lambda2_chain_check(profile, alpha: np.ndarray, *, samples: int = 1000,
                               seed: int = 0) -> dict:
    """The eigenvalue chain report with ``oracle_eigh`` and one draw, one
    norm and one quadratic form per variational sample."""
    from mixedhk.spectral import update_factorization

    fact = update_factorization(profile, alpha)
    n = profile.n
    alpha = np.asarray(alpha, dtype=np.float64)
    QtQ = fact.I_minus_B.T @ fact.I_minus_B
    w_qtq, _ = oracle_eigh(QtQ)
    tol = 1e-9 * max(float(np.abs(QtQ).max()), 1.0)
    near_zero = int(np.sum(np.abs(w_qtq) <= tol))
    ones = np.ones(n) / np.sqrt(n)
    zero_simple = near_zero == 1 and float(np.linalg.norm(QtQ @ ones)) <= tol
    w_lap, vecs_lap = oracle_eigh(fact.laplacian)
    lam2_qtq = float(w_qtq[1])
    lam2_lap = float(w_lap[1])
    floor = ((1.0 - float(alpha.max())) / n) ** 2 * lam2_lap**2
    perron = (w_lap[1] - w_lap[0]) > tol and bool(np.all(vecs_lap[:, 0] > 0.0))

    rng = np.random.default_rng(seed)
    variational = True
    worst = float("inf")
    for _ in range(samples):
        x = rng.standard_normal(n)
        x -= x.mean()
        nrm = np.linalg.norm(x)
        if nrm < 1e-12:
            continue
        x /= nrm
        val = float(x @ QtQ @ x)
        worst = min(worst, val)
        if val < lam2_qtq - tol:
            variational = False
    return {
        "zero_simple": bool(zero_simple),
        "chain_bound": bool(lam2_qtq >= floor - tol),
        "perron_frobenius": bool(perron),
        "variational": bool(variational),
        "lambda2_qtq": lam2_qtq,
        "lambda2_laplacian": lam2_lap,
        "chain_floor": floor,
        "variational_min_sampled": worst,
        "factorization_residual": fact.residual,
    }


def oracle_read_csv(path):
    """States and alphas of a CSV trajectory, read one row and one field at a
    time with ``int()`` and ``float()``: the reader ``trajio`` had before it
    parsed whole columns. Raises the ``IntegrityError`` that names the first
    bad row by its file line; the sidecar is not read."""
    import json
    from pathlib import Path

    from mixedhk.errors import IntegrityError
    from mixedhk.trajio import MAGIC, _check_header

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IntegrityError(f"{path}: cannot read trajectory: {exc}") from None
    lines = text.split("\n")
    if not lines or lines[0] != MAGIC:
        raise IntegrityError(f"{path}: not a trajectory file (bad or missing magic line); "
                             f"expected {MAGIC!r}")
    if len(lines) < 3 or not lines[1].startswith("# header="):
        raise IntegrityError(f"{path}: missing header line")
    try:
        header = _check_header(json.loads(lines[1][len("# header="):]), path)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"{path}: malformed header JSON: {exc}") from None
    n, d = header["n"], header["d"]
    expected_cols = "t,agent," + ",".join(f"x_{k}" for k in range(d)) + ",alpha"
    if lines[2] != expected_cols:
        raise IntegrityError(f"{path}: unexpected column header {lines[2]!r}")
    rows = [ln for ln in lines[3:] if ln.strip()]

    def bad_row(k: int, what: str) -> IntegrityError:
        lineno = 4 + [j for j, ln in enumerate(lines[3:]) if ln.strip()][k]
        return IntegrityError(f"{path}: row {lineno}: {what}")

    if len(rows) % n != 0:
        raise IntegrityError(f"{path}: truncated file: {len(rows)} data rows is not a "
                             f"multiple of n={n}")
    num_times = len(rows) // n
    states = []
    alphas = []
    row_iter = iter(enumerate(rows))
    for t in range(num_times):
        x = np.empty((n, d))
        a = np.empty(n)
        has_alpha = None
        for i in range(n):
            k, row = next(row_iter)
            parts = row.split(",")
            if len(parts) != d + 3:
                raise bad_row(k, f"expected {d + 3} fields, got {len(parts)}")
            try:
                row_t, row_i = int(parts[0]), int(parts[1])
                coords = [float(v) for v in parts[2:2 + d]]
            except ValueError:
                raise bad_row(k, f"malformed values in {row!r}") from None
            if row_t != t or row_i != i:
                raise bad_row(k, f"expected (t={t}, agent={i}), got (t={row_t}, agent={row_i})")
            x[i] = coords
            alpha_field = parts[2 + d]
            this_has = alpha_field != ""
            if has_alpha is None:
                has_alpha = this_has
            elif has_alpha != this_has:
                raise bad_row(k, f"inconsistent alpha column at t={t}")
            if this_has:
                try:
                    a[i] = float(alpha_field)
                except ValueError:
                    raise bad_row(k, f"malformed alpha {alpha_field!r}") from None
        states.append(x)
        if has_alpha:
            alphas.append(a)
        elif t != num_times - 1:
            raise IntegrityError(f"{path}: missing alpha column at non-final t={t}")
    expected = max(len(states) - 1, 0)
    if len(alphas) != expected:
        raise IntegrityError(f"{path}: {len(states)} states need {expected} "
                             f"alpha vectors, got {len(alphas)}")
    for t, a in enumerate(alphas):
        if not np.all((a >= 0.0) & (a <= 1.0)):
            raise IntegrityError(f"{path}: alpha at t={t} must hold finite stubbornness "
                                 f"values in [0, 1]")
    return states, alphas


def oracle_csv_text(traj) -> str:
    """A CSV trajectory's text, one row and one ``repr(float(v))`` at a time:
    the writer ``trajio`` had before it joined whole columns."""
    import json

    from mixedhk.trajio import MAGIC

    lines = [MAGIC, "# header=" + json.dumps(traj.header(), sort_keys=True)]
    lines.append("t,agent," + ",".join(f"x_{k}" for k in range(traj.d)) + ",alpha")
    last = len(traj.states) - 1
    for t, x in enumerate(traj.states):
        for i in range(traj.n):
            coords = ",".join(repr(float(v)) for v in x[i])
            alpha = repr(float(traj.alphas[t][i])) if t < last else ""
            lines.append(f"{t},{i},{coords},{alpha}")
    return "\n".join(lines) + "\n"
