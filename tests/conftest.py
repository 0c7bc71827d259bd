"""Shared test helpers: independently coded oracles and generators.

The oracles here deliberately avoid the package's own numpy kernels: plain
Python floats, explicit loops, the documented evaluation order. They exist so
that engine results can be checked against a second implementation.
"""

from __future__ import annotations

import numpy as np


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
