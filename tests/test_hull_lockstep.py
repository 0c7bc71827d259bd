"""The lockstep hull check, per step and buffered over many steps, checked
bit for bit against one scalar ``hull_distance`` call per agent (the
conftest oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixedhk.monitors as monitors
import mixedhk.profile as profile
from mixedhk import (Checker, ModelConfig, NumericalFailure, OpinionState, StubbornnessSchedule,
                     check_trajectory, compute_step_metrics, simulate, step)
from mixedhk.monitors import HULL_TOL
from mixedhk.profile import HullBuffer, analyze_state, neighbor_hull_distances
from conftest import oracle_hull_distances

EPS = 1.0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _thin_clusters(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Clusters of three agents on nearly straight lines, 3 apart along the
    first axis, so no two clusters are neighbors."""
    cluster = np.arange(n) // 3
    direction = rng.normal(size=(cluster[-1] + 1, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    x = rng.uniform(0.0, 0.9, (n, 1)) * direction[cluster]
    x[:, 0] += 3.0 * cluster
    return x + rng.normal(scale=1e-6, size=(n, d))


def _layout(rng: np.random.Generator, kind: str, n: int, d: int) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(0.0, rng.choice([0.5, 1.5, 3.0]), (n, d))
    if kind == "coincident":  # every agent exactly on one of a few points
        centers = rng.uniform(0.0, 2.0, (int(rng.integers(1, 4)), d))
        return centers[rng.integers(0, len(centers), n)]
    if kind == "isolated":  # every agent alone, 2 apart along the first axis
        x = rng.uniform(0.0, 0.5, (n, d))
        x[:, 0] += 2.0 * np.arange(n)
        return x
    return _thin_clusters(rng, n, d)


def _check_step(x: np.ndarray, next_x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Assert that the lockstep distances, the step record's ``hull_ok`` and a
    checker's hull count all agree with the oracle; returns its distances."""
    state, nxt = OpinionState(0, x, EPS), OpinionState(1, next_x, EPS)
    now = analyze_state(state)
    want = oracle_hull_distances(x, next_x, now.mask)
    got = np.fromiter(neighbor_hull_distances(now, next_x), dtype=np.float64)
    assert np.array_equal(_bits(got), _bits(want))
    strays = int(np.count_nonzero(want > HULL_TOL))
    assert compute_step_metrics(state, nxt, alpha, hull=True).hull_ok is (strays == 0)
    checker = Checker(EPS)
    checker.push(alpha, now, analyze_state(nxt, now))
    assert checker.violations["hull"] == strays
    return want


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
       d=st.sampled_from([1, 2, 3, 8, 9]),
       alphas=st.lists(st.sampled_from([0.0, 0.3, 0.6, 1.0]), min_size=1, max_size=4,
                       unique=True),
       kind=st.sampled_from(["uniform", "coincident", "isolated", "thin"]),
       jitter=st.sampled_from([0.0, 1e-9, 1e-3]))
def test_lockstep_matches_per_agent_hull_distance(seed, n, d, alphas, kind, jitter):
    rng = np.random.default_rng(seed)
    x = _layout(rng, kind, n, d)
    alpha = rng.choice(alphas, n)
    next_x = step(OpinionState(0, x, EPS), alpha).x
    # a nonzero jitter makes a step that is no dynamics step: agents leave their hulls
    _check_step(x, next_x + rng.normal(scale=jitter, size=x.shape) if jitter else next_x, alpha)


def test_thin_clusters_keep_their_strays(monkeypatch):
    # the known false-positive shape: Wolfe residuals of 1e-12 to 1e-11 on
    # nearly collinear three-agent clusters stay above HULL_TOL
    calls = _counting(monkeypatch)
    rng = np.random.default_rng(5)
    x = _thin_clusters(rng, 60, 2)
    alpha = rng.choice([0.0, 0.3, 0.6], 60)
    want = _check_step(x, step(OpinionState(0, x, EPS), alpha).x, alpha)
    assert np.count_nonzero(want > HULL_TOL) >= 5
    assert calls == []  # every problem, minor-loop drops included, solved in lockstep


def _counting(monkeypatch) -> list:
    """Record the vertex set of every rerun: ``profile.vertex_set_norm``
    calls ``hull_distance(V, 0)``."""
    calls = []
    original = profile.hull_distance

    def counted(p, q, **kwargs):
        calls.append(p.tobytes())
        return original(p, q, **kwargs)

    monkeypatch.setattr(profile, "hull_distance", counted)
    return calls


def _singular_when_stacked(monkeypatch) -> None:
    """Fail every stacked solve, so each problem that reaches Wolfe's minor
    loop is rerun."""
    solve = np.linalg.solve

    def singular_when_stacked(a, b):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)


# agent 0 moves to a point whose Wolfe run drops a vertex in the minor loop
TRIANGLE = np.array([[0.0, 0.1], [0.2, 0.7], [0.2, 0.6]])
DROP_POINT = [0.0, 0.6]


def test_minor_loop_drop_is_solved_in_lockstep(monkeypatch):
    calls = _counting(monkeypatch)
    next_x = TRIANGLE.copy()
    next_x[0] = DROP_POINT
    want = _check_step(TRIANGLE, next_x, np.zeros(3))
    assert want[0] == 0.158113883008419  # the oracle's bits, which _check_step matched
    assert calls == []


@pytest.mark.parametrize("stray_first", [True, False])
def test_rerun_failure_surfaces_where_the_per_agent_route_raised(monkeypatch, stray_first):
    # one isolated agent leaves its hull (a stray settled in lockstep) and
    # one triangle agent needs a rerun (its stacked solve fails), which
    # here fails too; the step record stops at the first stray, as any()
    # over the agents did, and a checker counts every agent, so it meets
    # the failure when its buffer is solved
    _singular_when_stacked(monkeypatch)
    original = profile.hull_distance
    lone, moved = [5.0, 5.0], [5.5, 5.0]
    failing_set = (np.array(DROP_POINT) - TRIANGLE).tobytes()

    def failing(p, q, **kwargs):
        if p.tobytes() == failing_set:
            raise NumericalFailure("no convergence", best=1.0, gap=1.0)
        return original(p, q, **kwargs)

    monkeypatch.setattr(profile, "hull_distance", failing)
    x = np.array([lone, *TRIANGLE] if stray_first else [*TRIANGLE, lone])
    next_x = x.copy()
    next_x[0 if stray_first else 3] = moved
    next_x[1 if stray_first else 0] = DROP_POINT
    state, nxt = OpinionState(0, x, EPS), OpinionState(1, next_x, EPS)
    alpha = np.zeros(4)
    if stray_first:
        assert compute_step_metrics(state, nxt, alpha, hull=True).hull_ok is False
    else:
        with pytest.raises(NumericalFailure):
            compute_step_metrics(state, nxt, alpha, hull=True)
    now = analyze_state(state)
    checker = Checker(EPS)
    checker.push(alpha, now, analyze_state(nxt, now))  # buffered, not yet solved
    with pytest.raises(NumericalFailure):
        _ = checker.violations


def test_singular_stack_is_rerun(monkeypatch):
    # a singular system among a stack fails the stacked solve; every problem
    # of that stack is then rerun, and the distances stay the oracle's
    solve = np.linalg.solve

    def singular_when_stacked(a, b):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)
    calls = _counting(monkeypatch)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.5, (12, 2))
    alpha = rng.choice([0.0, 0.3], 12)
    _check_step(x, step(OpinionState(0, x, EPS), alpha).x + rng.normal(scale=1e-3, size=x.shape),
                alpha)
    assert calls


def _run(seed: int, n: int, d: int, steps: int, jitter: float = 0.0):
    """A constant-schedule run of thin clusters and one wide cloud, as
    (alphas, analyses); a nonzero jitter moves every stored opinion."""
    rng = np.random.default_rng(seed)
    x = np.concatenate([_thin_clusters(rng, n // 2, d), rng.uniform(-1.0, 1.5, (n - n // 2, d))])
    alpha = rng.choice([0.0, 0.3, 0.6], n)
    traj = simulate(ModelConfig(x, EPS, StubbornnessSchedule("constant", alpha=alpha), steps,
                                seed=seed, monitors=(), consensus_tol=1e-300))
    states = [s + rng.normal(scale=jitter, size=s.shape) if jitter else s for s in traj.states]
    analyses = [analyze_state(OpinionState(0, states[0], EPS))]
    for t, s in enumerate(states[1:], 1):
        analyses.append(analyze_state(OpinionState(t, s, EPS), analyses[-1]))
    return traj.alphas, analyses


def _spy_flushes(monkeypatch) -> list:
    """Record the buffered bytes at every add (before, after) and every solve (None)."""
    events = []
    add, count_over = HullBuffer.add, HullBuffer.count_over

    def spied_add(self, step, now, next_x):
        before = self.nbytes
        add(self, step, now, next_x)
        events.append((before, self.nbytes))

    def spied_count_over(self, tol):
        events.append(None)
        return count_over(self, tol)

    monkeypatch.setattr(HullBuffer, "add", spied_add)
    monkeypatch.setattr(HullBuffer, "count_over", spied_count_over)
    return events


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("jitter", (0.0, 1e-3))
def test_buffered_checker_counts_what_each_step_counts(d, jitter, monkeypatch):
    budget = 4096
    monkeypatch.setattr(monitors, "HULL_BUFFER_BYTES", budget)
    events = _spy_flushes(monkeypatch)
    alphas, analyses = _run(10 + d, 40, d, 12, jitter)
    checker = Checker(EPS)
    for t, alpha in enumerate(alphas):
        checker.push(alpha, analyses[t], analyses[t + 1])
        assert checker._hull.nbytes < budget  # solved once it reached the budget
    flushes_while_pushing = events.count(None)
    strays = checker.violations["hull"]
    assert flushes_while_pushing >= 2 and events[-1] is None
    assert strays == sum(dist > HULL_TOL for t in range(len(alphas))
                         for dist in neighbor_hull_distances(analyses[t], analyses[t + 1].x))
    # the buffer never holds more than the budget and one step's stacks:
    # each add finds it below the budget
    assert all(event[0] < budget for event in events if event is not None)
    if jitter:
        assert strays > 0


def test_checker_reruns_in_step_and_agent_order(monkeypatch):
    # every problem that reaches the minor loop is rerun; the buffered
    # checker must make the reruns the per-step route makes, in its order
    # (steps, then agents), whatever neighbor count each problem has
    _singular_when_stacked(monkeypatch)
    calls = _counting(monkeypatch)
    alphas, analyses = _run(4, 30, 2, 6, 1e-9)
    per_step = [sum(dist > HULL_TOL for dist in neighbor_hull_distances(analyses[t], analyses[t + 1].x))
                for t in range(len(alphas))]
    want = calls[:]
    calls.clear()
    assert len({len(c) for c in want}) > 1  # reruns of several neighbor counts
    checker = Checker(EPS)
    for t, alpha in enumerate(alphas):
        checker.push(alpha, analyses[t], analyses[t + 1])
    assert calls == []  # all buffered
    assert checker.violations["hull"] == sum(per_step)
    assert calls == want


def test_checker_without_hull_buffers_nothing(monkeypatch):
    def no_stacks(now, next_x):
        raise AssertionError("a checker without the hull built hull problems")

    monkeypatch.setattr(profile, "hull_stacks", no_stacks)
    alphas, analyses = _run(7, 20, 2, 5)
    checker = Checker(EPS, hull=False)
    for t, alpha in enumerate(alphas):
        checker.push(alpha, analyses[t], analyses[t + 1])
        assert checker._hull.nbytes == 0 and checker._hull.stacks == {}
    assert checker.violations["hull"] == 0


def test_stored_check_matches_the_per_step_count():
    # check_trajectory, through the default budget, against the per-step route
    rng = np.random.default_rng(21)
    x = _thin_clusters(rng, 45, 2)
    alpha = rng.choice([0.0, 0.3, 0.6], 45)
    traj = simulate(ModelConfig(x, EPS, StubbornnessSchedule("constant", alpha=alpha), 15,
                                seed=0, monitors=(), consensus_tol=1e-300))
    strays = 0
    now = analyze_state(traj.state_at(0))
    for t in range(traj.steps):
        nxt = analyze_state(traj.state_at(t + 1), now)
        strays += int(np.count_nonzero(oracle_hull_distances(now.x, nxt.x, now.mask) > HULL_TOL))
        now = nxt
    assert strays > 0
    assert check_trajectory(traj)["violations"]["hull"] == strays
