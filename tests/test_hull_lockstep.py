"""The lockstep hull check, checked bit for bit against one scalar
``hull_distance`` call per agent (the conftest oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixedhk.profile as profile
from mixedhk import Checker, NumericalFailure, OpinionState, compute_step_metrics, step
from mixedhk.monitors import HULL_TOL
from mixedhk.profile import analyze_state, neighbor_hull_distances
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


def test_thin_clusters_keep_their_strays():
    # the known false-positive shape: Wolfe residuals of 1e-12 to 1e-11 on
    # nearly collinear three-agent clusters stay above HULL_TOL
    rng = np.random.default_rng(5)
    x = _thin_clusters(rng, 60, 2)
    alpha = rng.choice([0.0, 0.3, 0.6], 60)
    want = _check_step(x, step(OpinionState(0, x, EPS), alpha).x, alpha)
    assert np.count_nonzero(want > HULL_TOL) >= 5


def _counting(monkeypatch) -> list:
    calls = []
    original = profile.hull_distance

    def counted(p, q, **kwargs):
        calls.append(p[0].tolist())
        return original(p, q, **kwargs)

    monkeypatch.setattr(profile, "hull_distance", counted)
    return calls


# agent 0 moves to a point whose Wolfe run drops a vertex in the minor loop
TRIANGLE = np.array([[0.0, 0.1], [0.2, 0.7], [0.2, 0.6]])
DROP_POINT = [0.0, 0.6]


def test_minor_loop_drop_is_rerun_by_hull_distance(monkeypatch):
    calls = _counting(monkeypatch)
    next_x = TRIANGLE.copy()
    next_x[0] = DROP_POINT
    want = _check_step(TRIANGLE, next_x, np.zeros(3))
    assert want[0] == pytest.approx(0.158113883008419, abs=1e-12)
    assert DROP_POINT in calls


@pytest.mark.parametrize("stray_first", [True, False])
def test_rerun_failure_surfaces_where_the_per_agent_route_raised(monkeypatch, stray_first):
    # one isolated agent leaves its hull (a stray settled in lockstep) and
    # one triangle agent needs a rerun, which here fails; the step record
    # stops at the first stray, as any() over the agents did, and a checker
    # counts every agent, so it meets the failure
    original = profile.hull_distance

    def failing(p, q, **kwargs):
        if p[0].tolist() == DROP_POINT:
            raise NumericalFailure("no convergence", best=1.0, gap=1.0)
        return original(p, q, **kwargs)

    monkeypatch.setattr(profile, "hull_distance", failing)
    lone, moved = [5.0, 5.0], [5.5, 5.0]
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
    with pytest.raises(NumericalFailure):
        Checker(EPS).push(alpha, now, analyze_state(nxt, now))


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
