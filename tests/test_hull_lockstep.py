"""The lockstep Wolfe kernel and the hull check that drives it, per step and
buffered over many steps, checked bit for bit against the scalar Wolfe loop
(the conftest oracle), one problem at a time."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixedhk.monitors as monitors
import mixedhk.profile as profile
import mixedhk.wolfe as wolfe
from mixedhk import (Checker, ModelConfig, NumericalFailure, OpinionState, StubbornnessSchedule,
                     check_trajectory, simulate, step)
from mixedhk.monitors import HULL_TOL
from mixedhk.profile import HullBuffer, analyze_state, hull_distance, hull_stacks
from mixedhk.wolfe import min_norm_distances
from conftest import oracle_hull_distance, oracle_hull_distances, step_record

EPS = 1.0


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _outcome(hull, P, Q, **kwargs) -> tuple:
    """What ``hull(P, Q)`` returns, as bits, or the best value, gap bound and
    message of the NumericalFailure it raises."""
    try:
        return ("returns", int(_bits(hull(P, Q, **kwargs))))
    except NumericalFailure as failure:
        return ("raises", int(_bits(failure.best)), int(_bits(failure.gap)), str(failure))


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


def _kernel_distances(now, next_x: np.ndarray) -> np.ndarray:
    """Every agent's hull distance from ``hull_stacks`` and one kernel call
    per stack, each of which must converge."""
    dist = np.zeros(now.n)
    for agents, V in hull_stacks(now, next_x):
        dist[agents], failed = min_norm_distances(V)
        assert failed == {}
    return dist


def _check_step(x: np.ndarray, next_x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Assert that the kernel's distances, the step record's ``hull_ok`` and
    a checker's hull count all agree with the oracle; returns its distances."""
    state, nxt = OpinionState(0, x, EPS), OpinionState(1, next_x, EPS)
    now = analyze_state(state)
    want = oracle_hull_distances(x, next_x, now.mask)
    assert np.array_equal(_bits(_kernel_distances(now, next_x)), _bits(want))
    strays = int(np.count_nonzero(want > HULL_TOL))
    assert step_record(state, nxt, alpha, hull=True)["hull_ok"] is (strays == 0)
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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), p=st.integers(1, 8),
       q=st.integers(1, 8), kind=st.sampled_from(["apart", "combinations", "shared"]),
       scale=st.sampled_from([1e-6, 1.0, 1e3]), max_iter=st.sampled_from([1, 3, 1000]))
def test_hull_distance_matches_the_scalar_oracle(seed, d, p, q, kind, scale, max_iter):
    # one kernel call on a stack of one: the oracle's bits, verdicts and failures
    rng = np.random.default_rng(seed)
    Q = rng.normal(scale=scale, size=(q, d))
    if kind == "apart":
        P = rng.normal(scale=scale, size=(p, d)) + rng.normal(scale=2.0 * scale, size=d)
    else:  # points of Q's hull: convex combinations, and in "shared" one point of Q
        P = rng.dirichlet(np.ones(q), size=p) @ Q
        if kind == "shared":
            P[0] = Q[rng.integers(q)]
    got = _outcome(hull_distance, P, Q, max_iter=max_iter)
    assert got == _outcome(oracle_hull_distance, P, Q, max_iter=max_iter)
    if kind == "shared":
        assert got == ("returns", 0)  # +0.0: the zero vertex ends the first iteration


# Vertex sets whose Wolfe run reaches the 1000-iteration cap: nearly
# collinear points whose corral keeps cycling. The final verdict accepts the
# first two within ATOL and rejects the last two.
CAPPED = {
    "returns-3": [[1.100000000000012, 0.5999999999999289], [1.099999999999937, 0.599999999999832],
                  [-0.8999999999998051, 0.20000000000009202]],
    "returns-4": [[0.2759300236371216, -0.5999999990733519],
                  [-1.0998253854730242, -0.5999999999813131],
                  [-0.4350434471568059, -0.5999999990577973],
                  [-1.0842924504007434, -0.5999999998234543]],
    "raises-4a": [[1.4891549315865402, 0.5000000004576063], [0.06961068873483023, 0.5000000008477542],
                  [1.2096174833172155, 0.5000000007926957],
                  [-0.2226446961070241, 0.5000000005685558]],
    "raises-4b": [[0.7768644691709371, 0.6999999900026765], [0.45298176753154173, 0.6999999906214162],
                  [-0.14607928368560386, 0.7000000032393515],
                  [-0.1988306438941524, 0.7000000004834609]],
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_iteration_cap_takes_the_final_verdict(name, monkeypatch):
    passes = []
    minor_loop = wolfe._minor_loop

    def counted(*args):
        passes.append(None)
        return minor_loop(*args)

    monkeypatch.setattr(wolfe, "_minor_loop", counted)
    V, origin = np.array(CAPPED[name]), np.zeros((1, 2))
    got = _outcome(hull_distance, V, origin)
    assert len(passes) == wolfe.MAX_ITER  # one minor loop per major iteration: the cap
    assert got[0] == name.split("-")[0]
    assert got == _outcome(oracle_hull_distance, V, origin)


def test_thin_clusters_keep_their_strays():
    # the known false-positive shape: Wolfe residuals of 1e-12 to 1e-11 on
    # nearly collinear three-agent clusters stay above HULL_TOL
    rng = np.random.default_rng(5)
    x = _thin_clusters(rng, 60, 2)
    alpha = rng.choice([0.0, 0.3, 0.6], 60)
    want = _check_step(x, step(OpinionState(0, x, EPS), alpha).x, alpha)
    assert np.count_nonzero(want > HULL_TOL) >= 5


def _singular_when_stacked(monkeypatch) -> list:
    """Fail every stacked solve; returns the ndim of every solve call."""
    solve = np.linalg.solve
    calls = []

    def singular_when_stacked(a, b):
        calls.append(np.ndim(a))
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_when_stacked)
    return calls


def _lower_the_cap(monkeypatch, max_iter: int) -> None:
    """Make the hull check's kernel calls stop after ``max_iter`` major
    iterations, so problems that need more fail."""
    monkeypatch.setattr(profile, "min_norm_distances",
                        functools.partial(wolfe.min_norm_distances, max_iter=max_iter))


def _first_failure(steps, max_iter: int) -> tuple:
    """The (step, agent) order of the oracle's failures over ``steps``, a
    list of (x, next_x, mask), and the first one's (best, gap)."""
    failing, first = [], None
    for t, (x, next_x, mask) in enumerate(steps):
        for i in range(len(x)):
            try:
                oracle_hull_distance(next_x[i][None, :], x[np.flatnonzero(mask[i])],
                                     max_iter=max_iter)
            except NumericalFailure as failure:
                failing.append((t, i, int(mask[i].sum())))
                first = first or (failure.best, failure.gap)
    return failing, first


# agent 0 moves to a point whose Wolfe run drops a vertex in the minor loop
TRIANGLE = np.array([[0.0, 0.1], [0.2, 0.7], [0.2, 0.6]])
DROP_POINT = [0.0, 0.6]
SQUARE = np.array([[10.0, 0.0], [10.5, 0.0], [10.5, 0.5], [10.0, 0.5]])
INSIDE_SQUARE = [10.2, 0.1]


def test_minor_loop_drop_is_solved_in_lockstep():
    next_x = TRIANGLE.copy()
    next_x[0] = DROP_POINT
    want = _check_step(TRIANGLE, next_x, np.zeros(3))
    assert want[0] == 0.158113883008419  # the oracle's bits, which _check_step matched


@pytest.mark.parametrize("stray_first", [True, False])
def test_non_convergence_surfaces_where_the_per_agent_route_raised(monkeypatch, stray_first):
    # one isolated agent leaves its hull (a stray), one triangle agent and
    # one square agent move to points that need more than one major
    # iteration; with the cap at one, both fail. The square's problem is
    # solved after the triangle's (a larger neighbor count) but comes first
    # in agent order when the square does, so the step record and the
    # checker both raise for the first failing agent, stray or not
    _lower_the_cap(monkeypatch, 1)
    lone, moved = [5.0, 5.0], [5.5, 5.0]
    x = np.array([lone, *TRIANGLE, *SQUARE] if stray_first else [*SQUARE, *TRIANGLE, lone])
    next_x = x.copy()
    square, triangle = (4, 1) if stray_first else (0, 4)
    next_x[0 if stray_first else 7] = moved
    next_x[triangle] = DROP_POINT
    next_x[square] = INSIDE_SQUARE
    state, nxt = OpinionState(0, x, EPS), OpinionState(1, next_x, EPS)
    now = analyze_state(state)
    failing, (best, gap) = _first_failure([(x, next_x, now.mask)], 1)
    assert [i for _, i, _ in failing] == sorted([triangle, square])
    alpha = np.zeros(8)
    with pytest.raises(NumericalFailure) as raised:
        step_record(state, nxt, alpha, hull=True)
    assert (raised.value.best, raised.value.gap) == (best, gap)
    checker = Checker(EPS)
    checker.push(alpha, now, analyze_state(nxt, now))  # buffered, not yet solved
    with pytest.raises(NumericalFailure) as raised:
        _ = checker.violations
    assert (raised.value.best, raised.value.gap) == (best, gap)


def test_singular_stack_is_solved_per_problem(monkeypatch):
    # a singular system among a stack fails the stacked solve; the stack's
    # systems are then solved one at a time, and the distances stay the
    # oracle's
    calls = _singular_when_stacked(monkeypatch)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.5, (12, 2))
    alpha = rng.choice([0.0, 0.3], 12)
    next_x = step(OpinionState(0, x, EPS), alpha).x + rng.normal(scale=1e-3, size=x.shape)
    _kernel_distances(analyze_state(OpinionState(0, x, EPS)), next_x)
    assert {2, 3} <= set(calls)  # stacked solves failed, per-problem solves ran
    _check_step(x, next_x, alpha)


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
        return self

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
    assert strays == sum(int(np.count_nonzero(oracle_hull_distances(
        analyses[t].x, analyses[t + 1].x, analyses[t].mask) > HULL_TOL))
        for t in range(len(alphas)))
    # the buffer never holds more than the budget and one step's stacks:
    # each add finds it below the budget
    assert all(event[0] < budget for event in events if event is not None)
    if jitter:
        assert strays > 0


def test_checker_raises_for_the_first_failing_step_and_agent(monkeypatch):
    # with the cap lowered, problems of several steps and neighbor counts
    # fail; the checker solves them by neighbor count over all buffered
    # steps, yet raises the failure of the first in (step, agent) order, as
    # the step record of that step does
    max_iter = 1
    _lower_the_cap(monkeypatch, max_iter)
    alphas, analyses = _run(4, 30, 2, 6, 1e-9)
    steps = [(analyses[t].x, analyses[t + 1].x, analyses[t].mask) for t in range(len(alphas))]
    failing, (best, gap) = _first_failure(steps, max_iter)
    first = failing[0]
    assert len({t for t, _, _ in failing}) > 1 and len({k for _, _, k in failing}) > 1
    # the first failure is not the first of the problems the kernel solves
    assert min(failing, key=lambda f: (f[2], f[0], f[1])) != first
    checker = Checker(EPS)
    for t, alpha in enumerate(alphas):
        checker.push(alpha, analyses[t], analyses[t + 1])  # all buffered
    with pytest.raises(NumericalFailure) as raised:
        _ = checker.violations
    assert (raised.value.best, raised.value.gap) == (best, gap)
    t = first[0]
    with pytest.raises(NumericalFailure) as raised:
        step_record(OpinionState(t, steps[t][0], EPS), OpinionState(t + 1, steps[t][1], EPS),
                    alphas[t], hull=True)
    assert (raised.value.best, raised.value.gap) == (best, gap)


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
