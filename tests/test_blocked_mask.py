"""The row-blocked neighbor mask, the on-demand state geometry and the
consensus shortcut, each checked bit for bit against the full-matrix routes
in conftest."""

import numpy as np
import pytest

import mixedhk.dynamics as dynamics
import mixedhk.profile as profile
from mixedhk import (
    Checker,
    ModelConfig,
    OpinionState,
    StubbornnessSchedule,
    check_trajectory,
    neighbor_matrix,
    simulate,
)
from mixedhk.dynamics import SCHEDULE_KINDS, squared_distances
from mixedhk.profile import StateAnalysis, analyze_state
from conftest import oracle_analyze_state, oracle_squared_distances, random_alpha

DIMS = (1, 2, 3, 8, 9)
SMALL_BUDGET = 8 * 8 * 8  # bytes: one block holds every row up to n = 8
# powers of two scale the grid exactly; the outer two sit near the edges of
# the numeric domain (epsilon**2 near the smallest normal float, and squared
# distances within a few bits of overflow)
SCALES = (1.0, 2.0**-508, 2.0**500)


def _one_block_n(budget: int) -> int:
    """The largest n whose squared distances fit one block of ``budget``."""
    n = 1
    while budget // (8 * (n + 1)) >= n + 1:
        n += 1
    return n


def _sizes(budget: int) -> tuple:
    """n = 1, one block less one, one block, one more, and two blocks and three."""
    block = _one_block_n(budget)
    return 1, block - 1, block, block + 1, 2 * block + 3


def _grid_points(rng: np.random.Generator, n: int, d: int, scale: float):
    """Opinions on an integer grid of spacing epsilon, many pairs exactly
    epsilon apart, a quarter of them moved off the grid, with -0.0 and 0.0
    coordinates mixed; returns (x, epsilon)."""
    eps = 0.5 * scale
    x = rng.integers(-3, 4, (n, d)) * eps
    # a third of the agents copy an earlier one, shifted by epsilon in one coordinate
    for i in np.flatnonzero(rng.random(n) < 1 / 3)[1:]:
        x[i] = x[rng.integers(0, i)]
        x[i, rng.integers(0, d)] += eps * rng.choice((-1.0, 1.0))
    off = rng.random(n) < 0.25
    x[off] = rng.uniform(-1.5, 1.5, (int(off.sum()), d)) * scale
    x[(x == 0.0) & (rng.random((n, d)) < 0.5)] = -0.0
    return x, eps


def _clusters(rng: np.random.Generator, n: int, d: int, k: int = 3):
    """n opinions in k tight clusters far apart: k or more components."""
    centers = 10.0 * np.arange(k)[:, None] * np.ones(d)
    x = centers[rng.permutation(np.arange(n) % k)] + rng.uniform(-0.4, 0.4, (n, d))
    return x, 0.3


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _same_as_oracle(got, want) -> bool:
    return (got.mask.tobytes() == want.mask.tobytes()
            and got.degrees.tobytes() == want.degrees.tobytes()
            and got.labels.tobytes() == want.labels.tobytes()
            and _bits(got.component_diameters) == _bits(want.component_diameters)
            and _bits([got.diameter, got.energy]) == _bits([want.diameter, want.energy]))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d", DIMS)
def test_blocked_mask_is_the_full_matrix_predicate(d, scale, monkeypatch):
    rng = np.random.default_rng(17 * d + SCALES.index(scale))
    ties = 0
    for budget in (SMALL_BUDGET, dynamics.MASK_BLOCK_BYTES):
        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", budget)
        for n in _sizes(budget):
            x, eps = _grid_points(rng, n, d, scale)
            state = OpinionState(0, x, eps)
            d2 = oracle_squared_distances(x)
            want = d2 <= eps * eps
            assert squared_distances(x).tobytes() == d2.tobytes()
            assert neighbor_matrix(state).tobytes() == want.tobytes()
            assert analyze_state(state).mask.tobytes() == want.tobytes()
            ties += int(np.count_nonzero(d2 == eps * eps))
    assert ties


def test_block_sizes_reach_several_blocks():
    assert _one_block_n(SMALL_BUDGET) == 8
    assert _one_block_n(dynamics.MASK_BLOCK_BYTES) == 256
    # 2 * 8 + 3 = 19 rows in blocks of 512 // (8 * 19) = 3
    assert SMALL_BUDGET // (8 * 19) == 3


@pytest.mark.parametrize("d", DIMS)
def test_geometry_on_demand_equals_the_eager_analysis(d, monkeypatch):
    rng = np.random.default_rng(5 + d)
    for budget, sizes in ((SMALL_BUDGET, _sizes(SMALL_BUDGET)),
                          (dynamics.MASK_BLOCK_BYTES, (200, 300))):
        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", budget)
        for n in sizes:
            state = OpinionState(0, *_clusters(rng, n, d))
            want = oracle_analyze_state(state)
            assert n < 3 or len(want.component_diameters) >= 3
            assert _same_as_oracle(analyze_state(state), want)
            # read in another order: energy first, then diameter
            got = analyze_state(state)
            assert _bits([got.energy, got.diameter]) == _bits([want.energy, want.diameter])
            assert _bits(got.component_diameters) == _bits(want.component_diameters)


def _count_squared_distances(monkeypatch) -> list:
    """Count the states whose squared distances are computed, by
    squared_distances or a stack of them, in every module that calls them."""
    calls = [0]
    stack = dynamics._squared_distance_stack

    def counted(x):
        calls[0] += 1
        return squared_distances(x)

    def counted_stack(xs):
        calls[0] += len(xs)
        return stack(xs)

    for module in (dynamics, profile):
        monkeypatch.setattr(module, "squared_distances", counted)
        monkeypatch.setattr(module, "_squared_distance_stack", counted_stack)
    return calls


def _constant_config(rng, n: int, d: int, steps: int, **kwargs) -> ModelConfig:
    x = rng.uniform(0.0, 10.0, (n, d))
    return ModelConfig(x, 1.0, StubbornnessSchedule("constant", alpha=random_alpha(rng, n)),
                       steps, **kwargs)


def test_monitors_off_run_above_one_block_builds_no_distance_matrix(monkeypatch):
    cfg = _constant_config(np.random.default_rng(3), 300, 2, 5, monitors=())
    calls = _count_squared_distances(monkeypatch)
    traj = simulate(cfg)
    assert (traj.steps, traj.stop_reason) == (5, "horizon")
    assert calls == [0]


@pytest.mark.parametrize("n", (6, 20))
def test_checked_run_computes_each_geometry_once(n, monkeypatch):
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", SMALL_BUDGET)
    cfg = _constant_config(np.random.default_rng(n), n, 2, 12, monitors=(),
                           consensus_tol=1e-300)
    calls = _count_squared_distances(monkeypatch)
    checker = Checker(cfg.epsilon)
    traj = simulate(cfg, checker)
    report = checker.report(traj)
    assert calls == [len(traj.states)]
    calls[0] = 0
    assert check_trajectory(traj) == report
    assert calls == [len(traj.states)]


def _oracle_within(analysis, tol) -> bool:
    return all(dm <= tol for dm in analysis.component_diameters)


@pytest.mark.parametrize("d", DIMS)
def test_components_within_matches_every_component_diameter(d, monkeypatch):
    rng = np.random.default_rng(40 + d)
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", SMALL_BUDGET)
    for n in _sizes(SMALL_BUDGET):
        state = OpinionState(0, *_clusters(rng, n, d))
        want = oracle_analyze_state(state)
        tols = [np.nextafter(dm, side) for dm in want.component_diameters
                for side in (0.0, np.inf)]
        tols += want.component_diameters + [1e-300, 0.3, 100.0]
        for tol in tols:
            verdict = _oracle_within(want, tol)
            fresh = analyze_state(state)
            assert fresh.components_within(tol) == verdict
            # again, and once the geometry has surely been read
            assert fresh.components_within(tol) == verdict
            assert fresh.component_diameters and fresh.components_within(tol) == verdict


@pytest.mark.parametrize("budget", (8, SMALL_BUDGET))  # one row per block, and one block
@pytest.mark.parametrize("d", (1, 2, 9))
def test_components_within_when_every_agent_is_near_the_first_member(d, budget, monkeypatch):
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", budget)
    # one component: agents 1 and 2 lie 0.6 from agent 0 on either side, so
    # each is within tol = 1 of the first member while the diameter is 1.2
    x = np.zeros((3, d))
    x[1, -1], x[2, -1] = -0.6, 0.6
    analysis = analyze_state(OpinionState(0, x, 1.0))
    assert analysis.num_components == 1
    assert not analysis.components_within(1.0)
    assert analysis.components_within(1.2)
    assert not analysis.components_within(np.nextafter(1.2, 0.0))


def _schedule(kind: str, rng, n: int, steps: int) -> StubbornnessSchedule:
    if kind == "constant":
        return StubbornnessSchedule(kind, alpha=random_alpha(rng, n))
    if kind == "power_law":
        return StubbornnessSchedule(kind, exponent=1.5)
    if kind == "table":
        return StubbornnessSchedule(kind, table=tuple(random_alpha(rng, n) for _ in range(steps)))
    return StubbornnessSchedule(kind)


@pytest.mark.parametrize("n", (6, 20))
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_stop_test_matches_the_component_diameter_route(kind, n, monkeypatch):
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", SMALL_BUDGET)
    rng = np.random.default_rng(SCHEDULE_KINDS.index(kind) + n)
    steps = 60
    runs = []
    for eps, tol in ((0.4, 1e-12), (3.0, 1e-12), (3.0, 1e-3), (0.4, 0.05), (3.0, 0.5)):
        x = rng.uniform(-1.0, 1.0, (n, 2))
        runs.append(ModelConfig(x, eps, _schedule(kind, rng, n, steps), steps, seed=n,
                                consensus_tol=tol, monitors=()))
    got = [simulate(cfg) for cfg in runs]
    monkeypatch.setattr(StateAnalysis, "components_within", _oracle_within)
    for cfg, traj in zip(runs, got):
        want = simulate(cfg)
        assert (traj.stop_reason, traj.steps) == (want.stop_reason, want.steps)
        assert _bits(traj.states) == _bits(want.states)
    # the shortcut both rejected states and let the diameters decide
    assert "consensus" in {traj.stop_reason for traj in got}
