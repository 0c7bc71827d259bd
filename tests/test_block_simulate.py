"""Block simulation against the per-state loop.

``simulate`` draws a block of alphas at once, runs the update alone, and
analyses the block's states as one stack before it cuts the block at its
first stop. ``oracle_simulate`` in conftest runs one step at a time, each
alpha from numpy's generator (``oracle_schedule_alpha``) and each state
analysed eagerly. States, alphas, stops, ``[monitors]`` records and checker
reports must be the same byte for byte, wherever in a block the run stops.
"""

import importlib
import json
from dataclasses import replace

import numpy as np
import pytest

import mixedhk.dynamics as dynamics
from mixedhk import (Checker, ConfigError, ModelConfig, ScheduleExhaustedError,
                     StubbornnessSchedule, simulate)
from mixedhk.dynamics import SCHEDULE_KINDS, _async_movers
from conftest import (OracleChecker, oracle_analyze_state, oracle_schedule_alpha, oracle_simulate,
                      random_alpha)

KEYS = (0, -5, 2**32 - 1, 2**32, 2**64 - 1)


def _movers(alphas: np.ndarray) -> list:
    return [int(np.flatnonzero(row == 0.0)[0]) for row in alphas]


@pytest.mark.parametrize("key", KEYS)
def test_block_draw_equals_the_scalar_route(key):
    sched = StubbornnessSchedule("asynchronous", seed=key)
    for n in (1, 2, 3, 30, 89, 1000, 12345, 10**5):
        # two whole blocks of 72, a range across their boundary, and short
        # ranges, which numpy's generator draws
        count = 72 if n <= 1000 else 16
        for t0, length in ((0, count), (count, count), (count - 7, 14), (count - 3, 5),
                           (5000, 1)):
            got = sched.alphas(t0, length, n)
            want = [oracle_schedule_alpha(sched, t, n) for t in range(t0, t0 + length)]
            assert got.shape == (length, n)
            assert got.tobytes() == np.array(want).tobytes(), (key, n, t0)
    # the run seed keys the stream when the schedule has none
    plain = StubbornnessSchedule("asynchronous")
    assert plain.alphas(3, 20, 7, key).tobytes() == sched.alphas(3, 20, 7).tobytes()
    assert plain.alpha_at(3, 7, key).tobytes() == sched.alphas(3, 1, 7)[0].tobytes()


def _spy_scalar(monkeypatch) -> list:
    """Record each time that numpy's generator draws."""
    drawn = []
    scalar = dynamics._scalar_mover

    def spy(key, t, n):
        drawn.append(t)
        return scalar(key, t, n)

    monkeypatch.setattr(dynamics, "_scalar_mover", spy)
    return drawn


def test_block_draw_falls_back_where_a_draw_could_be_rejected(monkeypatch):
    # at n = 3 * 2**30 Lemire's draw rejects a quarter of the outputs
    # (threshold 2**30) and the array pass defers 3 in 4 to numpy's generator
    n = 3 * 2**30
    drawn = _spy_scalar(monkeypatch)
    for key in KEYS:
        k = key & (2**64 - 1)
        got = _async_movers(k, 100, 64, n).tolist()
        want = [int(np.random.default_rng(np.random.SeedSequence((k, t))).integers(0, n))
                for t in range(100, 164)]
        assert got == want, key
    assert 64 < len(drawn) < 5 * 64


def test_block_draw_falls_back_from_t_two_to_the_32(monkeypatch):
    drawn = _spy_scalar(monkeypatch)
    for key in KEYS:
        sched = StubbornnessSchedule("asynchronous", seed=key)
        t0 = 2**32 - 20
        got = sched.alphas(t0, 40, 30)
        want = [oracle_schedule_alpha(sched, t, 30) for t in range(t0, t0 + 40)]
        assert _movers(got) == _movers(np.array(want)), key
    assert sorted(set(drawn)) == list(range(2**32, 2**32 + 20))


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_every_schedule_block_equals_its_rows(kind):
    rng = np.random.default_rng(3)
    n = 6
    sched = _schedule(kind, rng, n, 40)
    for t0, count in ((0, 1), (0, 40), (13, 20), (39, 1)):
        want = [oracle_schedule_alpha(sched, t, n, 11) for t in range(t0, t0 + count)]
        assert sched.alphas(t0, count, n, 11).tobytes() == np.array(want).tobytes(), (t0, count)
        assert sched.alpha_at(t0, n, 11).tobytes() == want[0].tobytes()
    with pytest.raises(ValueError, match="nonnegative"):
        sched.alphas(-1, 3, n)


def test_table_blocks_end_where_the_table_does():
    rows = tuple(np.full(3, v) for v in (0.0, 0.5, 0.25))
    sched = StubbornnessSchedule("table", table=rows + (np.zeros(2), np.zeros(3)))
    # a block stops at the table's end, and before a row of the wrong length
    assert sched.alphas(1, 10, 3).tobytes() == np.array(rows[1:]).tobytes()
    with pytest.raises(ConfigError, match="table row 3 has length 2, expected 3"):
        sched.alphas(3, 10, 3)
    assert sched.alphas(4, 10, 3).tobytes() == np.zeros((1, 3)).tobytes()
    with pytest.raises(ScheduleExhaustedError, match=r"has 5 rows, queried at t=5$"):
        sched.alphas(5, 10, 3)


@pytest.mark.parametrize("blocks", (1, 4, None))
def test_table_schedules_raise_only_when_the_run_reaches_their_end(blocks, monkeypatch):
    n = 4
    if blocks is not None:
        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * n * n * blocks)
    x = np.array([[0.0], [0.5], [0.75], [5.0]])
    open_minded = tuple(np.array([0.5, 0.5, 0.5, 1.0]) for _ in range(6))
    # a run that reaches t = 6 asks for the seventh row
    cfg = ModelConfig(x, 1.0, StubbornnessSchedule("table", table=open_minded), 20,
                      consensus_tol=1e-300, monitors=())
    with pytest.raises(ScheduleExhaustedError) as info:
        simulate(cfg)
    assert str(info.value) == "table schedule has 6 rows, queried at t=6"
    # one that stops by consensus, or steady, before then does not
    wide = replace(cfg, consensus_tol=0.2)
    assert simulate(wide).stop_reason == "consensus" == oracle_simulate(wide).stop_reason
    stubborn = open_minded[:2] + (np.ones(n),) + open_minded[3:]
    steady = replace(cfg, schedule=StubbornnessSchedule("table", table=stubborn))
    traj = simulate(steady)
    assert (traj.steps, traj.stop_reason) == (3, "steady")
    # a row of the wrong length is reported at its own time, and only when reached
    short = open_minded[:3] + (np.zeros(2),)
    with pytest.raises(ConfigError, match="table row 3 has length 2"):
        simulate(replace(cfg, schedule=StubbornnessSchedule("table", table=short)))
    early = replace(steady, schedule=StubbornnessSchedule("table", table=stubborn[:3] + short[3:]))
    assert simulate(early).stop_reason == "steady"


def _assert_same_run(cfg, hull: bool = False):
    """The block run and the per-state loop agree, with and without a
    checker; returns the per-state run."""
    want_checker = OracleChecker(cfg.epsilon, hull=hull)
    want = oracle_simulate(cfg, want_checker)
    for checker in (None, Checker(cfg.epsilon, hull=hull)):
        got = simulate(cfg, checker)
        assert (got.stop_reason, got.steps) == (want.stop_reason, want.steps)
        assert np.array(got.states).tobytes() == np.array(want.states).tobytes()
        assert np.array(got.alphas).tobytes() == np.array(want.alphas).tobytes()
        assert json.dumps(got.metrics) == json.dumps(want.metrics)
        assert json.dumps(got.events) == json.dumps(want.events)
        if checker is not None:
            assert json.dumps(checker.report(got)) == json.dumps(want_checker.report(want))
    return want


def _schedule(kind: str, rng, n: int, steps: int, stubborn_at=None) -> StubbornnessSchedule:
    if kind == "constant":
        # everyone absolutely stubborn: steady at the first step
        return StubbornnessSchedule(kind, alpha=np.ones(n) if stubborn_at else random_alpha(rng, n))
    if kind == "power_law":
        # 1 - 1/(t+1)**60 rounds to 1.0 from t = 1 on: steady at the second step
        return StubbornnessSchedule(kind, exponent=60.0 if stubborn_at else 1.5)
    if kind == "table":
        rows = [random_alpha(rng, n) for _ in range(steps)]
        if stubborn_at is not None:
            rows[stubborn_at] = np.ones(n)
        return StubbornnessSchedule(kind, table=tuple(rows))
    return StubbornnessSchedule(kind)


def _start(rng, n: int, d: int) -> tuple:
    """A cluster on a jittered quarter grid with every zero coordinate -0.0,
    and two agents far from it and from each other, which no step moves;
    epsilon near the cluster's median distance."""
    x = rng.integers(-4, 5, (n, d)) * 0.25
    x += rng.uniform(-0.05, 0.05, (n, d)) * (rng.random((n, 1)) < 0.5)
    x[x == 0.0] = -0.0
    if n > 4:
        x[-2:] = 40.0 + 40.0 * np.arange(2)[:, None]
    cluster = x[:-2] if n > 4 else x
    spread = np.sqrt(((cluster[:, None, :] - cluster[None, :, :]) ** 2).sum(axis=2))
    return x, max(0.8 * float(np.median(spread)), 0.3)


def _widest(traj) -> list:
    return [max(oracle_analyze_state(traj.state_at(t)).component_diameters)
            for t in range(len(traj.states))]


def test_block_runs_equal_the_per_state_loop_at_every_stop_offset(monkeypatch):
    # each run is repeated with every block size from one step to past its
    # stop, so that the stop falls first, in the middle and last in a block
    seen = set()
    n, steps = 8, 14
    for kind in SCHEDULE_KINDS:
        stops = 0
        for d in (1, 2, 3):
            for seed in range(2):
                rng = np.random.default_rng(1000 * d + 10 * seed + SCHEDULE_KINDS.index(kind))
                x, eps = _start(rng, n, d)
                # asynchronous runs stop steady once a far agent is chosen
                stubborn_at = 5 + seed if kind in ("constant", "power_law", "table") else None
                base = ModelConfig(x, eps, _schedule(kind, rng, n, steps, stubborn_at), steps,
                                   consensus_tol=1e-300, seed=seed + 3,
                                   monitors=("energy", "interaction"))
                widest = _widest(oracle_simulate(base))
                # consensus once the widest component is as narrow as at state t
                tols = [1e-300] + [widest[t] for t in (2, 4, 7) if t < len(widest) and widest[t]]
                for tol in tols:
                    cfg = replace(base, consensus_tol=tol)
                    want = oracle_simulate(cfg)
                    stops += want.stop_reason != "horizon"
                    for block in range(1, want.steps + 2):
                        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * n * n * block)
                        _assert_same_run(cfg)
                        offset = (want.steps - 1) % block
                        if block > 1 and want.stop_reason != "horizon":
                            place = ("first" if offset == 0 else
                                     "last" if offset == block - 1 else "middle")
                            seen.add((want.stop_reason, place))
        assert stops, kind
    assert seen == {(reason, place) for reason in ("consensus", "steady")
                    for place in ("first", "middle", "last")}


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_block_runs_equal_the_per_state_loop_across_sizes(kind, d, monkeypatch):
    # both sides of one mask block (at n = 12 here) and of 90 agents (at the
    # default budget, 8 states per block at n = 89 and 7 at n = 91)
    small = 8 * 12 * 12
    for n, budget in ((1, small), (2, small), (12, small), (13, small), (12, 8 * 12 * 11),
                      (89, None), (91, None)):
        if budget is not None:
            monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", budget)
        else:
            monkeypatch.undo()
        rng = np.random.default_rng(100 * n + d + SCHEDULE_KINDS.index(kind))
        x, eps = _start(rng, n, d)
        steps = 6 if n > 50 else 12
        cfg = ModelConfig(x, eps, _schedule(kind, rng, n, steps), steps, consensus_tol=1e-300,
                          seed=n + d, monitors=("energy", "merge", "interaction", "hull"))
        _assert_same_run(cfg, hull=n < 50)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_block_runs_count_boundary_ties_as_neighbors(kind):
    # opinions on a half grid and epsilon = 0.5: many pairs sit at exactly
    # epsilon, and every one of them is a neighbor
    for d in (1, 2, 3):
        rng = np.random.default_rng(70 + d + 10 * SCHEDULE_KINDS.index(kind))
        x = rng.integers(0, 3, (12, d)) * 0.5
        cfg = ModelConfig(x, 0.5, _schedule(kind, rng, 12, 12), 12, consensus_tol=1e-300,
                          seed=d, monitors=("energy",))
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        assert (d2 == 0.25).any()
        _assert_same_run(cfg)


def test_a_block_runs_at_most_max_block_steps_past_a_stop(monkeypatch):
    # 16 384 states of two agents fit one mask block; the block is capped
    simulate_module = importlib.import_module("mixedhk.simulate")
    calls = [0]
    advance = simulate_module._advance

    def counted(*args):
        calls[0] += 1
        return advance(*args)

    monkeypatch.setattr(simulate_module, "_advance", counted)
    cfg = ModelConfig(np.array([[0.0], [0.5]]), 1.0,
                      StubbornnessSchedule("constant", alpha=np.full(2, 0.99)), 100_000,
                      consensus_tol=1e-3, monitors=())
    traj = simulate(cfg)
    assert traj.stop_reason == "consensus" and traj.steps > simulate_module.MAX_BLOCK_STEPS
    assert traj.steps <= calls[0] < traj.steps + simulate_module.MAX_BLOCK_STEPS
    assert np.array(traj.states).tobytes() == np.array(oracle_simulate(cfg).states).tobytes()
