"""The checker's block settling against the per-step route.

A ``Checker`` buffers its steps and settles them a block at a time; the
``OracleChecker`` in conftest settles each step alone, from the eager
analyses of its two states. Every report, batch summary and ``[monitors]``
step record must be the same byte for byte, whatever the block size.
"""

import json
import tracemalloc
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

import mixedhk.dynamics as dynamics
from mixedhk import (
    Checker,
    ConfigError,
    ModelConfig,
    OpinionState,
    StubbornnessSchedule,
    batch_run,
    check_trajectory,
    simulate,
    step,
)
from mixedhk.dynamics import SCHEDULE_KINDS
from mixedhk.profile import detect_merge_events, first_members
from conftest import (
    oracle_analyze_state,
    oracle_check_report,
    oracle_interaction_equivalence,
    oracle_merge_events,
    oracle_one_run,
    oracle_step_record,
    random_alpha,
)

BATCH = import_module("mixedhk.batch")
DIMS = (1, 2, 3, 8, 9)


def _schedule(kind: str, rng, n: int, steps: int) -> StubbornnessSchedule:
    if kind == "constant":
        return StubbornnessSchedule(kind, alpha=random_alpha(rng, n))
    if kind == "power_law":
        return StubbornnessSchedule(kind, exponent=1.5)
    if kind == "table":
        return StubbornnessSchedule(kind, table=tuple(random_alpha(rng, n) for _ in range(steps)))
    return StubbornnessSchedule(kind)


def _config(kind: str, n: int, d: int, seed: int, steps: int) -> ModelConfig:
    """Opinions on a quarter grid, jittered and with every zero coordinate
    -0.0, an epsilon near the median pairwise distance, so masks change
    while the run goes on; no stop before the horizon."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-4, 5, (n, d)) * 0.25
    jitter = rng.random(n) < 0.5
    x[jitter] += rng.uniform(-0.05, 0.05, (int(jitter.sum()), d))
    x[x == 0.0] = -0.0
    spread = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    eps = 0.8 * float(np.median(spread)) if n > 1 else 1.0
    return ModelConfig(x, eps or 1.0, _schedule(kind, rng, n, steps), steps, seed=seed,
                       consensus_tol=1e-300, monitors=())


def _mask_changes(traj) -> int:
    masks = [oracle_analyze_state(traj.state_at(t)).mask for t in range(len(traj.states))]
    return sum(a.tobytes() != b.tobytes() for a, b in zip(masks, masks[1:]))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_reports_equal_the_per_step_route_at_every_block_boundary(kind, d, monkeypatch):
    steps = 9
    changes = 0
    for n in (1, 2, 30):
        cfg = _config(kind, n, d, 100 * d + 10 * n + SCHEDULE_KINDS.index(kind), steps)
        traj = simulate(cfg)
        changes += _mask_changes(traj)
        want = json.dumps(oracle_check_report(traj, hull=False))
        want_equivalence = json.dumps(
            oracle_interaction_equivalence(traj, cfg.epsilon / 4.0)["steps"])
        # one step per block up to one block for the whole run, so a block
        # ends after every step; and a budget the states do not fit
        budgets = [8 * n * n * blocks for blocks in range(1, steps + 2)] + [8 * n * n - 8]
        for budget in budgets:
            monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", budget)
            assert json.dumps(check_trajectory(traj, hull=False)) == want, (n, budget)
            checker = Checker(cfg.epsilon, hull=False)
            assert json.dumps(checker.report(simulate(cfg, checker))) == want, (n, budget)
            assert json.dumps(checker.equivalence) == want_equivalence, (n, budget)
            # delta above epsilon/4 keeps no equivalence
            checker = Checker(cfg.epsilon, cfg.epsilon / 2.0, hull=False)
            simulate(cfg, checker)
            assert checker.equivalence is None, (n, budget)
        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * n * n * 4)
        assert json.dumps(check_trajectory(traj)) == json.dumps(oracle_check_report(traj))
        delta = cfg.epsilon / 8.0
        assert json.dumps(check_trajectory(traj, delta, hull=False)) == json.dumps(
            oracle_check_report(traj, delta, hull=False))
    # masks change inside blocks, not only at their ends
    assert changes > 0


@pytest.mark.parametrize("d", DIMS)
def test_reports_equal_the_per_step_route_above_one_mask_block(d, monkeypatch):
    # n = 257 does not fit one mask block of 512 KiB; two states' matrices fit 1 MiB
    for k, budget in enumerate((dynamics.MASK_BLOCK_BYTES, 8 * 257 * 257 * 2)):
        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", budget)
        traj = simulate(_config(SCHEDULE_KINDS[(d + k) % 5], 257, d, 7 * d + k, 3))
        assert json.dumps(check_trajectory(traj, hull=False)) == json.dumps(
            oracle_check_report(traj, hull=False))


@pytest.mark.parametrize("blocks", (1, 5, None))
@pytest.mark.parametrize("kind", ("asynchronous", "constant", "table"))
def test_batch_summaries_equal_the_per_step_route(kind, blocks, monkeypatch):
    cfg = _config(kind, 30, 1, 61 + SCHEDULE_KINDS.index(kind), 150)
    if blocks is not None:
        monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * 30 * 30 * blocks)
    cases = [(None, False), (cfg.epsilon / 8.0, False), (None, True)]
    got = [json.dumps(batch_run(cfg, 2, 101, delta, hull=hull)) for delta, hull in cases]
    monkeypatch.setattr(BATCH, "_one_run", oracle_one_run)
    assert got == [json.dumps(batch_run(cfg, 2, 101, delta, hull=hull)) for delta, hull in cases]


@pytest.mark.parametrize("flags", (("energy",), ("interaction", "merge"), ("hull", "contraction"),
                                   ("energy", "interaction", "hull")))
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("blocks", (1, 3, 11))
def test_monitor_records_equal_the_per_step_records(blocks, kind, flags, monkeypatch):
    # a run without a checker makes its records a block at a time too
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * 12 * 12 * blocks)
    cfg = replace(_config(kind, 12, 2, 5 + SCHEDULE_KINDS.index(kind), 10), monitors=flags)
    traj = simulate(cfg)
    oracles = [oracle_analyze_state(traj.state_at(t)) for t in range(len(traj.states))]
    want = [oracle_step_record(alpha, now, nxt, interaction="interaction" in flags,
                               hull="hull" in flags)
            for alpha, now, nxt in zip(traj.alphas, oracles, oracles[1:])]
    assert json.dumps(traj.metrics) == json.dumps(want)
    # a run given a checker records the same, and the checker reports as alone
    checker = Checker(cfg.epsilon)
    assert json.dumps(simulate(cfg, checker).metrics) == json.dumps(want)
    assert json.dumps(checker.report(traj)) == json.dumps(oracle_check_report(traj))


def test_merge_events_equal_the_pairwise_route():
    # states on a coarse grid, so pairs merge, part and merge again, -0.0 among them
    rng = np.random.default_rng(11)
    events = 0
    for _ in range(60):
        n, d, length = int(rng.integers(2, 9)), int(rng.integers(1, 4)), int(rng.integers(2, 14))
        states = [rng.integers(-1, 2, (n, d)) * 0.5 for _ in range(length)]
        for x in states:
            x[x == 0.0] = rng.choice((0.0, -0.0))
        want = oracle_merge_events(states)
        got = [(e["t"], e["i"], e["j"], e["departed"]) for e in detect_merge_events(states)]
        assert got == want, (n, d, length)
        events += len(want)
    assert events > 100


def test_first_members_match_unique():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        # random components, numbered by first member
        raw = rng.integers(0, int(rng.integers(1, n + 1)), n)
        _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
        labels = np.argsort(np.argsort(first))[inverse]
        _, want = np.unique(labels, return_index=True)
        assert first_members(labels).tobytes() == want[labels].tobytes()


def test_derived_states_still_reject_nan():
    x = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 1.0]])
    state = OpinionState(0, x, 1.0)
    alpha = np.array([0.0, 0.5, 1.0])
    derived = step(state, alpha)
    bad = derived.x.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        OpinionState(derived.t, bad, derived.epsilon)
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        step(derived, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ConfigError, match="shape"):
        step(derived, np.zeros(2))
    # the run's unchecked path makes the states the checked step makes
    cfg = ModelConfig(x, 1.0, StubbornnessSchedule("constant", alpha=alpha), 4,
                      consensus_tol=1e-300, monitors=())
    states = [state]
    for _ in range(4):
        states.append(step(states[-1], alpha))
    assert np.array(simulate(cfg).states).tobytes() == np.array([s.x for s in states]).tobytes()


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", ("batch-async", "check-n120"))
def test_block_buffer_memory_is_bounded_by_its_budget(shape, monkeypatch):
    # the two shapes of the benchmark that check many small steps, and many
    # larger ones; traced peaks measured at 1.9 MiB and 1.2 MiB
    rng = np.random.default_rng(7)
    if shape == "batch-async":
        n, limit = 30, 2.5 * 2**20
        cfg = ModelConfig(rng.uniform(0.0, 6.0, (n, 1)), 1.0, StubbornnessSchedule("asynchronous"),
                          400, seed=7, monitors=())
        run = lambda: batch_run(cfg, 1, 102)  # noqa: E731
    else:
        n, limit = 120, 1.6 * 2**20
        cfg = ModelConfig(rng.uniform(0.0, 8.8, (n, 2)), 1.0,
                          StubbornnessSchedule("constant", alpha=rng.choice((0.0, 0.3, 0.6), n)),
                          40, seed=7, monitors=())
        traj = simulate(cfg)
        run = lambda: check_trajectory(traj, hull=False)  # noqa: E731
    budget = dynamics.MASK_BLOCK_BYTES
    run()
    default = _traced_peak(run)
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * n * n)  # one step per block
    one_step = _traced_peak(run)
    # the buffered matrices, and the stack they are copied into, one at a time
    assert default - one_step <= 2 * budget
    assert default <= limit
