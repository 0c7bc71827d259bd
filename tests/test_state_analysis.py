"""The shared per-state analysis and vectorised merge detection, checked bit
for bit against the independent pure-Python routes in conftest."""

import json
import weakref
from dataclasses import replace
from importlib import import_module
from types import SimpleNamespace

import numpy as np
import pytest

import mixedhk.dynamics as dynamics
import mixedhk.monitors as monitors
from mixedhk import (
    Checker,
    IntegrityError,
    ModelConfig,
    OpinionState,
    Profile,
    StubbornnessSchedule,
    Trajectory,
    batch_run,
    build_profile,
    check_trajectory,
    consensus_envelope_check,
    detect_merge_events,
    diameter,
    interaction_equivalence,
    neighbor_matrix,
    read_trajectory,
    simulate,
    step,
    write_trajectory,
)
from mixedhk.dynamics import SCHEDULE_KINDS, _advance, squared_distances
from mixedhk.profile import analyze_state, neighbor_spread, opinions_equal
from conftest import (
    all_graphs,
    oracle_consensus_envelope_check,
    oracle_contraction,
    oracle_energy_drop_bound,
    oracle_first_interaction_times,
    oracle_interaction_equivalence,
    oracle_merge_events,
    oracle_movement_budget,
    oracle_one_run,
    oracle_opinions_equal,
    oracle_profile,
    oracle_settling_time,
    random_alpha,
    step_record,
)

DIMS = (1, 2, 3, 8, 9)


def _schedule(kind: str, rng: np.random.Generator, n: int, steps: int) -> StubbornnessSchedule:
    if kind == "constant":
        return StubbornnessSchedule(kind, alpha=random_alpha(rng, n))
    if kind == "power_law":
        return StubbornnessSchedule(kind, exponent=2.0)
    if kind == "table":
        return StubbornnessSchedule(kind, table=tuple(random_alpha(rng, n) for _ in range(steps)))
    return StubbornnessSchedule(kind)


# modules by name: the package attributes ``simulate`` and ``batch_run`` are functions
SIMULATE, BATCH = import_module("mixedhk.simulate"), import_module("mixedhk.batch")
PROFILE = import_module("mixedhk.profile")


def _config(kind: str, d: int, seed: int, n: int = 14, steps: int = 25) -> ModelConfig:
    """A short random run's config, its epsilon scaled to the pairwise
    distances, so profiles are neither empty nor complete and merges happen."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d))
    eps = 0.6 * float(np.median(np.sqrt(squared_distances(x))))
    return ModelConfig(x, eps, _schedule(kind, rng, n, steps), steps, seed=seed,
                       consensus_tol=1e-300)


def _trajectory(kind: str, d: int, seed: int, n: int = 14, steps: int = 25):
    return simulate(_config(kind, d, seed, n, steps))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_analysis_and_merges_match_the_oracles(kind, d):
    traj = _trajectory(kind, d, seed=1000 * d + SCHEDULE_KINDS.index(kind))
    for t in range(len(traj.states)):
        state = traj.state_at(t)
        x, eps = state.x, state.epsilon
        analysis = analyze_state(state)
        edges, labels = oracle_profile(x, eps)
        profile = build_profile(state)
        assert profile.edges == frozenset(edges)
        assert tuple(profile.labels.tolist()) == tuple(labels)
        assert np.array_equal(analysis.mask, neighbor_matrix(state))
        assert np.array_equal(analysis.degrees, analysis.mask.sum(axis=1))
        groups = profile.components()
        assert _bits(analysis.component_diameters) == _bits([diameter(x[g]) for g in groups])
        assert _bits(analysis.diameter) == _bits(diameter(x))
        d2 = squared_distances(x)
        assert _bits(analysis.energy) == _bits(np.minimum(d2, eps * eps).sum())
        spread = neighbor_spread(analysis.x, analysis.mask, np.arange(state.n))
        for i in range(state.n):
            diffs = x[np.flatnonzero(analysis.mask[i])] - x[i]
            want = np.sqrt((diffs * diffs).sum(axis=1).max())
            assert _bits(spread[i]) == _bits(want)
    got = [(e["t"], e["i"], e["j"], e["departed"]) for e in detect_merge_events(traj.states)]
    assert got == oracle_merge_events(traj.states)


def _oracle_budgets(traj) -> tuple[list, int]:
    """Every agent's last partial sum and the violation count, agent by agent."""
    budgets = [oracle_movement_budget(traj, agent) for agent in range(traj.n)]
    return ([sums[-1] if sums else 0.0 for _, sums, _, _ in budgets],
            sum(violations for *_, violations in budgets))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_movement_budgets_match_the_per_agent_arithmetic(kind, d):
    traj = _trajectory(kind, d, seed=7 + 1000 * d + SCHEDULE_KINDS.index(kind))
    budgets = [oracle_movement_budget(traj, agent) for agent in range(traj.n)]
    # each prefix's report holds every agent's partial sum and the violations
    # up to its last step, so the reports of all prefixes pin every term
    for steps in range(traj.steps + 1):
        prefix = replace(traj, states=traj.states[:steps + 1], alphas=traj.alphas[:steps])
        report = check_trajectory(prefix, hull=False)
        assert _bits(report["partial_sums"]) == _bits(
            [sums[steps - 1] if steps else 0.0 for _, sums, _, _ in budgets])
        assert report["violations"]["movement_bound"] == sum(
            ok[:steps].count(False) for _, _, ok, _ in budgets)
    report = check_trajectory(traj, hull=False)
    partial, violations = _oracle_budgets(traj)
    assert _bits(report["partial_sums"]) == _bits(partial)
    assert report["violations"]["movement_bound"] == violations


@pytest.mark.parametrize("d", (1, 2, 8))
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_streamed_check_matches_simulate_then_check(kind, d, monkeypatch):
    cfg = _config(kind, d, seed=31 + 1000 * d + SCHEDULE_KINDS.index(kind), n=10, steps=20)
    delta = cfg.epsilon / 8.0
    checker = Checker(cfg.epsilon, delta)
    traj = simulate(cfg, checker)
    assert json.dumps(checker.report(traj)) == json.dumps(check_trajectory(traj, delta))
    cases = [(None, False), (None, True), (delta, False)]
    got = [json.dumps(batch_run(cfg, 2, 40, delta, hull=hull)) for delta, hull in cases]
    monkeypatch.setattr(BATCH, "_one_run", oracle_one_run)
    assert got == [json.dumps(batch_run(cfg, 2, 40, delta, hull=hull)) for delta, hull in cases]


def _trajectory_monitors(traj, delta: float, beta_cap: float, *, oracle: bool) -> str:
    """The four trajectory-level monitors' outputs, as JSON."""
    if oracle:
        routes = (oracle_settling_time, oracle_first_interaction_times,
                  oracle_interaction_equivalence, oracle_consensus_envelope_check)
    else:
        routes = (lambda traj, tol: check_trajectory(traj, tol, hull=False)["tau_delta"],
                  lambda traj: check_trajectory(traj, hull=False)["interaction_times"],
                  interaction_equivalence, consensus_envelope_check)
    settle, first, equivalence, envelope = routes
    eps = traj.epsilon
    return json.dumps([[settle(traj, tol) for tol in (delta, eps / 2.0, 2.0 * eps)],
                       first(traj), equivalence(traj, delta),
                       [envelope(traj, cap) for cap in (beta_cap, 0.5)]])


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_trajectory_monitors_match_the_per_state_routes(kind):
    seen = {"equivalence_steps": 0, "envelopes": 0, "settled": 0}
    for d in DIMS:
        seed = 211 + 1000 * d + SCHEDULE_KINDS.index(kind)
        rng = np.random.default_rng(seed)
        cfg = _config(kind, d, seed, n=int(rng.integers(2, 12)), steps=30)
        traj = simulate(cfg)
        # an epsilon near the initial diameter, so the envelope applies from some t
        wide = simulate(replace(cfg, epsilon=float(rng.uniform(0.7, 1.1)) * diameter(cfg.initial)))
        lone = Trajectory(n=traj.n, d=d, epsilon=traj.epsilon, schedule=traj.schedule,
                          seed=seed, states=[traj.states[-1]], alphas=[], stop_reason="horizon")
        for case in (traj, wide, lone):
            eps = case.epsilon
            # delta exactly epsilon/4, the largest the equivalence admits
            for delta in (eps / 4.0, float(rng.uniform(0.01, 0.25)) * eps):
                beta_cap = float(rng.uniform(0.05, 0.95))
                got = _trajectory_monitors(case, delta, beta_cap, oracle=False)
                assert got == _trajectory_monitors(case, delta, beta_cap, oracle=True)
            seen["equivalence_steps"] += len(interaction_equivalence(case, eps / 4.0)["steps"])
            seen["envelopes"] += consensus_envelope_check(case, 0.5)["applicable"]
            seen["settled"] += check_trajectory(case, hull=False)["tau_delta"] is not None
    assert all(seen.values()), seen


def _equivalence_mismatch() -> Trajectory:
    """A tampered file: one cluster spreads to epsilon/2 without meeting
    another, so condition (1) holds while (2) and (3) do not."""
    return Trajectory(n=2, d=1, epsilon=1.0, schedule={"kind": "synchronous"}, seed=0,
                      states=[np.zeros((2, 1)), np.array([[0.0], [0.5]])],
                      alphas=[np.zeros(2)], stop_reason="horizon")


def test_report_counts_the_equivalence_records_that_fail():
    traj = _equivalence_mismatch()
    got = _trajectory_monitors(traj, 0.25, 0.5, oracle=False)
    assert got == _trajectory_monitors(traj, 0.25, 0.5, oracle=True)
    assert interaction_equivalence(traj, 0.25)["mismatches"] == 1
    report = check_trajectory(traj, 0.25, hull=False)
    assert report["interaction_equivalence"] == {"mismatches": 1}
    assert report["violations"]["equivalence"] == 1


def _isolated_mover(tmp_path) -> Trajectory:
    """A tampered file: agent 2, alone and with alpha = 0, moves at the
    second step, although its budget term is 0."""
    x0 = np.array([[0.0], [0.5], [5.0]])
    x1 = np.array([[0.25], [0.25], [5.0]])
    x2 = np.array([[0.25], [0.25], [5.5]])
    traj = Trajectory(n=3, d=1, epsilon=1.0, schedule={"kind": "synchronous"}, seed=0,
                      states=[x0, x1, x2], alphas=[np.zeros(3)] * 2, stop_reason="horizon")
    return read_trajectory(write_trajectory(traj, tmp_path / "isolated.csv"))


@pytest.mark.parametrize("case", SCHEDULE_KINDS + ("isolated-mover", "equivalence-mismatch"))
def test_every_push_settles_its_counters(case, tmp_path):
    if case == "isolated-mover":
        runs, want = [_isolated_mover(tmp_path)], "movement_bound"
    elif case == "equivalence-mismatch":
        runs, want = [_equivalence_mismatch()], "equivalence"
    else:
        runs = [_trajectory(case, d, seed=401 + 1000 * d + SCHEDULE_KINDS.index(case), steps=15)
                for d in (1, 2)]
        want = None
    for traj in runs:
        checker = Checker(traj.epsilon)
        now = analyze_state(traj.state_at(0))
        for t in range(traj.steps):
            nxt = analyze_state(traj.state_at(t + 1), now)
            checker.push(traj.alphas[t], now, nxt)
            prefix = replace(traj, states=traj.states[:t + 2], alphas=traj.alphas[:t + 1])
            assert checker.violations == check_trajectory(prefix)["violations"], (case, t)
            now = nxt
        if want is not None:
            assert checker.violations[want] == 1


def test_trajectory_monitors_reject_a_file_without_states(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# mixed-hk-trajectory v1\n# header={\"version\": 1, \"n\": 2, \"d\": 1, "
                    "\"epsilon\": 1.0, \"schedule\": {\"kind\": \"synchronous\"}, "
                    "\"seed\": 0}\nt,agent,x_0,alpha\n", encoding="utf-8")
    traj = read_trajectory(path)
    assert traj.states == []
    monitors_of_a_trajectory = (
        check_trajectory, lambda t: interaction_equivalence(t, 0.25),
        lambda t: consensus_envelope_check(t, 0.5))
    for monitor in monitors_of_a_trajectory:
        with pytest.raises(IntegrityError, match="no states"):
            monitor(traj)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_advance_reads_the_degrees_of_the_given_profile(kind):
    cfg = _config(kind, 2, seed=5 + SCHEDULE_KINDS.index(kind))
    state = OpinionState(0, cfg.initial, cfg.epsilon)
    alpha = cfg.schedule.alpha_at(0, cfg.n, cfg.seed)
    analysis = analyze_state(state)
    assert _advance(state, alpha, analysis).tobytes() == step(state, alpha).x.tobytes()
    # degrees of one make every agent isolated, whatever its mask row says
    isolated = SimpleNamespace(mask=analysis.mask, degrees=np.ones(cfg.n, dtype=int))
    assert _advance(state, alpha, isolated).tobytes() == state.x.tobytes()


def _same_analysis(got, want) -> bool:
    return (got.mask.tobytes() == want.mask.tobytes()
            and got.labels.tobytes() == want.labels.tobytes()
            and got.degrees.tobytes() == want.degrees.tobytes()
            and _bits(got.component_diameters) == _bits(want.component_diameters)
            and _bits([got.diameter, got.energy]) == _bits([want.diameter, want.energy]))


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_single_step_monitors_match_the_step_records(kind):
    # the oracles read neighbor_matrix and diameter, not an analysis; their
    # values keep the step record's bits
    for d in DIMS:
        traj = _trajectory(kind, d, seed=307 + 1000 * d + SCHEDULE_KINDS.index(kind))
        for t in range(traj.steps):
            now, nxt, alpha = traj.state_at(t), traj.state_at(t + 1), traj.alphas[t]
            m = step_record(now, nxt, alpha)
            trivial, contraction_ok, nonexpansion_ok, coeff, before, after = \
                oracle_contraction(now, nxt, alpha)
            assert _bits(oracle_energy_drop_bound(now, nxt, alpha)) == _bits(m["energy_drop_bound"])
            assert _bits([before, after]) == _bits([m["diam_global"], analyze_state(nxt).diameter])
            assert ((trivial, contraction_ok, nonexpansion_ok, coeff)
                    == (m["epsilon_trivial"], m["contraction_ok"], m["nonexpansion_ok"],
                        m["contraction_coeff"]))


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_analysis_from_the_previous_state_matches_a_fresh_one(kind):
    seen = {"reused": 0, "changed": 0}
    for d in (1, 2):
        traj = _trajectory(kind, d, seed=77 + 1000 * d + SCHEDULE_KINDS.index(kind), steps=40)
        previous = analyze_state(traj.state_at(0))
        for t in range(1, len(traj.states)):
            state = traj.state_at(t)
            got = analyze_state(state, previous)
            assert _same_analysis(got, analyze_state(state))
            if got.labels is previous.labels:
                assert got.mask.tobytes() == previous.mask.tobytes()
                seen["reused"] += 1
            else:
                assert got.mask.tobytes() != previous.mask.tobytes()
                seen["changed"] += 1
            previous = got
    assert seen["reused"] and seen["changed"]


def test_analysis_relabels_a_changed_mask_with_equal_degrees():
    # pairs {0, 1} and {2, 3}, then pairs {0, 2} and {1, 3}: every degree
    # stays 2 while the mask and the component labels change
    before = OpinionState(0, np.array([[0.0], [0.5], [5.0], [5.5]]), 1.0)
    after = OpinionState(1, np.array([[0.0], [5.0], [0.5], [5.5]]), 1.0)
    previous = analyze_state(before)
    got = analyze_state(after, previous)
    assert got.degrees.tobytes() == previous.degrees.tobytes()
    assert got.labels.tolist() == [0, 1, 0, 1] != previous.labels.tolist()
    assert _same_analysis(got, analyze_state(after))
    # an unchanged mask keeps the labels array itself
    moved = OpinionState(2, after.x + 0.25, 1.0)
    assert analyze_state(moved, got).labels is got.labels
    assert _same_analysis(analyze_state(moved, got), analyze_state(moved))


def test_budgets_of_stubborn_agents_with_a_large_spread():
    # agents 0-2 are absolutely stubborn at the middle and the ends of a wide
    # cluster: their spread is large, but their budget terms stay +0.0
    x = np.array([[0.0], [-0.9], [0.9], [-0.6], [0.6], [-0.3], [0.3], [5.0]])
    alpha = np.array([1.0, 1.0, 1.0, 0.0, 0.5, 0.25, 0.9, 0.0])
    cfg = ModelConfig(x, 1.0, StubbornnessSchedule("constant", alpha=alpha), 30,
                      consensus_tol=1e-300)
    traj = simulate(cfg)
    report = check_trajectory(traj, hull=False)
    partial, violations = _oracle_budgets(traj)
    for agent in range(3):
        assert _bits(oracle_movement_budget(traj, agent)[0]) == _bits([0.0] * traj.steps)
    assert _bits(report["partial_sums"]) == _bits(partial)
    assert report["violations"]["movement_bound"] == violations
    assert _bits(partial[:3]) == _bits([0.0] * 3)
    spread0 = np.abs(traj.states[0][3:7] - traj.states[0][0]).max()
    assert spread0 > 0.5


def _track_analyses(monkeypatch) -> dict:
    """Patch analyze_state where the check and the run call it; the returned
    dict counts the calls and the most analyses alive at once."""
    made = []
    seen = {"calls": 0, "most": 0}

    def tracked(state, *args, **kwargs):
        analysis = analyze_state(state, *args, **kwargs)
        made.append(weakref.ref(analysis))
        seen["calls"] += 1
        seen["most"] = max(seen["most"], sum(ref() is not None for ref in made))
        return analysis

    for module in (monitors, SIMULATE, PROFILE):
        monkeypatch.setattr(module, "analyze_state", tracked)
    return seen


@pytest.mark.parametrize("kind", ("asynchronous", "constant"))
def test_batch_analyses_each_state_once(kind, monkeypatch):
    seen = _track_analyses(monkeypatch)
    summary = batch_run(_config(kind, 2, seed=9), 3, 0, hull=True)
    assert seen["calls"] == sum(run["steps"] + 1 for run in summary["per_run"]) > 3


@pytest.mark.parametrize("block", (1, 4))
@pytest.mark.parametrize("route", ("check_trajectory", "batch_run"))
def test_check_holds_one_block_of_analyses_at_a_time(route, block, monkeypatch):
    # the checker buffers a block of steps, whose states' analyses stay
    # alive until the block settles: B steps hold B + 1 of them
    cfg = _config("constant", 2, seed=5)
    monkeypatch.setattr(dynamics, "MASK_BLOCK_BYTES", 8 * cfg.n * cfg.n * block)
    traj = simulate(cfg)
    seen = _track_analyses(monkeypatch)
    if route == "check_trajectory":
        assert check_trajectory(traj)["per_step"]
    else:
        assert batch_run(cfg, 2, 5)["per_run"]
    assert traj.steps > 2 * block and seen["most"] == block + 1


def test_profile_labels_from_edges_match_union_find():
    for edges in all_graphs(5):
        profile = Profile.from_edges(5, edges)
        parent = list(range(5))
        for i, j in edges:
            a, b = min(i, j), max(i, j)
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            parent[max(a, b)] = min(a, b)
        roots = []
        for i in range(5):
            r = i
            while parent[r] != r:
                r = parent[r]
            roots.append(r)
        order = list(dict.fromkeys(roots))
        assert tuple(profile.labels.tolist()) == tuple(order.index(r) for r in roots)


class TestEqualityPredicate:
    def _check(self, a, b):
        a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        want = oracle_opinions_equal(a, b)
        assert opinions_equal(a, b) == want
        events = detect_merge_events([np.array([[0.0] * a.size, [1.0] * a.size]),
                                      np.stack([a, b])])
        assert (len(events) == 1) == want
        return want

    def test_exact_relative_boundary(self):
        # the first coordinate sets the scale, the second holds the difference
        bound = 1e-14 * 1.0
        assert self._check([1.0, 0.0], [1.0, bound])
        assert not self._check([1.0, 0.0], [1.0, np.nextafter(bound, 1.0)])
        assert self._check([-1.0, bound], [-1.0, 0.0])

    def test_one_dimensional_sweep_across_the_boundary(self):
        outcomes = set()
        for scale in (1.0, 3.0, 1e-300, 7.5e200):
            a = np.array([scale])
            ulp = np.spacing(scale)
            for k in range(-60, 61):
                outcomes.add(self._check(a, a + k * ulp))
        assert outcomes == {True, False}

    def test_signed_zero_is_equal(self):
        assert self._check([-0.0], [0.0])
        assert self._check([-0.0, 2.0], [0.0, 2.0])

    def test_merge_depart_remerge(self):
        x = [[0.0], [1.0]], [[0.5], [0.5]], [[0.4], [0.6]], [[0.5], [0.5]], [[0.5], [0.5]]
        states = [np.array(s) for s in x]
        got = [(e["t"], e["i"], e["j"], e["departed"]) for e in detect_merge_events(states)]
        assert got == [(1, 0, 1, True), (3, 0, 1, False)] == oracle_merge_events(states)

    def test_events_sorted_by_time_then_pair(self):
        rng = np.random.default_rng(4)
        states = [rng.integers(0, 2, (6, 1)).astype(np.float64) for _ in range(12)]
        got = [(e["t"], e["i"], e["j"], e["departed"]) for e in detect_merge_events(states)]
        assert got == oracle_merge_events(states)
        assert got == sorted(got)
