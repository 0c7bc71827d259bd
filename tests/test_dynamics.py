"""Core update rule: neighborhoods, averaging, stepping, schedules, simulate."""

import numpy as np
import pytest

from mixedhk import (
    ConfigError,
    ModelConfig,
    OpinionState,
    ScheduleExhaustedError,
    StubbornnessSchedule,
    averaging_matrix,
    build_profile,
    hull_distance,
    neighbor_matrix,
    neighborhoods,
    schedule_alpha,
    simulate,
    step,
)
from mixedhk import dynamics
from mixedhk.dynamics import SCHEDULE_KINDS, neighbor_means
from conftest import oracle_mixed_step, oracle_profile, random_alpha, random_opinions


def oracle_step_x(x: np.ndarray, eps: float, alpha: np.ndarray) -> np.ndarray:
    """``oracle_mixed_step`` on arrays: Python floats in, float64 array out."""
    want = oracle_mixed_step([[float(v) for v in row] for row in x], eps,
                             [float(a) for a in alpha])
    return np.array(want, dtype=np.float64)


def test_state_validation():
    with pytest.raises(ValueError):
        OpinionState(0, np.array([[np.nan]]), 1.0)
    with pytest.raises(ValueError):
        OpinionState(0, np.array([[0.0]]), 0.0)
    with pytest.raises(ValueError):
        OpinionState(0, np.zeros((0, 2)), 1.0)
    with pytest.raises(ValueError):
        OpinionState(-1, np.zeros((2, 2)), 1.0)


class TestNumericDomain:
    def config(self, initial, epsilon):
        return ModelConfig(initial=np.array(initial), epsilon=epsilon,
                           schedule=StubbornnessSchedule("synchronous"), max_steps=5)

    def test_epsilon_squared_must_be_normal(self):
        # 1e-310 squared underflows to 0: agents 1e-300 apart would be neighbors
        with pytest.raises(ValueError, match="epsilon"):
            self.config([[0.0], [1e-300]], 1e-310)
        with pytest.raises(ValueError, match="epsilon"):
            self.config([[0.0], [1.0]], 1e160)  # squares to inf
        self.config([[0.0], [1e-300]], 1e-150)
        self.config([[0.0], [1.0]], 1e150)

    def test_squared_spread_must_be_finite(self):
        # the squared distance of these two opinions overflows to inf
        with pytest.raises(ValueError, match="overflow"):
            self.config([[1e200], [-1e200]], 1.0)
        with pytest.raises(ValueError, match="overflow"):
            self.config([[1e154, 0.0], [0.0, 1e154]], 1.0)  # finite per coordinate, not summed
        self.config([[1e150], [-1e150]], 1.0)
        self.config([[1e154], [0.0]], 1.0)  # squared range 1e308 is still finite

    def test_capped_energy_must_be_finite(self):
        # each squared distance is finite, but 2 * (0.2 + 0.2 + 0.81)e308 is not
        with pytest.raises(ValueError, match="n\\*n\\*epsilon"):
            self.config([[0.0], [0.45e154], [0.9e154]], 1e154)
        self.config([[0.0], [0.45e153], [0.9e153]], 3e153)  # 2 * 9 * 9e306 is finite


class TestNeighborhoods:
    def test_boundary_distance_is_neighbor(self):
        eps = 0.7
        st = OpinionState(0, np.array([[0.0], [eps]]), eps)
        assert neighborhoods(st) == [{0, 1}, {0, 1}]

    def test_three_agents_one_isolated(self):
        st = OpinionState(0, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), 1.0)
        assert neighborhoods(st) == [{0, 1}, {0, 1}, {2}]

    def test_singleton(self):
        st = OpinionState(0, np.array([[3.0]]), 1.0)
        assert neighborhoods(st) == [{0}]

    def test_profile_consistency(self):
        # build_profile and the independent pure-Python edge route agree with N_i
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            st = OpinionState(0, random_opinions(rng, n, d), float(rng.uniform(0.2, 2.0)))
            nbhd = neighborhoods(st)
            prof = build_profile(st)
            assert prof.edges == frozenset(oracle_profile(st.x, st.epsilon)[0])
            for i in range(n):
                for j in range(n):
                    in_nbhd = j in nbhd[i]
                    in_prof = i == j or (min(i, j), max(i, j)) in prof.edges
                    assert in_nbhd == in_prof


class TestAveragingMatrix:
    def test_two_mutual(self):
        st = OpinionState(0, np.array([[0.0], [0.5]]), 1.0)
        assert np.array_equal(averaging_matrix(neighbor_matrix(st)), np.full((2, 2), 0.5))

    def test_example_profile(self):
        st = OpinionState(0, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), 1.0)
        expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(averaging_matrix(neighbor_matrix(st)), expected)

    def test_isolated_row_is_unit_vector(self):
        st = OpinionState(0, np.array([[0.0], [10.0]]), 1.0)
        assert np.array_equal(averaging_matrix(neighbor_matrix(st)), np.eye(2))

    def test_rows_stochastic_and_support_matches(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            st = OpinionState(0, random_opinions(rng, n, int(rng.integers(1, 4))),
                              float(rng.uniform(0.2, 2.5)))
            mask = neighbor_matrix(st)
            A = averaging_matrix(mask)
            assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-15
            assert np.array_equal(A > 0, mask)
            assert np.all(np.diag(A) >= 1.0 / n)


class TestStep:
    def test_half_stubborn_pair(self):
        st = OpinionState(0, np.array([[0.0], [1.0]]), 1.0)
        nxt = step(st, np.array([0.5, 0.5]))
        assert nxt.t == 1
        assert np.array_equal(nxt.x, np.array([[0.25], [0.75]]))

    def test_synchronous_merges_neighbors(self):
        eps = 1.0
        st = OpinionState(0, np.array([[0.0, 0.0], [eps, 0.0], [eps / 2, eps]]), eps)
        nxt = step(st, np.zeros(3))
        assert np.array_equal(nxt.x[0], np.array([eps / 2, 0.0]))
        assert nxt.x[0].tobytes() == nxt.x[1].tobytes()
        assert np.array_equal(nxt.x[2], st.x[2])

    def test_all_stubborn_is_identity(self):
        rng = np.random.default_rng(3)
        st = OpinionState(0, random_opinions(rng, 6, 3), 0.8)
        nxt = step(st, np.ones(6))
        assert nxt.x.tobytes() == st.x.tobytes()

    def test_dimension_mismatch(self):
        st = OpinionState(0, np.zeros((3, 1)), 1.0)
        with pytest.raises(ConfigError):
            step(st, np.zeros(4))
        with pytest.raises(ConfigError):
            step(st, np.array([0.0, 0.5, 1.5]))

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, 4))
            st = OpinionState(0, random_opinions(rng, n, d), float(rng.uniform(0.3, 2.0)))
            alpha = random_alpha(rng, n)
            assert step(st, alpha).x.tobytes() == oracle_step_x(st.x, st.epsilon, alpha).tobytes()

    @pytest.mark.parametrize("opinions", [[0.0, 0.5, 3.0], [0.0, 3.0, 0.5]],
                             ids=["on-an-isolated-agent", "on-a-connected-agent"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stubbornness_is_rejected(self, opinions, bad):
        st = OpinionState(0, np.array(opinions)[:, None], 1.0)
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            step(st, [0.0, 0.0, bad])

    @pytest.mark.parametrize("d", [1, 2, 8, 9])
    def test_matches_oracle_on_wide_rows(self, d):
        # rows of more than 30 neighbors, three isolated agents, -0.0 coordinates,
        # and stubbornness 0, 1 and interior mixed in every step
        rng = np.random.default_rng(40 + d)
        for n, share in ((40, 0.9), (200, 0.3), (200, 0.05)):
            x = random_opinions(rng, n, d)
            x[rng.random((n, d)) < 0.15] = -0.0
            x[:3] = 50.0 + 10.0 * np.arange(3)[:, None]
            gaps = np.sqrt(dynamics.squared_distances(x[3:]))
            st = OpinionState(0, x, float(np.quantile(gaps, share)))
            degrees = np.count_nonzero(neighbor_matrix(st), axis=1)
            assert np.all(degrees[:3] == 1) and (share < 0.1 or degrees.max() > 30)
            alpha = random_alpha(rng, n)
            assert step(st, alpha).x.tobytes() == oracle_step_x(x, st.epsilon, alpha).tobytes()

    def test_adopters_keep_a_negative_zero_mean(self):
        # (5e-324 - 1e-323) / 2 rounds to -0.0, and 0 * 5e-324 + 1 * -0.0 would be +0.0
        st = OpinionState(0, np.array([[5e-324], [-1e-323]]), 1.0)
        nxt = step(st, np.array([0.0, 0.0]))
        assert nxt.x.tobytes() == np.array([[-0.0], [-0.0]]).tobytes()
        assert nxt.x.tobytes() == oracle_step_x(st.x, 1.0, np.zeros(2)).tobytes()

    def test_neighbor_means_of_any_row_block(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            st = OpinionState(0, random_opinions(rng, n, int(rng.integers(1, 4))),
                              float(rng.uniform(0.1, 2.0)))
            mask = neighbor_matrix(st)
            full = neighbor_means(st.x, mask)
            # an isolated agent's mean is its own opinion, so alpha = 0 gives every mean
            assert full.tobytes() == oracle_step_x(st.x, st.epsilon, np.zeros(n)).tobytes()
            rows = rng.integers(0, n, size=int(rng.integers(0, n + 1)))  # any order, repeats
            assert neighbor_means(st.x, mask[rows]).tobytes() == full[rows].tobytes()

    def test_step_asks_for_the_movers_rows_only(self, monkeypatch):
        asked = []
        real = dynamics.neighbor_means

        def spy(x, rows):
            asked.append(rows.shape[0])
            return real(x, rows)

        monkeypatch.setattr(dynamics, "neighbor_means", spy)
        rng = np.random.default_rng(37)
        st = OpinionState(0, random_opinions(rng, 12, 2), 3.0)  # everyone connected
        sched = StubbornnessSchedule("asynchronous", seed=5)
        for t in range(20):
            step(st, sched.alpha_at(t, 12))
        assert asked == [1] * 20
        asked.clear()
        step(st, np.ones(12))
        assert sum(asked) == 0
        asked.clear()
        lonely = OpinionState(0, np.vstack([st.x, [[100.0, 100.0]]]), 3.0)
        step(lonely, np.zeros(13))  # the isolated agent keeps its opinion unasked
        assert asked == [12]

    def test_hull_containment(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            st = OpinionState(0, random_opinions(rng, n, int(rng.integers(1, 4))),
                              float(rng.uniform(0.3, 2.0)))
            mask = neighbor_matrix(st)
            nxt = step(st, random_alpha(rng, n))
            for i in range(n):
                hull_pts = st.x[np.flatnonzero(mask[i])]
                assert hull_distance(nxt.x[i][None, :], hull_pts) <= 1e-12


class TestSchedules:
    def test_synchronous_is_zero(self):
        sched = StubbornnessSchedule("synchronous")
        for t in (0, 5, 1000):
            assert np.array_equal(schedule_alpha(sched, t, 4), np.zeros(4))

    def test_power_law_values(self):
        sched = StubbornnessSchedule("power_law", exponent=2.0)
        assert np.array_equal(sched.alpha_at(0, 3), np.zeros(3))
        expected = 1.0 - 1.0 / 10.0**2
        assert np.array_equal(sched.alpha_at(9, 3), np.full(3, expected))

    def test_power_law_requires_exponent_above_one(self):
        with pytest.raises(ConfigError):
            StubbornnessSchedule("power_law", exponent=1.0)

    def test_asynchronous_one_open_agent(self):
        sched = StubbornnessSchedule("asynchronous", seed=42)
        seen = set()
        for t in range(50):
            a = sched.alpha_at(t, 3)
            zeros = np.flatnonzero(a == 0.0)
            assert len(zeros) == 1
            assert np.all(a[a != 0.0] == 1.0)
            seen.add(int(zeros[0]))
        assert seen == {0, 1, 2}  # every agent eventually chosen

    def test_asynchronous_replay_exact(self):
        sched = StubbornnessSchedule("asynchronous")
        first = [sched.alpha_at(t, 5, seed=9) for t in range(20)]
        replay = [sched.alpha_at(t, 5, seed=9) for t in range(20)]
        for a, b in zip(first, replay):
            assert np.array_equal(a, b)

    def test_table_exhaustion(self):
        sched = StubbornnessSchedule("table", table=(np.zeros(2), np.ones(2)))
        assert np.array_equal(sched.alpha_at(1, 2), np.ones(2))
        with pytest.raises(ScheduleExhaustedError):
            sched.alpha_at(2, 2)

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            StubbornnessSchedule("constant", alpha=np.array([0.5, 1.5]))


class TestSimulate:
    def test_single_agent_steady_immediately(self):
        cfg = ModelConfig(initial=np.array([[2.0, 3.0]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=50)
        traj = simulate(cfg)
        assert len(traj.states) == 2
        assert traj.stop_reason == "steady"

    def test_two_isolated_agents_steady(self):
        cfg = ModelConfig(initial=np.array([[0.0], [5.0]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=50)
        traj = simulate(cfg)
        assert len(traj.states) == 2
        assert traj.stop_reason == "steady"

    def test_gap_halves_and_never_freezes(self):
        cfg = ModelConfig(
            initial=np.array([[-0.5], [0.5]]), epsilon=1.0,
            schedule=StubbornnessSchedule("constant", alpha=np.array([0.5, 0.5])),
            max_steps=50, consensus_tol=1e-300)
        traj = simulate(cfg)
        assert traj.stop_reason == "horizon"
        for t, x in enumerate(traj.states):
            assert float(x[1, 0] - x[0, 0]) == 2.0**-t

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(initial=random_opinions(rng, 8, 2), epsilon=0.8,
                          schedule=StubbornnessSchedule("asynchronous"),
                          max_steps=60, seed=123)
        t1, t2 = simulate(cfg), simulate(cfg)
        assert len(t1.states) == len(t2.states)
        for a, b in zip(t1.states, t2.states):
            assert a.tobytes() == b.tobytes()

    def test_asynchronous_changes_at_most_one_row(self):
        rng = np.random.default_rng(29)
        cfg = ModelConfig(initial=random_opinions(rng, 6, 2), epsilon=2.0,
                          schedule=StubbornnessSchedule("asynchronous"),
                          max_steps=40, seed=7, consensus_tol=1e-300)
        traj = simulate(cfg)
        for t in range(traj.steps):
            moved = [i for i in range(6)
                     if traj.states[t][i].tobytes() != traj.states[t + 1][i].tobytes()]
            assert len(moved) <= 1
            if moved:
                scheduled = int(np.flatnonzero(traj.alphas[t] == 0.0)[0])
                assert moved == [scheduled]

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_matches_oracle_steps_for_every_schedule(self, kind):
        rng = np.random.default_rng(43)
        n = 10
        schedule = StubbornnessSchedule(
            kind, alpha=random_alpha(rng, n) if kind == "constant" else None,
            exponent=2.0 if kind == "power_law" else None,
            table=tuple(random_alpha(rng, n) for _ in range(30)) if kind == "table" else None)
        x = random_opinions(rng, n, 2)
        x[:2] = -0.0
        cfg = ModelConfig(initial=x, epsilon=0.7, schedule=schedule, max_steps=30,
                          seed=19, consensus_tol=1e-300)
        traj = simulate(cfg)
        assert traj.steps >= 1
        for t in range(traj.steps):
            alpha = schedule.alpha_at(t, n, cfg.seed)
            assert traj.alphas[t].tobytes() == alpha.tobytes()
            want = oracle_step_x(traj.states[t], cfg.epsilon, alpha)
            assert traj.states[t + 1].tobytes() == want.tobytes()

    def test_table_exhaustion_propagates(self):
        cfg = ModelConfig(initial=np.array([[0.0], [0.5]]), epsilon=1.0,
                          schedule=StubbornnessSchedule(
                              "table", table=(np.array([0.5, 0.5]),)),
                          max_steps=5, consensus_tol=1e-300)
        with pytest.raises(ScheduleExhaustedError):
            simulate(cfg)

    def test_monitor_flags_control_recording(self):
        cfg = ModelConfig(initial=np.array([[0.0], [0.5]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"),
                          max_steps=5, monitors=())
        assert simulate(cfg).metrics is None
        cfg2 = ModelConfig(initial=np.array([[0.0], [0.5]]), epsilon=1.0,
                           schedule=StubbornnessSchedule("synchronous"),
                           max_steps=5, monitors=("energy",))
        traj = simulate(cfg2)
        assert traj.metrics is not None and len(traj.metrics) == traj.steps
