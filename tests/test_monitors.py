"""Energy descent, contraction, budgets, floors, settling, and equivalences."""

import numpy as np
import pytest

from mixedhk import (
    Checker,
    ModelConfig,
    OpinionState,
    StubbornnessSchedule,
    Trajectory,
    check_trajectory,
    consensus_envelope_check,
    contraction_coefficient,
    diameter,
    interaction_equivalence,
    settling_bounds,
    simulate,
    step,
)
import mixedhk.monitors as monitors
from mixedhk.profile import analyze_state
from conftest import (floor_verdict, oracle_interaction_times, oracle_movement_budget,
                      pushed_floor_violations, random_alpha, random_opinions, step_record)


def example1_pair(eps=1.0):
    return OpinionState(0, np.array([[-eps / 2], [eps / 2]]), eps)


class TestEnergy:
    def test_two_far_agents_capped(self):
        st = OpinionState(0, np.array([[0.0], [2.0]]), 1.0)
        assert analyze_state(st).energy == 2.0  # both ordered pairs capped at eps^2 = 1

    def test_all_equal_zero(self):
        st = OpinionState(0, np.zeros((5, 3)), 1.0)
        assert analyze_state(st).energy == 0.0

    def test_boundary_cap_binds_exactly(self):
        eps = 1.0
        st = OpinionState(0, np.array([[0.0], [eps]]), eps)
        assert analyze_state(st).energy == 2.0 * eps**2

    def test_energy_cap_invariant(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            st = OpinionState(0, random_opinions(rng, n, 2, scale=5.0),
                              float(rng.uniform(0.1, 2.0)))
            z = analyze_state(st).energy
            assert 0.0 <= z <= n**2 * st.epsilon**2


class TestEnergyDropBound:
    def test_all_stubborn_zero(self):
        st = OpinionState(0, np.array([[0.0], [0.5]]), 1.0)
        nxt = step(st, np.ones(2))
        assert step_record(st, nxt, np.ones(2))["energy_drop_bound"] == 0.0

    def test_synchronous_coefficient_reduces_to_four(self):
        rng = np.random.default_rng(67)
        st = OpinionState(0, random_opinions(rng, 5, 2), 1.0)
        nxt = step(st, np.zeros(5))
        disp = ((nxt.x - st.x) ** 2).sum()
        bound = step_record(st, nxt, np.zeros(5))["energy_drop_bound"]
        assert bound == pytest.approx(4.0 * disp, rel=1e-15)

    def test_half_stubborn_pair_attains_equality(self):
        st = example1_pair()
        alpha = np.array([0.5, 0.5])
        nxt = step(st, alpha)
        record = step_record(st, nxt, alpha)
        drop, bound = record["energy_drop"], record["energy_drop_bound"]
        assert drop == analyze_state(st).energy - analyze_state(nxt).energy
        assert drop == pytest.approx(1.5, abs=1e-15)
        assert abs(drop - bound) <= 1e-12

    def test_random_sweep_never_violated(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            st = OpinionState(0, random_opinions(rng, n, d), float(rng.uniform(0.2, 2.0)))
            alpha = random_alpha(rng, n)
            nxt = step(st, alpha)
            record = step_record(st, nxt, alpha)
            drop, bound = record["energy_drop"], record["energy_drop_bound"]
            assert drop >= bound - 1e-9 * n**2 * st.epsilon**2
            assert record["energy_ok"]


class TestContractionCoefficient:
    def test_all_equal(self):
        assert contraction_coefficient(np.full(4, 0.3)) == 0.3

    def test_three_agents(self):
        val = contraction_coefficient(np.array([0.9, 0.5, 0.1]))
        assert val == pytest.approx(0.9 - 0.4 / 3.0, abs=1e-15)

    def test_two_agents_extreme(self):
        assert contraction_coefficient(np.array([1.0, 0.0])) == 0.5

    def test_needs_two(self):
        with pytest.raises(ValueError):
            contraction_coefficient(np.array([0.5]))

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            alpha = random_alpha(rng, n)
            best = max(
                alpha[i] - (alpha[i] - alpha[j]) / n
                for i in range(n) for j in range(n)
                if i != j and alpha[i] >= alpha[j]
            )
            assert contraction_coefficient(alpha) == best
            assert contraction_coefficient(alpha) <= 1.0


class TestContractionCheck:
    def test_half_stubborn_pair_tight(self):
        st = example1_pair()
        nxt = step(st, np.array([0.5, 0.5]))
        record = step_record(st, nxt, np.array([0.5, 0.5]))
        assert record["epsilon_trivial"] and record["contraction_ok"] and record["nonexpansion_ok"]
        assert record["contraction_coeff"] == 0.5
        assert diameter(nxt.x) == 0.5 * record["diam_global"]  # equality attained

    def test_synchronous_one_step_consensus(self):
        rng = np.random.default_rng(79)
        x = random_opinions(rng, 6, 2, scale=0.1)
        st = OpinionState(0, x, 1.0)  # complete profile
        nxt = step(st, np.zeros(6))
        record = step_record(st, nxt, np.zeros(6))
        assert record["contraction_coeff"] == 0.0
        assert diameter(nxt.x) == 0.0

    def test_all_stubborn_unchanged(self):
        st = example1_pair()
        nxt = step(st, np.ones(2))
        record = step_record(st, nxt, np.ones(2))
        assert record["contraction_ok"] and diameter(nxt.x) == record["diam_global"]

    def test_not_applicable_beyond_epsilon(self):
        st = OpinionState(0, np.array([[0.0], [5.0]]), 1.0)
        nxt = step(st, np.zeros(2))
        record = step_record(st, nxt, np.zeros(2))
        assert not record["epsilon_trivial"] and record["nonexpansion_ok"]
        assert record["contraction_ok"] is None and record["contraction_coeff"] is None

    def test_epsilon_trivial_sweep(self):
        rng = np.random.default_rng(83)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            eps = float(rng.uniform(0.3, 1.5))
            x = random_opinions(rng, n, d)
            dm = diameter(x)
            if dm > 0:
                x = x * (eps * float(rng.uniform(0.1, 1.0)) / dm)
            st = OpinionState(0, x, eps)
            alpha = random_alpha(rng, n)
            nxt = step(st, alpha)
            record = step_record(st, nxt, alpha)
            assert record["epsilon_trivial"] and record["contraction_ok"]
            assert record["nonexpansion_ok"]

    def test_nonexpansion_arbitrary_sweep(self):
        rng = np.random.default_rng(89)
        for _ in range(1000):
            n = int(rng.integers(1, 10))
            st = OpinionState(0, random_opinions(rng, n, int(rng.integers(1, 4))),
                              float(rng.uniform(0.2, 2.0)))
            nxt = step(st, random_alpha(rng, n))
            assert diameter(nxt.x) <= diameter(st.x) + 1e-12


class TestConsensusEnvelope:
    def test_constant_half(self):
        cfg = ModelConfig(initial=np.array([[-0.5], [0.5]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("constant", alpha=np.full(2, 0.5)),
                          max_steps=40, consensus_tol=1e-300)
        report = consensus_envelope_check(simulate(cfg), 0.5)
        assert report["applicable"] and report["hypothesis_met"]
        assert report["envelope_ok"] and report["power_envelope_ok"]
        assert report["contracting_steps"] == 40

    def test_alternating_schedule(self):
        # near-stubborn on even steps (a full 1.0 step is a bitwise fixed
        # point and would trip the steady-state detector), contracting on odd
        rows = tuple(np.full(3, 0.99) if t % 2 == 0 else np.full(3, 0.5)
                     for t in range(30))
        cfg = ModelConfig(initial=np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.4]]),
                          epsilon=1.0,
                          schedule=StubbornnessSchedule("table", table=rows),
                          max_steps=30, consensus_tol=1e-300)
        report = consensus_envelope_check(simulate(cfg), 0.5)
        assert report["envelope_ok"] and report["power_envelope_ok"]
        assert report["contracting_steps"] == 15

    def test_all_stubborn_hypothesis_unmet(self):
        cfg = ModelConfig(initial=np.array([[-0.2], [0.2]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("constant", alpha=np.ones(2)),
                          max_steps=10, consensus_tol=1e-300)
        report = consensus_envelope_check(simulate(cfg), 0.9)
        assert report["applicable"] and not report["hypothesis_met"]


class TestMovementBudget:
    def test_isolated_agent_zero_terms(self):
        cfg = ModelConfig(initial=np.array([[0.0], [10.0]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=5)
        traj = simulate(cfg)
        terms, _, _, _ = oracle_movement_budget(traj, 0)
        assert all(t == 0.0 for t in terms)
        report = check_trajectory(traj, hull=False)
        assert report["partial_sums"][0] == 0.0
        assert report["violations"]["movement_bound"] == 0

    def test_fully_stubborn_agent(self):
        cfg = ModelConfig(initial=np.array([[0.0], [0.5]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("constant", alpha=np.array([1.0, 0.0])),
                          max_steps=5, consensus_tol=1e-300)
        traj = simulate(cfg)
        terms, _, _, _ = oracle_movement_budget(traj, 0)
        assert all(t == 0.0 for t in terms)
        report = check_trajectory(traj, hull=False)
        assert report["partial_sums"][0] == 0.0
        assert report["violations"]["movement_bound"] == 0

    def test_power_law_partial_sums_bounded(self):
        rng = np.random.default_rng(97)
        cfg = ModelConfig(initial=random_opinions(rng, 8, 2), epsilon=0.6,
                          schedule=StubbornnessSchedule("power_law", exponent=2.0),
                          max_steps=300, consensus_tol=1e-300)
        report = check_trajectory(simulate(cfg), hull=False)
        cap = cfg.epsilon * np.pi**2 / 6.0 + 1e-9
        assert report["violations"]["movement_bound"] == 0
        assert len(report["partial_sums"]) == 8
        assert all(s <= cap for s in report["partial_sums"])

    def test_frozen_cliques_budgets_and_stability(self):
        # isolated cliques merge at the first (fully open-minded) step; each
        # component's diameter is then exactly zero, so the consensus stop
        # fires and the budgets record just the one jump
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        rng = np.random.default_rng(101)
        pts = np.concatenate([c + rng.uniform(-0.1, 0.1, size=(3, 2)) for c in centers])
        cfg = ModelConfig(initial=pts, epsilon=0.5,
                          schedule=StubbornnessSchedule("power_law", exponent=2.0),
                          max_steps=300)
        traj = simulate(cfg)
        assert traj.stop_reason == "consensus" and traj.steps == 1
        assert max(analyze_state(traj.state_at(1)).component_diameters) == 0.0
        report = check_trajectory(traj, hull=False)
        assert report["violations"]["movement_bound"] == 0
        assert all(s > 0.0 for s in report["partial_sums"])  # one term each

    def test_powerlaw_tail_vanishes_on_long_run(self):
        # a chain that never merges exactly: movement terms decay like 1/t^2,
        # so the final opinions are stable to 1e-8 over the last 100 steps of
        # a long horizon and the last-100 budget tail is tiny
        x = np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0], [0.8, 0.4]])
        cfg = ModelConfig(initial=x, epsilon=0.5,
                          schedule=StubbornnessSchedule("power_law", exponent=2.0),
                          max_steps=50000, consensus_tol=1e-300, monitors=())
        checker = Checker(cfg.epsilon, hull=False)
        traj = simulate(cfg, checker)
        assert traj.steps == 50000
        assert checker.report(traj)["violations"]["movement_bound"] == 0
        assert np.abs(traj.states[-1] - traj.states[-101]).max() <= 1e-8
        # the budgets of the last 100 steps alone
        tail = Trajectory(n=4, d=2, epsilon=cfg.epsilon, schedule=traj.schedule, seed=0,
                          states=traj.states[-101:], alphas=traj.alphas[-100:],
                          stop_reason="horizon")
        assert all(s <= 1e-7 for s in check_trajectory(tail, hull=False)["partial_sums"])


class TestDisplacementFloor:
    def test_two_agents_at_epsilon(self):
        eps = 1.0
        st = OpinionState(0, np.array([[0.0], [eps]]), eps)
        nxt = step(st, np.zeros(2))
        verdict = floor_verdict(st, nxt, np.zeros(2), delta=eps / 2)
        assert verdict.applicable and verdict.ok
        assert verdict.displacement_sq_sum == pytest.approx(eps**2 / 2.0, abs=1e-15)
        assert verdict.floor == pytest.approx(2.0 * (eps / 2) ** 2 / 2**8, abs=1e-18)
        assert pushed_floor_violations(st, nxt, np.zeros(2), eps / 2) == (
            verdict.applicable and not verdict.ok)

    def test_alpha_near_one_still_holds(self):
        eps = 1.0
        st = OpinionState(0, np.array([[0.0], [eps]]), eps)
        alpha = np.full(2, 0.999999)
        nxt = step(st, alpha)
        verdict = floor_verdict(st, nxt, alpha, delta=eps / 2)
        assert verdict.applicable and verdict.ok
        assert pushed_floor_violations(st, nxt, alpha, eps / 2) == (
            verdict.applicable and not verdict.ok)

    def test_alpha_one_not_applicable(self):
        st = OpinionState(0, np.array([[0.0], [1.0]]), 1.0)
        nxt = step(st, np.ones(2))
        verdict = floor_verdict(st, nxt, np.ones(2), delta=0.5)
        assert not verdict.applicable and verdict.reason == "some alpha_i = 1"
        assert pushed_floor_violations(st, nxt, np.ones(2), 0.5) == (
            verdict.applicable and not verdict.ok)

    def test_trivial_components_not_applicable(self):
        st = OpinionState(0, np.array([[0.0], [5.0]]), 1.0)
        nxt = step(st, np.zeros(2))
        verdict = floor_verdict(st, nxt, np.zeros(2), delta=0.5)
        assert not verdict.applicable
        assert verdict.reason == "every component delta-trivial"
        assert pushed_floor_violations(st, nxt, np.zeros(2), 0.5) == (
            verdict.applicable and not verdict.ok)

    def test_a_frozen_step_fails_the_floor(self):
        # a tampered step: no agent moves although a component is delta-nontrivial
        st = OpinionState(0, np.array([[0.0], [1.0], [5.0]]), 1.0)
        alpha = np.array([0.5, 0.0, 0.0])
        verdict = floor_verdict(st, st, alpha, delta=0.25)
        assert verdict.applicable and not verdict.ok
        assert verdict.displacement_sq_sum == 0.0
        assert verdict.floor == 2.0 * 0.25**2 * 0.25 / 3**8
        assert pushed_floor_violations(st, st, alpha, 0.25) == 1

    def test_fragmented_profile_sweep(self):
        rng = np.random.default_rng(103)
        applicable = 0
        for _ in range(500):
            n = int(rng.integers(2, 10))
            st = OpinionState(0, random_opinions(rng, n, 2), float(rng.uniform(0.3, 1.0)))
            alpha = rng.uniform(0.0, 0.95, size=n)
            delta = st.epsilon / 4.0
            nxt = step(st, alpha)
            verdict = floor_verdict(st, nxt, alpha, delta)
            assert pushed_floor_violations(st, nxt, alpha, delta) == (
                verdict.applicable and not verdict.ok)
            if verdict.applicable:
                applicable += 1
                assert verdict.ok
        assert applicable > 100


class TestSettling:
    def test_isolated_agents_settle_at_zero(self):
        cfg = ModelConfig(initial=np.array([[0.0], [9.0]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=5)
        assert check_trajectory(simulate(cfg), 1e-6, hull=False)["tau_delta"] == 0

    def test_gap_halving_settles_at_two(self):
        cfg = ModelConfig(initial=np.array([[-0.5], [0.5]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("constant", alpha=np.full(2, 0.5)),
                          max_steps=20, consensus_tol=1e-300)
        assert check_trajectory(simulate(cfg), 0.25, hull=False)["tau_delta"] == 2

    def test_synchronous_complete_settles_at_one(self):
        rng = np.random.default_rng(107)
        cfg = ModelConfig(initial=random_opinions(rng, 5, 2, scale=0.3), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=5)
        assert check_trajectory(simulate(cfg), 1e-9, hull=False)["tau_delta"] == 1

    def test_bounds_formulas(self):
        tau_bound, interaction_bound = settling_bounds(3, 1.0, 0.25, 0.5)
        assert tau_bound == 472392.0
        assert interaction_bound == 118098.0
        sync_tau, _ = settling_bounds(3, 1.0, 0.25, 0.0)
        assert sync_tau == 3**10 * 16 / 8.0

    def test_bounds_domain(self):
        with pytest.raises(ValueError):
            settling_bounds(3, 1.0, 0.25, 1.0)
        with pytest.raises(ValueError):
            settling_bounds(3, 1.0, 2.0, 0.5)


class TestInteractionEquivalence:
    def test_far_clusters_all_false(self):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]])
        cfg = ModelConfig(initial=x, epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=3)
        report = interaction_equivalence(simulate(cfg), 0.25)
        assert report["mismatches"] == 0
        assert report["interaction_steps"] == []
        assert all(not s["interaction"] for s in report["steps"])

    def test_engineered_contact_step(self):
        # a singleton facing a 2-cluster whose midpoint is epsilon-close:
        # contact happens in one step and all three conditions flip together
        x = np.array([[0.0, 0.0], [0.999, 0.12], [0.999, -0.12]])
        cfg = ModelConfig(initial=x, epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=2,
                          consensus_tol=1e-300)
        traj = simulate(cfg)
        report = interaction_equivalence(traj, 0.25)
        assert report["mismatches"] == 0
        first = report["steps"][0]
        assert first["interaction"] and first["next_nontrivial"] and first["half_eps_nontrivial"]
        assert report["interaction_steps"] == [0]

    def test_single_cluster_vacuous(self):
        x = np.array([[0.0, 0.0], [0.05, 0.0]])
        cfg = ModelConfig(initial=x, epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=2)
        report = interaction_equivalence(simulate(cfg), 0.25)
        assert report["mismatches"] == 0
        assert all(not s["interaction"] for s in report["steps"])

    def test_delta_cap_enforced(self):
        cfg = ModelConfig(initial=np.zeros((2, 1)), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=2)
        with pytest.raises(ValueError):
            interaction_equivalence(simulate(cfg), 0.3)

    def test_random_sweep_equivalence(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            cfg = ModelConfig(initial=random_opinions(rng, n, 2), epsilon=0.5,
                              schedule=StubbornnessSchedule(
                                  "constant", alpha=rng.uniform(0, 0.9, size=n)),
                              max_steps=30, seed=int(rng.integers(2**32)))
            report = interaction_equivalence(simulate(cfg), cfg.epsilon / 4.0)
            assert report["mismatches"] == 0


class TestFirstInteractionTimes:
    def test_one_pass_matches_the_per_threshold_scan(self):
        rng = np.random.default_rng(53)
        eps = 1.0
        thresholds = [eps / m for m in range(4, 66)]
        for case in range(300):
            horizon = int(rng.integers(1, 40))
            m_max = int(rng.choice([4, 5, 9, 64]))
            # diameters drawn from the thresholds themselves, so many equal
            # epsilon/m exactly, with some wider and narrower values mixed in
            pool = thresholds + [0.0, 0.3 * eps, 2.0 * eps, 1e-300]
            cache = [list(rng.choice(pool, int(rng.integers(1, 4)))) for _ in range(horizon)]
            if case % 3 == 0:  # a settling time that is never reached
                cache = [diams + [eps / 5.0] for diams in cache]
            want = oracle_interaction_times(eps, cache, m_max)
            got = monitors._interaction_times(eps, cache, m_max)
            assert got == want
            assert all(type(t) is int for t in got)

    def test_boundary_diameters_and_unreached_settling(self):
        eps = 1.0
        # widest components exactly epsilon/4, epsilon/5 and epsilon/6:
        # each is settled at its own threshold and nontrivial at the next
        cache = [[eps / 4.0], [eps / 5.0], [eps / 4.0], [eps / 6.0], [eps / 5.0], [eps / 6.0]]
        assert monitors._interaction_times(eps, cache, 64) == oracle_interaction_times(eps, cache)
        assert oracle_interaction_times(eps, cache) == [2, 4]
        # tau_4 never reached: no window opens
        assert monitors._interaction_times(eps, [[eps], [eps / 3.0]], 64) == []
        assert oracle_interaction_times(eps, [[eps], [eps / 3.0]]) == []

    def test_engineered_contact_recorded(self):
        x = np.array([[0.0, 0.0], [0.999, 0.12], [0.999, -0.12]])
        cfg = ModelConfig(initial=x, epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=4,
                          consensus_tol=1e-300)
        traj = simulate(cfg)
        times = check_trajectory(traj, hull=False)["interaction_times"]
        assert times and all(0 <= t < traj.steps for t in times)

    def test_quiet_run_empty(self):
        cfg = ModelConfig(initial=np.array([[0.0], [9.0]]), epsilon=1.0,
                          schedule=StubbornnessSchedule("synchronous"), max_steps=3)
        assert check_trajectory(simulate(cfg), hull=False)["interaction_times"] == []


class TestStepMetrics:
    def test_fields_and_interaction_flag(self):
        x = np.array([[0.0, 0.0], [0.999, 0.12], [0.999, -0.12]])
        st = OpinionState(0, x, 1.0)
        nxt = step(st, np.zeros(3))
        record = step_record(st, nxt, np.zeros(3), interaction=True)
        assert record["interaction"] is True
        assert record["energy_ok"] and record["nonexpansion_ok"]
        assert record["energy_drop"] == record["energy"] - record["energy_next"]
        assert len(record["diam_per_component"]) == 2
        assert len(record["displacement_sq"]) == 3
        assert record["t"] == 0
        # the checker records the interaction of every step it is pushed
        checker = Checker(st.epsilon)
        now = analyze_state(st)
        checker.push(np.zeros(3), now, analyze_state(nxt, now))
        assert checker.records == [record]

    def test_energy_slack_scales_with_problem(self):
        st = OpinionState(0, np.array([[0.0], [0.5]]), 1.0)
        nxt = step(st, np.array([0.25, 0.75]))
        record = step_record(st, nxt, np.array([0.25, 0.75]))
        assert record["interaction"] is None and record["hull_ok"] is None
        assert record["energy_drop"] >= record["energy_drop_bound"] - 1e-9 * 4 * 1.0

    def test_hull_flag_records_containment(self):
        rng = np.random.default_rng(131)
        cfg = ModelConfig(initial=random_opinions(rng, 5, 2), epsilon=0.7,
                          schedule=StubbornnessSchedule("synchronous"),
                          max_steps=10, monitors=("hull",))
        traj = simulate(cfg)
        assert traj.metrics and all(m["hull_ok"] is True for m in traj.metrics)


class TestCheckTrajectory:
    def test_healthy_run_report(self):
        rng = np.random.default_rng(113)
        cfg = ModelConfig(initial=random_opinions(rng, 6, 2), epsilon=0.6,
                          schedule=StubbornnessSchedule(
                              "constant", alpha=rng.uniform(0, 0.8, size=6)),
                          max_steps=60, seed=5)
        traj = simulate(cfg)
        report = check_trajectory(traj)
        assert report["ok"]
        assert report["total_violations"] == 0
        assert report["energy_descent_violations"] == 0
        assert report["contraction_violations"] == 0
        assert report["tau_delta"] is not None
        assert report["tau_bound"] is not None
        assert report["tau_delta"] <= report["tau_bound"]
        assert len(report["per_step"]) == traj.steps

    def test_telescoping_budget(self):
        # total weighted displacement stays within the initial energy
        rng = np.random.default_rng(127)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            cfg = ModelConfig(initial=random_opinions(rng, n, 2), epsilon=0.7,
                              schedule=StubbornnessSchedule(
                                  "constant", alpha=rng.uniform(0, 0.9, size=n)),
                              max_steps=50, seed=int(rng.integers(2**32)))
            traj = simulate(cfg)
            z0 = analyze_state(traj.state_at(0)).energy
            total_disp = sum(
                float(((traj.states[t + 1] - traj.states[t]) ** 2).sum())
                for t in range(traj.steps)
            )
            assert 4.0 * total_disp <= z0 + 1e-9 * n**2 * cfg.epsilon**2
            assert z0 <= n**2 * cfg.epsilon**2

    def test_each_step_evaluates_its_predicates_once(self, monkeypatch):
        # the equivalence record reuses the step record's interaction, and
        # delta-triviality is read off each block's widest components, so the
        # report's consensus test is the one components_within call
        from mixedhk.profile import StateAnalysis

        # a nontrivial cluster beside two trivial ones: steps of both kinds
        x = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 0.0], [5.1, 0.0], [9.0, 0.0], [9.05, 0.0]])
        cfg = ModelConfig(initial=x, epsilon=0.6,
                          schedule=StubbornnessSchedule("constant", alpha=np.full(6, 0.5)),
                          max_steps=40, consensus_tol=1e-300)
        traj = simulate(cfg)
        calls = {"components_within": 0, "_interact": 0}
        within, interact = StateAnalysis.components_within, monitors._interact

        def counted_within(self, tol):
            calls["components_within"] += 1
            return within(self, tol)

        def counted_interact(now, nxt):
            calls["_interact"] += 1
            return interact(now, nxt)

        monkeypatch.setattr(StateAnalysis, "components_within", counted_within)
        monkeypatch.setattr(monitors, "_interact", counted_interact)
        checker = monitors._checked(traj, None, hull=False)
        report = checker.report(traj)
        assert 0 < len(checker.equivalence) < traj.steps == len(report["per_step"])
        assert calls == {"components_within": 1, "_interact": traj.steps}
