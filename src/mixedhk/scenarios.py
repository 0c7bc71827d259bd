"""Built-in scenarios: small configurations with executable expected outcomes.

Each scenario bundles a ModelConfig with assertions that pin down a behavior
the model exhibits and the synchronous special case does not (or a behavior
a schedule family guarantees). The confidence bound is fixed at 1.0 where
the behavior is scale-free. Reports state, per assertion, the claim being
instantiated, the expected outcome, and what the run produced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .dynamics import ModelConfig, StubbornnessSchedule
from .monitors import Checker
from .profile import build_profile, check_delta_equilibrium
from .simulate import simulate
from .trajectory import Trajectory


@dataclass
class Check:
    label: str
    claim: str
    fn: Callable  # (Trajectory, check report) -> (passed, expected, observed)


@dataclass
class Scenario:
    name: str
    description: str
    config: ModelConfig
    checks: list


def run_scenario(name: str) -> dict:
    """Run a built-in scenario and evaluate its assertions.

    Returns a JSON-ready report with one record per assertion; ``passed`` is
    the conjunction. The run is checked (without the hull check) while it
    is simulated, and each assertion reads the run and that one report:
    its step records, merge events, violations and movement budgets.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    scenario = SCENARIOS[name]()
    checker = Checker(scenario.config.epsilon, hull=False)
    # the checker verifies each step as it is made, so simulate records nothing
    traj = simulate(replace(scenario.config, monitors=()), checker)
    report = checker.report(traj)
    records = []
    all_ok = True
    for check in scenario.checks:
        passed, expected, observed = check.fn(traj, report)
        all_ok &= bool(passed)
        records.append({
            "label": check.label,
            "claim": check.claim,
            "passed": bool(passed),
            "expected": expected,
            "observed": observed,
        })
    return {
        "scenario": name,
        "description": scenario.description,
        "passed": all_ok,
        "assertions": records,
        "steps": traj.steps,
        "stop_reason": traj.stop_reason,
    }


def _example1() -> Scenario:
    # centered on the origin: the halving gap stays a sum of exact powers of
    # two for the whole horizon (around any other midpoint the positions
    # collapse bitwise once the gap drops below one ulp of the midpoint)
    config = ModelConfig(
        initial=np.array([[-0.5], [0.5]]),
        epsilon=1.0,
        schedule=StubbornnessSchedule("constant", alpha=np.array([0.5, 0.5])),
        max_steps=200,
        consensus_tol=1e-300,  # keep the soft stop out of the way
        seed=0,
    )

    def no_steady(traj: Trajectory, _report):
        ok = traj.stop_reason == "horizon" and traj.steps == 200
        return ok, "200 steps, no exact steady state", \
            f"{traj.steps} steps, stop_reason={traj.stop_reason}"

    def gap_law(traj: Trajectory, _report):
        worst = 0.0
        for t, x in enumerate(traj.states):
            gap = abs(float(x[1, 0] - x[0, 0]))
            worst = max(worst, abs(gap - traj.epsilon / 2.0**t))
        return worst <= 1e-12, "gap(t) = epsilon/2^t within 1e-12", f"max deviation {worst}"

    return Scenario(
        "example1",
        "Two half-stubborn agents an epsilon apart close the gap by half "
        "each step and never reach an exact steady state.",
        config,
        [Check("no-steady-state", "no finite termination for this run", no_steady),
         Check("gap-halving", "the opinion gap follows epsilon/2^t exactly", gap_law)],
    )


def _example2() -> Scenario:
    config = ModelConfig(
        initial=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
        epsilon=1.0,
        schedule=StubbornnessSchedule(
            "table",
            table=(np.array([0.0, 0.0, 0.0]), np.array([1.0 / 3.0, 0.5, 0.0])),
        ),
        max_steps=2,
        consensus_tol=1e-300,
        seed=0,
    )

    def merge_then_depart(traj: Trajectory, report: dict):
        events = report["merge_events"]
        hit = [e for e in events
               if e["type"] == "merge" and e["t"] == 1 and {e["i"], e["j"]} == {0, 1}]
        ok = bool(hit) and hit[0]["departed"]
        return ok, "agents 0 and 1 merge at t=1 and depart at t=2", \
            f"events={events}"

    def departure_coordinates(traj: Trajectory, _report):
        # direct evaluation: at t=1 all three sit within epsilon, so both
        # agents mix with the common mean (0.5, 1/3)
        mean_y = (0.0 + 0.0 + 1.0) / 3.0
        expected = np.array([
            [0.5, (1.0 - 1.0 / 3.0) * mean_y],
            [0.5, 0.5 * mean_y],
        ])
        got = traj.states[2][:2]
        worst = float(np.abs(got - expected).max())
        return worst <= 1e-12, "x_0(2)=(1/2, 2/9), x_1(2)=(1/2, 1/6)", \
            f"max deviation {worst}"

    return Scenario(
        "example2",
        "Open-minded at t=0, unevenly stubborn at t=1: two agents merge and "
        "then separate again, so merged opinions need not stay merged.",
        config,
        [Check("merge-then-depart", "a merge at one step can undo at the next",
               merge_then_depart),
         Check("departure-coordinates", "post-departure opinions match direct evaluation",
               departure_coordinates)],
    )


def _example3() -> Scenario:
    # symmetric embedding, and a horizon of 24: beyond that the squared gap
    # underflows against 1.0 in double precision, so the float distance to
    # the hovering agent spuriously rounds down to epsilon
    config = ModelConfig(
        initial=np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 1.0]]),
        epsilon=1.0,
        schedule=StubbornnessSchedule("constant", alpha=np.array([0.5, 0.5, 0.0])),
        max_steps=24,
        consensus_tol=1e-300,
        seed=0,
    )

    def no_equilibrium(traj: Trajectory, _report):
        eps = traj.epsilon
        for delta in (eps, eps / 2.0, eps / 10.0):
            for t in range(len(traj.states)):
                verdict = check_delta_equilibrium(traj.state_at(t), delta)
                if verdict.exists:
                    return False, "no delta-equilibrium at any recorded t", \
                        f"equilibrium found at t={t}, delta={delta}"
        return True, "no delta-equilibrium for delta in {eps, eps/2, eps/10}", "none found"

    def third_agent_isolated(traj: Trajectory, _report):
        for t in range(len(traj.states)):
            if build_profile(traj.state_at(t)).degree(2) != 0:
                return False, "agent 2 isolated at every t", f"neighbor found at t={t}"
        return True, "agent 2 isolated at every t", "isolated throughout"

    return Scenario(
        "example3",
        "Two agents contract toward the midpoint while the third hovers at "
        "distance exactly epsilon from it: no partition into tight groups "
        "with well-separated hulls exists at any time.",
        config,
        [Check("no-delta-equilibrium",
               "a delta-equilibrium can fail to exist for every delta <= epsilon",
               no_equilibrium),
         Check("isolated-vertex", "the hovering agent never gains a neighbor",
               third_agent_isolated)],
    )


def _sync_hk() -> Scenario:
    rng = np.random.default_rng(12345)
    config = ModelConfig(
        initial=rng.uniform(0.0, 1.0, size=(10, 2)),
        epsilon=0.35,
        schedule=StubbornnessSchedule("synchronous"),
        max_steps=500,
        consensus_tol=1e-12,
        seed=12345,
    )

    def terminates(traj: Trajectory, _report):
        ok = traj.stop_reason in ("steady", "consensus")
        return ok, "run freezes or collapses within 500 steps", \
            f"stop_reason={traj.stop_reason} after {traj.steps} steps"

    def monitors_clean(traj: Trajectory, report: dict):
        bad = [m["t"] for m in report["per_step"]
               if not (m["energy_ok"] and m["nonexpansion_ok"])]
        return not bad, "no energy-descent or diameter-expansion violations", \
            f"violating steps: {bad}"

    return Scenario(
        "sync-hk",
        "Fully open-minded agents (the synchronous special case) on a seeded "
        "random profile: the run terminates and every step-level bound holds.",
        config,
        [Check("terminates", "the synchronous special case reaches a fixed "
               "configuration at desk scale", terminates),
         Check("monitors-clean", "energy never rises and diameters never expand",
               monitors_clean)],
    )


def _async_hk() -> Scenario:
    rng = np.random.default_rng(777)
    config = ModelConfig(
        initial=rng.uniform(0.0, 0.5, size=(5, 2)),
        epsilon=1.5,
        schedule=StubbornnessSchedule("asynchronous"),
        max_steps=100,
        consensus_tol=1e-300,
        seed=777,
    )

    def one_mover(traj: Trajectory, _report):
        for t in range(traj.steps):
            before, after = traj.states[t], traj.states[t + 1]
            moved = [i for i in range(traj.n)
                     if before[i].tobytes() != after[i].tobytes()]
            if len(moved) != 1:
                return False, "exactly one opinion changes per step", \
                    f"step {t} changed agents {moved}"
        return True, "exactly one opinion changes per step", "held at every step"

    def energy_clean(traj: Trajectory, report: dict):
        bad = [m["t"] for m in report["per_step"] if not m["energy_ok"]]
        return not bad, "energy descent bound holds with stubbornness exactly 1",\
            f"violating steps: {bad}"

    return Scenario(
        "async-hk",
        "One uniformly chosen agent per step is open-minded, the rest are "
        "frozen (the asynchronous special case), over a complete profile.",
        config,
        [Check("single-mover", "all-but-one agents are bitwise unchanged each step",
               one_mover),
         Check("energy-descent", "the capped energy never increases", energy_clean)],
    )


def _powerlaw_a2() -> Scenario:
    rng = np.random.default_rng(2024)
    config = ModelConfig(
        initial=rng.uniform(0.0, 1.0, size=(10, 2)),
        epsilon=0.5,
        schedule=StubbornnessSchedule("power_law", exponent=2.0),
        max_steps=1100,
        consensus_tol=1e-300,
        seed=2024,
    )

    def movement_bounds(traj: Trajectory, report: dict):
        total = report["violations"]["movement_bound"]
        return total == 0, "per-step movement never exceeds its budget term", \
            f"{total} violations"

    def late_steps_small(traj: Trajectory, _report):
        worst = 0.0
        for t in range(1000, traj.steps):
            move = np.sqrt(((traj.states[t + 1] - traj.states[t]) ** 2).sum(axis=1))
            worst = max(worst, float(move.max()))
        ok = worst < 1e-6 * traj.epsilon
        return ok, "per-step movement beyond t=1000 below 1e-6*epsilon", \
            f"worst late movement {worst}"

    def budget_convergent(traj: Trajectory, report: dict):
        cap = traj.epsilon * np.pi**2 / 6.0 + 1e-9
        sums = report["partial_sums"]
        ok = all(s <= cap for s in sums)
        return ok, "movement budgets summable (at most epsilon*pi^2/6)", \
            f"max partial sum {max(sums)}"

    return Scenario(
        "powerlaw-a2",
        "Stubbornness 1 - 1/(t+1)^2 for everyone: movement budgets are "
        "summable, so every opinion settles even without consensus.",
        config,
        [Check("movement-bound", "the step-wise movement bound holds", movement_bounds),
         Check("late-movement", "movement is negligible once stubbornness "
               "saturates", late_steps_small),
         Check("summable-budget", "partial sums stay under the closed-form cap",
               budget_convergent)],
    )


SCENARIOS = {
    "example1": _example1,
    "example2": _example2,
    "example3": _example3,
    "sync-hk": _sync_hk,
    "async-hk": _async_hk,
    "powerlaw-a2": _powerlaw_a2,
}
