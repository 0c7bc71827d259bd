"""Drive the update rule from a configuration to a full trajectory."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dynamics import ModelConfig, OpinionState, step
from .monitors import Checker, _step_record
from .profile import analyze_state, detect_merge_events
from .trajectory import Trajectory


def simulate(config: ModelConfig, checker: Optional[Checker] = None) -> Trajectory:
    """Run the dynamics for at most ``config.max_steps`` steps.

    Stops early when consecutive states are byte-identical ("steady": an
    exact steady state can fail to exist, so this is a detector, not a
    guarantee) or when every component's diameter falls to ``consensus_tol``
    ("consensus"). The run is a pure function of the config: the asynchronous
    schedule draws from a counter-based stream keyed by (seed, t).

    A ``checker`` is pushed every transition, with the analyses the run
    already makes for its steps and stop test, so ``checker.report(traj)``
    checks the run without analysing any state again.
    """
    state = OpinionState(0, config.initial.copy(), config.epsilon)
    analysis = analyze_state(state)
    states = [state.x]
    alphas: list[np.ndarray] = []
    flags = set(config.monitors)
    metrics = [] if flags - {"merge"} else None
    stop_reason = "horizon"

    for t in range(config.max_steps):
        alpha = config.schedule.alpha_at(t, config.n, config.seed)
        nxt = step(state, alpha, profile=analysis)
        next_analysis = analyze_state(nxt, analysis)
        alphas.append(alpha)
        states.append(nxt.x)
        if checker is not None:
            checker.push(alpha, analysis, next_analysis)
        if metrics is not None:
            metrics.append(_step_record(alpha, analysis, next_analysis,
                                        interaction="interaction" in flags, hull="hull" in flags))
        if nxt.x.tobytes() == state.x.tobytes():
            stop_reason = "steady"
            break
        state, analysis = nxt, next_analysis
        if analysis.components_within(config.consensus_tol):
            stop_reason = "consensus"
            break

    traj = Trajectory(
        n=config.n,
        d=config.d,
        epsilon=config.epsilon,
        schedule=config.schedule.descriptor(),
        seed=config.seed,
        states=states,
        alphas=alphas,
        stop_reason=stop_reason,
        consensus_tol=config.consensus_tol,
        metrics=metrics,
    )
    if "merge" in config.monitors:
        traj.events = detect_merge_events(states)
    return traj
