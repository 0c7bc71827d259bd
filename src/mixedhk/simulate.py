"""Drive the update rule from a configuration to a full trajectory."""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

# ``step`` is the validated public form of ``_advance``; it stays bound
# here, where span tracers look for it, though a run calls ``_advance``
from .dynamics import ModelConfig, OpinionState, _advance, step  # noqa: F401
from .monitors import Checker, _step_records
from .profile import analyze_state, detect_merge_events, geometry_block
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
    checks the run without analysing any state again. The ``[monitors]``
    step records are made by ``monitors._step_records`` a block of steps at
    a time, as a checker settles them, with ``interaction`` and ``hull_ok``
    set as the flags ask. Each alpha comes from the validated schedule and
    each state from the update of a valid state, so neither is validated
    again.
    """
    state = OpinionState(0, config.initial.copy(), config.epsilon)
    analysis = analyze_state(state)
    states = [state.x]
    alphas: list[np.ndarray] = []
    flags = set(config.monitors)
    record = partial(_step_records, interaction="interaction" in flags, hull="hull" in flags)
    metrics = [] if flags - {"merge"} else None
    pending = []  # the steps whose records are not made yet
    block = max(1, geometry_block(config.n))
    stop_reason = "horizon"

    for t in range(config.max_steps):
        alpha = config.schedule.alpha_at(t, config.n, config.seed)
        nxt = state._successor(_advance(state, alpha, analysis))
        next_analysis = analyze_state(nxt, analysis)
        alphas.append(alpha)
        states.append(nxt.x)
        if checker is not None:
            checker.push(alpha, analysis, next_analysis)
        if metrics is not None:
            pending.append((alpha, analysis, next_analysis))
            if len(pending) == block:
                metrics += record(pending)[0]
                pending = []
        if nxt.x.tobytes() == state.x.tobytes():
            stop_reason = "steady"
            break
        state, analysis = nxt, next_analysis
        if analysis.components_within(config.consensus_tol):
            stop_reason = "consensus"
            break

    if pending:
        metrics += record(pending)[0]
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
