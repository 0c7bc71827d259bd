"""Drive the update rule from a configuration to a full trajectory."""

from __future__ import annotations

from typing import Optional

import numpy as np

# ``step`` is the validated public form of ``_advance``; it stays bound
# here, where span tracers look for it, though a run calls ``_advance``
from .dynamics import ModelConfig, OpinionState, _advance, step  # noqa: F401
from .monitors import Checker, _step_records, hull_ok
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
    step records are then that checker's records, else those that
    ``monitors._step_records`` makes a block of steps at a time, as a
    checker settles them, with ``interaction`` and ``hull_ok`` set as the
    flags ask. Each alpha comes from the validated schedule and each state
    from the update of a valid state, so neither is validated again.
    """
    state = OpinionState(0, config.initial.copy(), config.epsilon)
    analysis = analyze_state(state)
    states = [state.x]
    alphas: list[np.ndarray] = []
    flags = set(config.monitors)
    interaction = "interaction" in flags
    metrics = [] if flags - {"merge"} else None
    recorded = len(checker.records) if metrics is not None and checker is not None else 0
    pending = []  # the steps whose records are not made yet, when no checker makes them
    block = max(1, geometry_block(config.n))
    hull = [] if "hull" in flags else None
    stop_reason = "horizon"

    for t in range(config.max_steps):
        alpha = config.schedule.alpha_at(t, config.n, config.seed)
        nxt = state._successor(_advance(state, alpha, analysis))
        next_analysis = analyze_state(nxt, analysis)
        alphas.append(alpha)
        states.append(nxt.x)
        if checker is not None:
            checker.push(alpha, analysis, next_analysis)
        elif metrics is not None:
            pending.append((alpha, analysis, next_analysis))
            if len(pending) == block:
                metrics += _step_records(pending, interaction=interaction)
                pending = []
        if hull is not None:
            hull.append(hull_ok(analysis, nxt.x))
        if nxt.x.tobytes() == state.x.tobytes():
            stop_reason = "steady"
            break
        state, analysis = nxt, next_analysis
        if analysis.components_within(config.consensus_tol):
            stop_reason = "consensus"
            break

    if metrics is not None:
        if checker is not None:
            metrics = checker.records[recorded:]
        elif pending:
            metrics += _step_records(pending, interaction=interaction)
        metrics = [dict(record, interaction=record["interaction"] if interaction else None,
                        hull_ok=None if hull is None else hull[k])
                   for k, record in enumerate(metrics)]
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
