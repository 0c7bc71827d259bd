"""Drive the update rule from a configuration to a full trajectory."""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

# ``step`` is the validated public form of ``_advance``; it stays bound
# here, where span tracers look for it, though a run calls ``_advance``
from .dynamics import (ModelConfig, OpinionState, _advance, _advance_one, _neighbor_mask,  # noqa: F401
                       step)
from .monitors import Checker, _step_records
from .profile import analyze_state, analyze_states, detect_merge_events, first_within, geometry_block
from .trajectory import Trajectory

# Most steps in one block: a run that stops by consensus has made at most
# this many updates past its stop (below n = 23, where more states would
# fit one mask block; 16 384 fit at n = 2).
MAX_BLOCK_STEPS = 128

def simulate(config: ModelConfig, checker: Optional[Checker] = None) -> Trajectory:
    """Run the dynamics for at most ``config.max_steps`` steps.

    Stops early when consecutive states are byte-identical ("steady": an
    exact steady state can fail to exist, so this is a detector, not a
    guarantee) or when every component's diameter falls to ``consensus_tol``
    ("consensus"). The run is a pure function of the config: the asynchronous
    schedule draws from a counter-based stream keyed by (seed, t).

    The run advances B = max(1, min(``profile.geometry_block(n)``,
    ``MAX_BLOCK_STEPS``)) steps at a time (B = 72 at n = 30): it draws the block's alphas in one
    ``schedule.alphas`` call, runs the update alone (``_block_updates``),
    analyses the new states as one stack (``profile.analyze_states``) and
    cuts the block at its first stop, tested as a run one step at a time
    tests them: steady, then consensus (``profile.first_within``). So no
    output depends on B.

    A ``checker`` is pushed every kept transition, with the analyses the run
    made for its stop test, so ``checker.report(traj)`` analyses no state
    again. The ``[monitors]`` records are made a block at a time by
    ``monitors._step_records``, with ``interaction`` and ``hull_ok`` set as
    the flags ask. Alphas and states come from the validated schedule and
    from updates of valid states, so neither is validated again.
    """
    n, epsilon = config.n, config.epsilon
    now = analyze_state(OpinionState(0, config.initial.copy(), epsilon))
    states = [now.x]
    alphas: list[np.ndarray] = []
    flags = set(config.monitors)
    record = partial(_step_records, interaction="interaction" in flags, hull="hull" in flags)
    metrics = [] if flags - {"merge"} else None
    # every state's geometry is read when a checker or the records need it
    geometry = checker is not None or metrics is not None
    block = max(1, min(geometry_block(n), MAX_BLOCK_STEPS))
    one_mover = config.schedule.kind == "asynchronous"
    stop_reason = "horizon"

    while stop_reason == "horizon" and len(alphas) < config.max_steps:
        t = len(alphas)
        drawn = config.schedule.alphas(t, min(block, config.max_steps - t), n, config.seed)
        xs, known, steady = _block_updates(now, drawn, one_mover, keep_d2=geometry)
        nxts = analyze_states(xs, epsilon, t + 1, now, known, geometry=geometry)
        # a steady step's state is not tested for consensus
        first = first_within(nxts[:len(nxts) - steady], config.consensus_tol)
        if first is not None:
            stop_reason, nxts = "consensus", nxts[:first + 1]
        elif steady:
            stop_reason = "steady"
        steps = list(zip(drawn, [now] + nxts, nxts))
        if checker is not None:
            for k in range(len(steps)):  # no loop variable keeps an analysis alive
                checker.push(*steps[k])
        if metrics is not None:
            metrics += record(steps)[0]
        alphas += [alpha for alpha, _, _ in steps]
        states += [a.x for a in nxts]
        # only the last analysis is carried on, without its squared
        # distances, a view that would keep the block's whole stack alive
        now = nxts[-1]
        now.__dict__["_d2"] = None
        del steps, nxts

    traj = Trajectory(
        n=n,
        d=config.d,
        epsilon=epsilon,
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


def _block_updates(now, drawn: np.ndarray, one_mover: bool, keep_d2: bool) -> tuple:
    """The states after the one analysed by ``now`` under each alpha of
    ``drawn``, up to the first steady step (a state byte-identical to the
    one before); the (mask, degrees, squared distances) of those the update
    built, the squared distances only when ``keep_d2`` asks for them for
    the geometry (else None, so that they are let go at once); and whether
    the last step was steady.

    Under ``one_mover`` (the asynchronous schedule: alpha is 1 but at one
    agent, where it is 0) a step computes the mover's row only
    (``dynamics._advance_one``), and only that row can change. Otherwise a
    step reads its state's whole mask: ``now``'s, then each one built as
    ``neighbor_matrix`` builds it and kept for the analysis.
    """
    x, epsilon = now.x, now.epsilon
    xs, known = [], []
    movers = drawn.argmin(axis=1).tolist() if one_mover else None
    for j, alpha in enumerate(drawn):
        if one_mover:
            i = movers[j]
            new_x, rows = _advance_one(x, i, epsilon), slice(i, i + 1)
        else:
            if j == 0:
                mask, degrees = now.mask, now.degrees
            else:
                mask, d2 = _neighbor_mask(x, epsilon)
                degrees = mask.sum(axis=1)
                known.append((mask, degrees, d2 if keep_d2 else None))
            new_x, rows = _advance(x, alpha, mask, degrees), slice(None)
        xs.append(new_x)
        if new_x[rows].tobytes() == x[rows].tobytes():
            return xs, known, True
        x = new_x
    return xs, known, False
