"""Seeded batch execution: independent runs, aggregated verdicts."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .dynamics import ModelConfig
from .monitors import Checker
from .simulate import simulate


def _one_run(config: ModelConfig, seed: int, delta: Optional[float], hull: bool) -> dict:
    # the checker verifies each step as it is made, so simulate records nothing
    cfg = replace(config, seed=seed, monitors=())
    checker = Checker(cfg.epsilon, delta, hull=hull)
    traj = simulate(cfg, checker)
    verdict = checker.verdict(traj)
    single_mover_bad = 0
    if cfg.schedule.kind == "asynchronous":
        # rows compared as bits, so a -0.0 that was +0.0 counts as a move
        bits = np.array(traj.states).view(np.uint64)
        movers = (bits[1:] != bits[:-1]).any(axis=2).sum(axis=1)
        single_mover_bad = int(np.count_nonzero(movers > 1))
    return {
        "seed": seed,
        "steps": traj.steps,
        "stop_reason": traj.stop_reason,
        "violations": verdict["violations"],
        "total_violations": verdict["total_violations"] + single_mover_bad,
        "single_mover_violations": single_mover_bad,
        "tau_delta": verdict["tau_delta"],
        "consensus_reached": verdict["consensus_reached"],
        "final_diameter": verdict["final_diameter"],
    }


def batch_run(config: ModelConfig, num_runs: int, seed_base: int,
              delta: Optional[float] = None, *, hull: bool = False) -> dict:
    """Run ``num_runs`` independent simulations with seeds base..base+runs-1.

    Runs execute one after another and are aggregated in seed order, so the
    summary is deterministic. Hull-containment checking is off by default
    here (it dominates the cost of large sweeps); enable it with
    ``hull=True``.
    """
    if num_runs < 1:
        raise ValueError(f"num_runs must be >= 1, got {num_runs}")
    seeds = [seed_base + k for k in range(num_runs)]
    results = [_one_run(config, s, delta, hull) for s in seeds]

    taus = [r["tau_delta"] for r in results if r["tau_delta"] is not None]
    violation_keys = sorted(results[0]["violations"])
    totals = {k: sum(r["violations"][k] for r in results) for k in violation_keys}
    total = sum(r["total_violations"] for r in results)
    return {
        "runs": num_runs,
        "seed_base": seed_base,
        "delta": delta if delta is not None else config.epsilon / 4.0,
        "violations": totals,
        "single_mover_violations": sum(r["single_mover_violations"] for r in results),
        "total_violations": total,
        "tau_delta": {
            "found": len(taus),
            "min": min(taus) if taus else None,
            "max": max(taus) if taus else None,
            "mean": float(np.mean(taus)) if taus else None,
        },
        "consensus_rate": sum(r["consensus_reached"] for r in results) / num_runs,
        "stop_reasons": {reason: sum(r["stop_reason"] == reason for r in results)
                         for reason in ("steady", "consensus", "horizon")},
        "per_run": results,
        "ok": total == 0,
    }
