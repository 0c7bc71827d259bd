"""Trajectory records: everything one run produced, in replayable form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import OpinionState
from .errors import IntegrityError

FORMAT_VERSION = 1


@dataclass
class Trajectory:
    """States x(0..T), the stubbornness vectors that drove each step, and
    whatever per-step metrics and events the run's monitors recorded.

    ``alphas[t]`` is the vector applied at time t (so it has one entry fewer
    than ``states``). ``stop_reason`` is one of "steady" (consecutive states
    byte-identical), "consensus" (every component's diameter at or below
    consensus_tol), or "horizon".
    """

    n: int
    d: int
    epsilon: float
    schedule: dict  # schedule descriptor, JSON-serializable
    seed: int
    states: list  # list of (n, d) float64 arrays
    alphas: list  # list of (n,) float64 arrays, len(states) - 1
    stop_reason: str
    consensus_tol: float = 1e-12
    metrics: Optional[list] = None  # step record dicts (a monitors.Checker's records), when recorded
    events: list = field(default_factory=list)  # JSON-ready event records
    version: int = FORMAT_VERSION

    def __post_init__(self):
        expected = max(len(self.states) - 1, 0)
        if len(self.alphas) != expected:
            raise ValueError(
                f"{len(self.states)} states need {expected} alpha "
                f"vectors, got {len(self.alphas)}"
            )

    def __len__(self) -> int:
        return len(self.states)

    @property
    def steps(self) -> int:
        return len(self.alphas)

    def state_at(self, t: int) -> OpinionState:
        """State t; one outside the numeric domain raises ``IntegrityError``."""
        try:
            return OpinionState(t, self.states[t], self.epsilon)
        except ValueError as exc:
            raise IntegrityError(f"state {t}: {exc}") from None

    def header(self) -> dict:
        return {
            "version": self.version,
            "n": self.n,
            "d": self.d,
            "epsilon": float(self.epsilon),
            "schedule": dict(self.schedule),
            "seed": int(self.seed),
            "consensus_tol": float(self.consensus_tol),
            "stop_reason": self.stop_reason,
        }

    def sup_alpha(self) -> float:
        """Largest stubbornness entry applied anywhere in the run."""
        if not self.alphas:
            return 0.0
        return float(max(np.max(a) for a in self.alphas))
