"""Online and post-hoc verification of the model's quantitative guarantees.

Each monitor turns one proved inequality into a per-step numeric check with
an explicit slack (1e-9 scaled by the quantity's natural magnitude unless a
tighter contract is stated):

* capped-energy descent with its displacement-weighted lower bound,
* diameter contraction on epsilon-trivial profiles and unconditional
  non-expansion,
* the geometric consensus envelope under recurring contraction,
* per-agent movement budgets bounding total displacement,
* the displacement floor on delta-nontrivial components,
* settling times (first time every component is delta-trivial) against their
  closed-form bound, and the equivalence of the three component-interaction
  conditions.

Where a statement is asymptotic, the monitor evaluates a finite-horizon
surrogate and says so; a verdict here is evidence, not proof.

A ``Checker`` is the one verification engine, pushed each transition as
alpha(t) and both states' analyses. ``push`` settles every violation
counter of its step and returns the step's record (a plain dict;
``simulate``'s ``[monitors]`` records come from the same function), and
``report``, or ``check_trajectory`` over stored states, aggregates them.
``interaction_equivalence`` and ``consensus_envelope_check`` read one such
pass for data the report does not hold.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import IntegrityError
from .profile import HullBuffer, StateAnalysis, analyze_state, detect_merge_events, neighbor_spread
from .trajectory import Trajectory

ENERGY_SLACK = 1e-9  # relative to n^2 eps^2
DIAM_SLACK = 1e-12  # absolute, diameters are O(eps) at desk scale
HULL_TOL = 1e-12  # absolute, distance of a new opinion from its neighbors' hull
# A Checker solves its buffered hull problems once their stacks hold this many bytes
HULL_BUFFER_BYTES = 128 * 1024


def contraction_coefficient(alpha: np.ndarray) -> float:
    """Sharp one-step diameter contraction factor on epsilon-trivial profiles.

    Maximum of a_i - (a_i - a_j)/n over ordered pairs of DISTINCT agents with
    a_i >= a_j; equals a(1) - (a(1) - a(2))/n for the two largest entries.
    The distinct-pair choice is pinned by the two-agent half-stubborn
    configuration, where the factor 1/2 is attained exactly.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    n = alpha.shape[0]
    if n < 2:
        raise ValueError("contraction coefficient needs at least two agents")
    a2, a1 = np.sort(alpha)[-2:].tolist()
    return a1 - (a1 - a2) / n


def _interact(now: StateAnalysis, nxt: StateAnalysis) -> bool:
    """True iff an edge of the next profile joins two different components
    of the current profile."""
    # shared labels mean an unchanged mask (see analyze_state), and no edge
    # of a mask joins two of its own components
    if nxt.labels is now.labels:
        return False
    return bool((nxt.mask & (now.labels[:, None] != now.labels[None, :])).any())


def _step_record(alpha: np.ndarray, now: StateAnalysis, nxt: StateAnalysis, *,
                 interaction: bool, hull: bool) -> dict:
    """The record of step t -> t+1, from the analyses of both states.

    Energy descent: the capped energy Z must drop by at least
    4 * sum_i c_i ||x_i(t) - x_i(t+1)||^2, where c_i = 1 + |N_i| alpha_i /
    (1 - alpha_i) for alpha_i < 1 and plain 1 at alpha_i = 1 (where the
    displacement is identically zero anyway). Contraction: on an
    epsilon-trivial profile diam(t+1) <= beta * diam(t), with beta the
    ``contraction_coefficient``; non-expansion diam(t+1) <= diam(t) always.
    ``interaction`` adds whether components of the current profile interact
    at the next step, ``hull`` whether every new opinion lies within
    ``HULL_TOL`` of its neighbors' hull; each is None when not asked for.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    disp_sq = ((nxt.x - now.x) ** 2).sum(axis=1)
    ratio = np.divide(alpha, 1.0 - alpha, out=np.zeros(now.n), where=alpha < 1.0)
    bound = float(4.0 * ((1.0 + now.degrees * ratio) * disp_sq).sum())
    drop = now.energy - nxt.energy
    d_before, d_after = now.diameter, nxt.diameter
    trivial = now.n >= 2 and d_before <= now.epsilon
    beta = contraction_coefficient(alpha) if trivial else None
    return {
        "t": now.t,
        "energy": now.energy,
        "energy_next": nxt.energy,
        "energy_drop": drop,
        "energy_drop_bound": bound,
        "energy_ok": drop >= bound - ENERGY_SLACK * now.n**2 * now.epsilon**2,
        "contraction_coeff": beta,
        "diam_global": d_before,
        "diam_per_component": list(now.component_diameters),
        "displacement_sq": disp_sq.tolist(),
        "epsilon_trivial": trivial,
        "contraction_ok": d_after <= beta * d_before + DIAM_SLACK if trivial else None,
        "nonexpansion_ok": d_after <= d_before + DIAM_SLACK,
        "interaction": _interact(now, nxt) if interaction else None,
        "hull_ok": HullBuffer().add(0, now, nxt.x).count_over(HULL_TOL) == 0 if hull else None,
    }


def consensus_envelope_check(traj: Trajectory, beta_cap: float) -> dict:
    """Finite-horizon surrogate for consensus under recurring contraction.

    From the first recorded epsilon-trivial state t1, the diameter must stay
    under the running product of contraction coefficients, and under
    beta_cap^k where k counts steps with coefficient <= beta_cap. The
    hypothesis ("infinitely many contracting steps") is reported as the
    within-horizon count; the verdict is labeled a surrogate. The states'
    diameters are read off one checker pass.
    """
    if not (0.0 < beta_cap < 1.0):
        raise ValueError(f"beta_cap must lie in (0, 1), got {beta_cap}")
    report = check_trajectory(traj, hull=False)
    diams = [r["diam_global"] for r in report["per_step"]] + [report["final_diameter"]]
    t1 = next((t for t, dm in enumerate(diams) if dm <= traj.epsilon), None)
    if t1 is None or traj.n < 2:
        return {"applicable": False, "surrogate": True}
    d0 = diams[t1]
    slack = 1e-9 * max(d0, 1.0)
    prod = 1.0
    capped = 0
    envelope_ok = True
    power_ok = True
    for t in range(t1, traj.steps):
        coeff = contraction_coefficient(traj.alphas[t])
        prod *= coeff
        if coeff <= beta_cap:
            capped += 1
        if diams[t + 1] > prod * d0 + slack:
            envelope_ok = False
        if diams[t + 1] > beta_cap**capped * d0 + slack:
            power_ok = False
    return {
        "applicable": True,
        "surrogate": True,
        "t_trivial": t1,
        "hypothesis_met": capped > 0,
        "contracting_steps": capped,
        "envelope_ok": envelope_ok,
        "power_envelope_ok": power_ok,
        "final_diameter": diams[-1],
    }


def _floor(alpha: np.ndarray, delta: float, move: np.ndarray, trivial: bool) -> bool:
    """True iff the step violates sum_i ||move_i||^2 > 2 delta^2 (1 - max
    alpha)^2 / n^8, for ``move`` = x(t+1) - x(t). The floor applies whenever
    some component of the current profile is delta-nontrivial (``trivial``
    is false) and every stubbornness entry is below one: restricting to a
    delta-nontrivial component reduces to the connected case, and both the
    component size and its maximum stubbornness only tighten the bound.
    """
    if trivial or (alpha >= 1.0).any():
        return False
    lhs = float((move ** 2).sum())
    floor = 2.0 * delta**2 * (1.0 - float(alpha.max())) ** 2 / move.shape[0]**8
    return not lhs > floor * (1.0 - 1e-9)


def settling_bounds(n: int, epsilon: float, delta: float, sup_alpha: float) -> tuple[float, float]:
    """Closed-form bounds: the settling-time bound
    n^10 (eps/delta)^2 / (8 (1 - sup_alpha)^2) and the bound
    n^10 / (2 (1 - sup_alpha)^2) on how many first-interaction times can occur.
    The settling-time bound is inf where it exceeds the float range.
    """
    if not (0.0 <= sup_alpha < 1.0):
        raise ValueError(f"bounds need sup_alpha in [0, 1), got {sup_alpha}")
    if not (0.0 < delta <= epsilon):
        raise ValueError(f"bounds need 0 < delta <= epsilon, got delta={delta}, epsilon={epsilon}")
    try:
        ratio2 = (epsilon / delta) ** 2
    except OverflowError:
        ratio2 = math.inf
    tau_bound = n**10 / (8.0 * (1.0 - sup_alpha) ** 2) * ratio2
    interaction_bound = n**10 / (2.0 * (1.0 - sup_alpha) ** 2)
    return tau_bound, interaction_bound


def interaction_equivalence(traj: Trajectory, delta: float) -> dict:
    """Check, at each step whose profile has only delta-trivial components,
    that these three conditions agree:

      (1) some component of the next profile is delta-nontrivial;
      (2) distinct components of the current profile interact at the next
          step (an edge of the next profile joins agents from different
          current components);
      (3) some component of the next profile is (epsilon/2)-nontrivial.

    Requires delta <= epsilon/4. The records are those one checker pass
    keeps.
    """
    if not (0.0 < delta <= traj.epsilon / 4.0):
        raise ValueError(f"equivalence needs 0 < delta <= epsilon/4, got {delta}")
    steps = _checked(traj, delta, hull=False).equivalence
    return {"delta": delta, "steps": steps,
            "mismatches": sum(not r["equivalent"] for r in steps),
            "interaction_steps": [r["t"] for r in steps if r["interaction"]]}


def _interaction_times(epsilon: float, comp_cache: list, m_max: int = 64) -> list[int]:
    """Surrogate for the set of first-interaction times, from every recorded
    state's component diameters.

    For m = 4, 5, ..., with tau_m the settling time at delta = epsilon/m,
    collect the first t in [tau_m, tau_{m+1}) at which some component is
    (epsilon/m)-nontrivial. Windows truncated at the horizon; evaluation
    stops at the first m whose settling time is not reached, and at m = 64.
    The search runs on arrays of each state's widest component.
    """
    widest = np.array([max(diams) for diams in comp_cache])
    thresholds = epsilon / np.arange(4, m_max + 2)  # epsilon/m for m = 4..m_max+1
    # tau_m, the first t with widest[t] <= epsilon/m, is the number of
    # leading running minima above it (the horizon when never reached)
    taus = np.searchsorted(-np.minimum.accumulate(widest), -thresholds).tolist()
    times = []
    for k, thr in enumerate(thresholds[:-1]):
        t_m, right = taus[k], taus[k + 1]
        if t_m == len(widest):
            break
        hits = np.flatnonzero(widest[t_m:right] > thr)
        if hits.size:
            times.append(t_m + int(hits[0]))
    return times


class Checker:
    """Streaming verification: every monitor of ``check_trajectory``, fed one
    transition at a time, so a run can be checked while it is simulated.

    ``push`` takes alpha(t) and the analyses of the step's two states;
    ``report`` builds the check report. Of the analyses the checker keeps
    only the latest, so with the caller's next one at most two n-by-n masks
    are alive, and its hull buffer holds at most ``HULL_BUFFER_BYTES`` plus
    one step's vertex sets. ``push`` settles every violation counter of its
    step, and ``report`` only aggregates. Besides the counters the checker
    keeps each agent's movement budget and O(n) values per step: the step's
    record (whose component diameters give the settling and first-interaction
    times) and its equivalence record when it has one (``equivalence``, None
    when delta > epsilon/4). ``delta`` defaults to epsilon/4.

    Agent i's budget is the running sum of its terms (1 - a_i(t))
    (1 - 1/|N_i(t)|) max_{j in N_i} dist(i, j), and each step's
    ||x_i(t) - x_i(t+1)|| <= term is checked with 1e-12 slack (a NaN fails
    it). Spreads are computed for agents with alpha_i < 1 only; the others'
    term (1 - 1) c s is +0.0 whatever their spread, so they keep 0.

    With ``hull`` on, ``push`` adds the step's hull problems to a
    ``profile.HullBuffer`` instead of solving them. ``profile.hull_strays``
    solves the buffer once it reaches ``HULL_BUFFER_BYTES``, and before
    every read of ``violations``, with one Wolfe kernel call per neighbor
    count. A problem that does not converge raises ``NumericalFailure``
    for the first (step, agent) that failed, by ``report`` or a
    ``violations`` read at the latest.
    """

    def __init__(self, epsilon: float, delta: Optional[float] = None, *, hull: bool = True):
        self.delta = epsilon / 4.0 if delta is None else delta
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        self.hull = hull
        self._violations = {"energy_descent": 0, "contraction": 0, "nonexpansion": 0,
                            "movement_bound": 0, "equivalence": 0, "hull": 0,
                            "displacement_floor": 0}
        self.equivalence: Optional[list] = [] if self.delta <= epsilon / 4.0 else None
        self._records = []
        self._partial_sums: Optional[np.ndarray] = None
        self._last: Optional[StateAnalysis] = None
        self._hull = HullBuffer()

    @property
    def violations(self) -> dict:
        """The violation counters of the pushed steps."""
        if self._hull.nbytes:
            self._violations["hull"] += self._hull.count_over(HULL_TOL)
        return self._violations

    def push(self, alpha: np.ndarray, now: StateAnalysis, nxt: StateAnalysis) -> dict:
        """Verify the step from the state analysed by ``now`` to the one
        analysed by ``nxt`` under ``alpha``; returns the step's record.

        The returned record is the one the report's ``per_step`` holds:
        read it, do not change it."""
        alpha = np.asarray(alpha, dtype=np.float64)
        record = _step_record(alpha, now, nxt, interaction=True, hull=False)
        v = self._violations
        v["energy_descent"] += not record["energy_ok"]
        v["contraction"] += record["contraction_ok"] is False
        v["nonexpansion"] += not record["nonexpansion_ok"]
        move = nxt.x - now.x
        trivial = now.components_within(self.delta)
        v["displacement_floor"] += _floor(alpha, self.delta, move, trivial)
        if self.hull:
            self._hull.add(len(self._records), now, nxt.x)
            if self._hull.nbytes >= HULL_BUFFER_BYTES:
                v["hull"] += self._hull.count_over(HULL_TOL)
        if self.equivalence is not None and trivial:
            # interaction_equivalence's three conditions; (2) is the record's
            c1 = any(dm > self.delta for dm in nxt.component_diameters)
            c2 = record["interaction"]
            c3 = any(dm > now.epsilon / 2.0 for dm in nxt.component_diameters)
            equivalent = c1 == c2 == c3
            self.equivalence.append({"t": now.t, "next_nontrivial": c1, "interaction": c2,
                                     "half_eps_nontrivial": c3, "equivalent": equivalent})
            v["equivalence"] += not equivalent
        self._records.append(record)
        movable = np.flatnonzero(alpha < 1.0)
        spread = np.zeros(now.n)
        spread[movable] = neighbor_spread(now.x, now.mask[movable], movable)
        terms = (1.0 - alpha) * (1.0 - 1.0 / now.degrees) * spread
        # the per-row dot product that np.linalg.norm takes of one move
        movement = np.sqrt(np.matmul(move[:, None, :], move[:, :, None])[:, 0, 0])
        v["movement_bound"] += now.n - int(np.count_nonzero(movement <= terms + DIAM_SLACK))
        sums = self._partial_sums
        self._partial_sums = terms if sums is None else sums + terms
        self._last = nxt
        return record

    def report(self, traj: Trajectory) -> dict:
        """The check report of ``traj``, whose every transition was pushed:
        per-step records, violation counters (all zero on a healthy run),
        merge events, settling data (``tau_delta``, the first recorded t at
        which every component's diameter is <= delta), each agent's movement
        budget (``partial_sums``), and the first-interaction surrogate
        (``interaction_times``)."""
        last = self._last
        if last is None:  # a lone state, no transition
            last = analyze_state(traj.state_at(0))
        diameters = [r["diam_per_component"] for r in self._records] + [last.component_diameters]
        delta = self.delta
        sums = self._partial_sums
        violations = dict(self.violations)
        events = detect_merge_events(traj.states) if len(traj.states) >= 2 else []
        sup_a = traj.sup_alpha()
        tau_bound = interaction_bound = None
        if sup_a < 1.0 and delta <= traj.epsilon:
            tau_bound, interaction_bound = settling_bounds(traj.n, traj.epsilon, delta, sup_a)
            if tau_bound == math.inf:  # written as null: strict JSON has no infinity
                tau_bound = None
        total = sum(violations.values())
        tau = next((t for t, diams in enumerate(diameters) if all(dm <= delta for dm in diams)),
                   None)
        return {
            "header": traj.header(),
            "delta": delta,
            "violations": violations,
            "total_violations": total,
            "energy_descent_violations": violations["energy_descent"],
            "contraction_violations": violations["contraction"],
            "tau_delta": tau,
            "tau_bound": tau_bound,
            "sup_alpha": sup_a,
            "consensus_reached": last.components_within(traj.consensus_tol),
            "final_diameter": last.diameter,
            "partial_sums": [0.0] * traj.n if sums is None else sums.tolist(),
            "interaction_times": _interaction_times(traj.epsilon, diameters),
            "interaction_bound": interaction_bound,
            "merge_events": events,
            "interaction_equivalence": {"mismatches": violations["equivalence"]},
            "per_step": self._records,
            "ok": total == 0,
        }


def _checked(traj: Trajectory, delta: Optional[float], *, hull: bool) -> Checker:
    """A ``Checker`` fed every stored transition of ``traj`` in one pass,
    holding two analyses at a time: the one loop over stored states."""
    if not traj.states:
        raise IntegrityError("the trajectory has no states to check")
    checker = Checker(traj.epsilon, delta, hull=hull)
    now = analyze_state(traj.state_at(0))
    for t in range(traj.steps):
        nxt = analyze_state(traj.state_at(t + 1), now)
        checker.push(traj.alphas[t], now, nxt)
        now = nxt
    return checker


def check_trajectory(traj: Trajectory, delta: Optional[float] = None,
                     *, hull: bool = True) -> dict:
    """Recompute every monitor over a stored trajectory: the report of one
    checker pass."""
    return _checked(traj, delta, hull=hull).report(traj)
