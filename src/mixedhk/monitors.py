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
alpha(t) and both states' analyses. It buffers its steps and settles a
block of them at a time with one function, ``_settle_steps``, which makes
each step's record (a plain dict, from ``_step_records``, which also makes
``simulate``'s ``[monitors]`` records) and counts every monitor's
violations from one table of arrays;
``report``, or ``check_trajectory`` over stored states, aggregates them.
``interaction_equivalence`` and ``consensus_envelope_check`` read one such
pass for data the report does not hold.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import IntegrityError
from .profile import (HullBuffer, StateAnalysis, analyze_state, analyze_states, detect_merge_events,
                      geometry_block, neighbor_spread, settle_geometry)
from .trajectory import Trajectory

ENERGY_SLACK = 1e-9  # relative to n^2 eps^2
DIAM_SLACK = 1e-12  # absolute, diameters are O(eps) at desk scale
HULL_TOL = 1e-12  # absolute, distance of a new opinion from its neighbors' hull
# A Checker solves its buffered hull problems once their stacks hold this many
# bytes. At n = 120 over 40 steps, 256 KiB checks 4-12 % slower than this,
# and 1 MiB 1-4 % faster for about 0.7 MiB more peak memory.
HULL_BUFFER_BYTES = 512 * 1024


def contraction_coefficient(alpha: np.ndarray) -> float:
    """Sharp one-step diameter contraction factor on epsilon-trivial profiles.

    Maximum of a_i - (a_i - a_j)/n over ordered pairs of DISTINCT agents with
    a_i >= a_j; equals a(1) - (a(1) - a(2))/n for the two largest entries.
    The distinct-pair choice is pinned by the two-agent half-stubborn
    configuration, where the factor 1/2 is attained exactly.

    For a (B, n) stack of stubbornness vectors, the (B,) array of their
    factors.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    n = alpha.shape[-1]
    if n < 2:
        raise ValueError("contraction coefficient needs at least two agents")
    a2, a1 = np.sort(alpha)[..., -2:].T
    beta = a1 - (a1 - a2) / n
    return beta if alpha.ndim > 1 else float(beta)


def _interact(now: StateAnalysis, nxt: StateAnalysis) -> bool:
    """True iff an edge of the next profile joins two different components
    of the current profile."""
    # shared labels mean an unchanged mask (see analyze_state), and no edge
    # of a mask joins two of its own components
    if nxt.labels is now.labels:
        return False
    return bool((nxt.mask & (now.labels[:, None] != now.labels[None, :])).any())


def consensus_envelope_check(traj: Trajectory, beta_cap: float) -> dict:
    """Finite-horizon surrogate for consensus under recurring contraction.

    From the first recorded epsilon-trivial state t1, the diameter must stay
    under the running product of contraction coefficients, and under
    beta_cap^k where k counts steps with coefficient <= beta_cap. The
    hypothesis ("infinitely many contracting steps") is reported as the
    within-horizon count; the verdict is labeled a surrogate. The states'
    diameters are read off one checker pass, which detects no merge events.
    """
    if not (0.0 < beta_cap < 1.0):
        raise ValueError(f"beta_cap must lie in (0, 1), got {beta_cap}")
    checker = _checked(traj, None, hull=False)
    diams = [r["diam_global"] for r in checker.records] + [checker._final(traj).diameter]
    t1 = next((t for t, dm in enumerate(diams) if dm <= traj.epsilon), None)
    if t1 is None or traj.n < 2:
        return {"applicable": False, "surrogate": True}
    d0 = diams[t1]
    slack = 1e-9 * max(d0, 1.0)
    # capped[k]: how many of the first k steps from t1 have coefficient <= beta_cap
    coeffs = contraction_coefficient(np.reshape(traj.alphas[t1:], (-1, traj.n)))
    capped = [0] + np.cumsum(coeffs <= beta_cap).tolist()
    later = np.array(diams[t1 + 1:])
    powers = np.array([beta_cap**k for k in capped[1:]])
    return {
        "applicable": True,
        "surrogate": True,
        "t_trivial": t1,
        "hypothesis_met": capped[-1] > 0,
        "contracting_steps": capped[-1],
        "envelope_ok": not (later > np.multiply.accumulate(coeffs) * d0 + slack).any(),
        "power_envelope_ok": not (later > powers * d0 + slack).any(),
        "final_diameter": diams[-1],
    }


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
    checker = _checked(traj, delta, hull=False)
    steps = checker.equivalence
    return {"delta": delta, "steps": steps, "mismatches": checker.violations["equivalence"],
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


def _step_records(steps: list, *, interaction: bool, hull: bool = False) -> tuple:
    """The records of a block of B ``steps``, each an (alpha, now, nxt)
    triple: the step under alpha from the state analysed by ``now`` to the
    one analysed by ``nxt``; and the ``block`` of arrays they are made of.

    Energy descent: the capped energy Z must drop by at least
    4 * sum_i c_i ||x_i(t) - x_i(t+1)||^2, where c_i = 1 + |N_i| alpha_i /
    (1 - alpha_i) for alpha_i < 1 and plain 1 at alpha_i = 1 (where the
    displacement is identically zero anyway). Contraction: on an
    epsilon-trivial profile diam(t+1) <= beta * diam(t), with beta the
    ``contraction_coefficient``; non-expansion diam(t+1) <= diam(t) always.
    ``interaction`` adds whether components of the current profile interact
    at the next step, and ``hull`` whether every new opinion lies within
    ``HULL_TOL`` of its neighbors' hull (each None when not asked for).

    Every value is computed for the whole block in one array expression
    whose per-step part adds in the order a single step's expression
    does, so each has the bits of its one-step evaluation. The ``block``
    holds the stacked ``alphas``, opinions ``x``, ``move`` and ``degrees``,
    each state's ``widest`` component diameter (the current states first),
    the ``interacts`` list and the ``table`` of (applies, ok) arrays.
    """
    alphas = np.array([alpha for alpha, _, _ in steps], dtype=np.float64)
    nows, nxts = [now for _, now, _ in steps], [nxt for _, _, nxt in steps]
    B, n = alphas.shape
    eps = nows[0].epsilon
    comps, diameters, energies = settle_geometry(nows + nxts)
    d_now, d_next = diameters[:B], diameters[B:]
    e_now, e_next = energies[:B], energies[B:]
    x = np.array([a.x for a in nows])
    move = np.array([a.x for a in nxts]) - x
    degrees = np.array([a.degrees for a in nows])

    disp_sq = (move ** 2).sum(axis=2)
    ratio = np.divide(alphas, 1.0 - alphas, out=np.zeros((B, n)), where=alphas < 1.0)
    bound = 4.0 * ((1.0 + degrees * ratio) * disp_sq).sum(axis=1)
    drop = e_now - e_next
    energy_ok = drop >= bound - ENERGY_SLACK * n**2 * eps**2
    trivial = d_now <= eps if n >= 2 else np.zeros(B, dtype=bool)
    beta = contraction_coefficient(alphas) if n >= 2 else np.zeros(B)
    contraction_ok = d_next <= beta * d_now + DIAM_SLACK
    nonexpansion_ok = d_next <= d_now + DIAM_SLACK
    interacts = [_interact(now, nxt) if interaction else None for now, nxt in zip(nows, nxts)]
    hulls = [HullBuffer().add(0, now, nxt.x).count_over(HULL_TOL) == 0 if hull else None
             for now, nxt in zip(nows, nxts)]
    records = [
        {"t": now.t, "energy": en, "energy_next": enx, "energy_drop": dr,
         "energy_drop_bound": bd, "energy_ok": ok, "contraction_coeff": bt if tv else None,
         "diam_global": dn, "diam_per_component": list(comp),
         "displacement_sq": sq, "epsilon_trivial": tv, "contraction_ok": cok if tv else None,
         "nonexpansion_ok": nok, "interaction": it, "hull_ok": hl}
        for now, comp, en, enx, dr, bd, ok, bt, dn, sq, tv, cok, nok, it, hl in zip(
            nows, comps, e_now.tolist(), e_next.tolist(), drop.tolist(), bound.tolist(),
            energy_ok.tolist(), beta.tolist(), d_now.tolist(), disp_sq.tolist(),
            trivial.tolist(), contraction_ok.tolist(), nonexpansion_ok.tolist(), interacts, hulls)]
    table = {"energy_descent": (True, energy_ok), "contraction": (trivial, contraction_ok),
             "nonexpansion": (True, nonexpansion_ok)}
    return records, {"alphas": alphas, "x": x, "move": move, "degrees": degrees,
                     "widest": np.array([max(comp) for comp in comps]),
                     "interacts": interacts, "table": table}


def _settle_steps(steps: list, delta: float) -> dict:
    """Verify a block of B ``steps`` at once, given as to ``_step_records``.

    Returns the step ``records`` (with ``interaction`` set), the block's
    violation ``counts`` and each step's budget ``terms`` (a (B, n) array),
    each value with the bits of its one-step evaluation. Every monitor is
    one (applies, ok) pair of arrays in the block's table, and its count is
    the number of entries where it applies and does not hold.

    Displacement floor: the step violates it unless sum_i ||move_i||^2 >
    2 delta^2 (1 - max alpha)^2 / n^8, for move = x(t+1) - x(t). The floor
    applies whenever some component of the current profile is
    delta-nontrivial and every stubbornness entry is below one:
    restricting to a delta-nontrivial component reduces to the connected
    case, and both the component size and its maximum stubbornness only
    tighten the bound. Interaction equivalence (delta <= epsilon/4 only)
    applies as in ``interaction_equivalence``.
    """
    records, block = _step_records(steps, interaction=True)
    alphas, x, move, degrees = block["alphas"], block["x"], block["move"], block["degrees"]
    B, n = alphas.shape
    eps = steps[0][1].epsilon
    widest, widest_next = block["widest"][:B], block["widest"][B:]
    delta_trivial = widest <= delta

    # each row's sum adds its n*d squares in the order a one-step sum does
    lhs = (move ** 2).reshape(B, -1).sum(axis=1)
    floor_applies = ~delta_trivial & (alphas < 1.0).all(axis=1)
    floor = 0.0
    if floor_applies.any():  # then delta is below a diameter, so delta**2 is finite
        floor = 2.0 * delta**2 * (1.0 - alphas.max(axis=1)) ** 2 / float(n**8)
    c1, c2, c3 = widest_next > delta, np.array(block["interacts"]), widest_next > eps / 2.0

    # spreads of the agents with alpha_i < 1 only; the others' terms stay +0.0
    at, agents = np.nonzero(alphas < 1.0)
    masks = np.array([now.mask for _, now, _ in steps])
    spread = np.zeros((B, n))
    spread[at, agents] = neighbor_spread(x.reshape(B * n, -1), masks[at, agents], at * n + agents)
    terms = (1.0 - alphas) * (1.0 - 1.0 / degrees) * spread
    # the per-row dot product that np.linalg.norm takes of one move
    movement = np.sqrt(np.matmul(move[..., None, :], move[..., :, None])[..., 0, 0])
    table = dict(block["table"], movement_bound=(True, movement <= terms + DIAM_SLACK),
                 displacement_floor=(floor_applies, lhs > floor * (1.0 - 1e-9)),
                 equivalence=(delta_trivial & (delta <= eps / 4.0), (c1 == c2) & (c2 == c3)))
    counts = {key: int(np.count_nonzero(applies & ~ok)) for key, (applies, ok) in table.items()}
    return {"records": records, "counts": counts, "terms": terms}


class Checker:
    """Streaming verification: every monitor of ``check_trajectory``, fed one
    transition at a time, so a run can be checked while it is simulated.

    ``push`` takes alpha(t) and the analyses of the step's two states, and
    buffers them. The buffer settles, in one ``_settle_steps`` call over
    its block of steps, once its steps' (B, n, n) squared-distance stack
    reaches ``MASK_BLOCK_BYTES`` (at least one step; B = 72 at n = 30), and
    before any read of ``violations``, ``equivalence``, ``records``,
    ``verdict`` or ``report``. So the checker holds at most one block of
    analyses, each with its n-by-n mask and, when the state fits one mask
    block and its geometry is not known yet (``simulate`` and
    ``check_trajectory`` push analyses whose geometry their block
    analysis computed), its squared-distance matrix, which its geometry is
    computed from on first read, and its hull buffer holds
    at most ``HULL_BUFFER_BYTES`` plus one step's vertex sets. A block's
    size changes no value: each is computed as one step's would be.
    ``report`` only aggregates, from the final analysis and the component
    diameters that ``verdict`` reads. A run's ``[monitors]`` records are
    ``simulate``'s own, not a checker's. Besides the counters the checker
    keeps each agent's movement budget and O(n) values per step: the step's
    record, whose component diameters give the settling and
    first-interaction times and, with its ``interaction``, the
    ``equivalence`` records, derived on read. Every violation count follows
    one rule (``_settle_steps``). ``delta`` defaults to epsilon/4.

    Agent i's budget is the running sum of its terms (1 - a_i(t))
    (1 - 1/|N_i(t)|) max_{j in N_i} dist(i, j), and each step's
    ||x_i(t) - x_i(t+1)|| <= term is checked with 1e-12 slack (a NaN fails
    it). Spreads are computed for agents with alpha_i < 1 only; the others'
    term (1 - 1) c s is +0.0 whatever their spread, so they keep 0. The
    sums run along time with ``np.add.accumulate``, step after step.

    With ``hull`` on, ``push`` adds the step's hull problems to a
    ``profile.HullBuffer`` instead of solving them. ``profile.hull_strays``
    solves the buffer once it reaches ``HULL_BUFFER_BYTES``, and before
    every read of ``violations``, with one Wolfe kernel call per neighbor
    count: a larger budget means fewer, larger kernel calls on the same
    problems, so the counts do not depend on it. A problem that does not
    converge raises ``NumericalFailure`` for the first (step, agent) that
    failed, by ``report`` or a ``violations`` read at the latest.
    """

    def __init__(self, epsilon: float, delta: Optional[float] = None, *, hull: bool = True):
        self.delta = epsilon / 4.0 if delta is None else delta
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        self.hull = hull
        self.epsilon = epsilon
        self._violations = {"energy_descent": 0, "contraction": 0, "nonexpansion": 0,
                            "movement_bound": 0, "equivalence": 0, "hull": 0,
                            "displacement_floor": 0}
        self._records = []
        self._partial_sums: Optional[np.ndarray] = None
        self._pending = []  # (alpha, now, nxt) of the steps not settled yet
        self._last: Optional[StateAnalysis] = None
        self._hull = HullBuffer()

    def push(self, alpha: np.ndarray, now: StateAnalysis, nxt: StateAnalysis) -> None:
        """Verify the step from the state analysed by ``now`` to the one
        analysed by ``nxt`` under ``alpha``: buffer it, and settle the
        buffer when it is full."""
        self._pending.append((alpha, now, nxt))
        if self.hull:
            self._hull.add(len(self._records) + len(self._pending) - 1, now, nxt.x)
            if self._hull.nbytes >= HULL_BUFFER_BYTES:
                self._violations["hull"] += self._hull.count_over(HULL_TOL)
        self._last = nxt
        if len(self._pending) >= max(1, geometry_block(now.n)):
            self._settle()

    def _settle(self):
        """Verify every buffered step, in one block."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        block = _settle_steps(pending, self.delta)
        for key, count in block["counts"].items():
            self._violations[key] += count
        self._records += block["records"]
        terms = block["terms"]
        if self._partial_sums is not None:
            terms[0] = self._partial_sums + terms[0]
        self._partial_sums = np.add.accumulate(terms, axis=0)[-1]

    @property
    def violations(self) -> dict:
        """The violation counters of the pushed steps."""
        self._settle()
        if self._hull.nbytes:
            self._violations["hull"] += self._hull.count_over(HULL_TOL)
        return self._violations

    @property
    def equivalence(self) -> Optional[list]:
        """The equivalence records of the pushed steps (None when delta >
        epsilon/4), read off the step records and the last analysis."""
        self._settle()
        if self.delta > self.epsilon / 4.0:
            return None
        widest = [max(r["diam_per_component"]) for r in self._records]
        if self._last is not None:
            widest.append(max(self._last.component_diameters))
        delta, half_eps = self.delta, self.epsilon / 2.0
        return [{"t": r["t"], "next_nontrivial": nxt > delta, "interaction": r["interaction"],
                 "half_eps_nontrivial": nxt > half_eps,
                 "equivalent": (nxt > delta) == r["interaction"] == (nxt > half_eps)}
                for r, now, nxt in zip(self._records, widest, widest[1:]) if now <= delta]

    @property
    def records(self) -> list:
        """The records of the pushed steps, one per step: read them, do not
        change them."""
        self._settle()
        return self._records

    def _final(self, traj: Trajectory) -> StateAnalysis:
        """The analysis of the last pushed state (of state 0 when nothing
        was pushed), with every pushed step settled."""
        self._settle()
        return analyze_state(traj.state_at(0)) if self._last is None else self._last

    def verdict(self, traj: Trajectory) -> dict:
        """The run-level verdict of ``traj``, whose every transition was
        pushed: the violation counters and their total, ``tau_delta`` (the
        first recorded t at which every component's diameter is <= delta),
        whether the last state reached consensus, and its diameter. These
        are the values of ``report`` that batch summaries hold; no merge
        events are detected."""
        return self._verdict(traj)[0]

    def _verdict(self, traj: Trajectory) -> tuple:
        """The ``verdict`` of ``traj``, and every recorded state's component
        diameters, which it reads."""
        last = self._final(traj)
        violations = dict(self.violations)
        diameters = [r["diam_per_component"] for r in self._records] + [last.component_diameters]
        tau = next((t for t, diams in enumerate(diameters)
                    if all(dm <= self.delta for dm in diams)), None)
        return {"violations": violations, "total_violations": sum(violations.values()),
                "tau_delta": tau,
                "consensus_reached": last.components_within(traj.consensus_tol),
                "final_diameter": last.diameter}, diameters

    def report(self, traj: Trajectory) -> dict:
        """The check report of ``traj``, whose every transition was pushed:
        the ``verdict``, per-step records, merge events, settling bounds,
        each agent's movement budget (``partial_sums``), and the
        first-interaction surrogate (``interaction_times``)."""
        verdict, diameters = self._verdict(traj)
        delta = self.delta
        sums = self._partial_sums
        violations = verdict["violations"]
        events = detect_merge_events(traj.states) if len(traj.states) >= 2 else []
        sup_a = traj.sup_alpha()
        tau_bound = interaction_bound = None
        if sup_a < 1.0 and delta <= traj.epsilon:
            tau_bound, interaction_bound = settling_bounds(traj.n, traj.epsilon, delta, sup_a)
            if tau_bound == math.inf:  # written as null: strict JSON has no infinity
                tau_bound = None
        total = verdict["total_violations"]
        return {
            "header": traj.header(),
            "delta": delta,
            "violations": violations,
            "total_violations": total,
            "energy_descent_violations": violations["energy_descent"],
            "contraction_violations": violations["contraction"],
            "tau_delta": verdict["tau_delta"],
            "tau_bound": tau_bound,
            "sup_alpha": sup_a,
            "consensus_reached": verdict["consensus_reached"],
            "final_diameter": verdict["final_diameter"],
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
    each state analysed once: the one loop over stored states. The states
    are validated one at a time (``Trajectory.state_at``) and analysed a
    block at a time, as the checker settles them
    (``profile.analyze_states``)."""
    if not traj.states:
        raise IntegrityError("the trajectory has no states to check")
    checker = Checker(traj.epsilon, delta, hull=hull)
    now = analyze_state(traj.state_at(0))
    block = max(1, geometry_block(traj.n))
    for t0 in range(0, traj.steps, block):
        times = range(t0 + 1, min(t0 + block, traj.steps) + 1)
        nxts = analyze_states([traj.state_at(t).x for t in times], traj.epsilon, t0 + 1, now,
                              geometry=True)
        for t, nxt in zip(times, nxts):
            checker.push(traj.alphas[t - 1], now, nxt)
            now = nxt
        del nxts
    return checker


def check_trajectory(traj: Trajectory, delta: Optional[float] = None,
                     *, hull: bool = True) -> dict:
    """Recompute every monitor over a stored trajectory: the report of one
    checker pass."""
    return _checked(traj, delta, hull=hull).report(traj)
