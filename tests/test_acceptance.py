"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from mixedhk import (
    Checker,
    ModelConfig,
    OpinionState,
    Profile,
    StubbornnessSchedule,
    check_cheeger,
    contraction_coefficient,
    diameter,
    lambda2_chain_check,
    laplacian,
    match_decomposition,
    read_trajectory,
    run_scenario,
    settling_bounds,
    simulate,
    step,
    update_factorization,
    verify_decomposition,
    write_trajectory,
)
from mixedhk.profile import analyze_state
from mixedhk.spectral import eigh
from conftest import (eigh_batch, floor_verdict, is_connected_edges, oracle_hk_step,
                      pushed_floor_violations, random_alpha, random_opinions, step_record)


def report(k: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_counterexample_scenarios():
    t0 = time.perf_counter()
    results = {name: run_scenario(name) for name in ("example1", "example2", "example3")}
    elapsed = time.perf_counter() - t0
    ok = all(r["passed"] for r in results.values()) and elapsed < 1.0
    detail = (f"example1/2/3 assertions all pass (no steady state in 200 steps with "
              f"exact gap law; merge@1/depart@2; no delta-equilibrium for "
              f"delta in {{eps, eps/2, eps/10}}); runtime {elapsed:.2f}s < 1s")
    for name, r in results.items():
        assert r["passed"], (name, r["assertions"])
    report(1, ok, detail)


def test_criterion_2_energy_descent_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240201)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        st = OpinionState(0, random_opinions(rng, n, d), float(rng.uniform(0.2, 2.0)))
        alpha = random_alpha(rng, n)  # mixes exact 0s and 1s with interior values
        nxt = step(st, alpha)
        record = step_record(st, nxt, alpha)
        drop, bound = record["energy_drop"], record["energy_drop_bound"]
        if drop < bound - 1e-9 * n**2 * st.epsilon**2:
            violations += 1
    # sharp anchor: the two half-stubborn agents attain equality at value 1.5
    st = OpinionState(0, np.array([[-0.5], [0.5]]), 1.0)
    alpha = np.array([0.5, 0.5])
    nxt = step(st, alpha)
    record = step_record(st, nxt, alpha)
    drop, bound = record["energy_drop"], record["energy_drop_bound"]
    anchor_ok = abs(drop - 1.5) <= 1e-12 and abs(drop - bound) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and anchor_ok and elapsed < 10.0
    report(2, ok, f"10^4 random steps: {violations} energy-descent violations; "
                  f"equality anchor 1.5 within 1e-12; runtime {elapsed:.2f}s < 10s")


def test_criterion_3_contraction_and_nonexpansion():
    rng = np.random.default_rng(20240301)
    contraction_violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.2, 2.0))
        x = random_opinions(rng, n, d)
        dm = diameter(x)
        if dm > 0:
            x = x * (eps * float(rng.uniform(0.05, 1.0)) / dm)
        st = OpinionState(0, x, eps)
        alpha = random_alpha(rng, n)
        nxt = step(st, alpha)
        if diameter(nxt.x) > contraction_coefficient(alpha) * diameter(st.x) + 1e-12:
            contraction_violations += 1
    nonexpansion_violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        st = OpinionState(0, random_opinions(rng, n, int(rng.integers(1, 4))),
                          float(rng.uniform(0.2, 2.0)))
        nxt = step(st, random_alpha(rng, n))
        if diameter(nxt.x) > diameter(st.x) + 1e-12:
            nonexpansion_violations += 1
    ok = contraction_violations == 0 and nonexpansion_violations == 0
    report(3, ok, f"10^4 epsilon-trivial steps: {contraction_violations} contraction "
                  f"violations; 10^4 arbitrary steps: {nonexpansion_violations} "
                  f"diameter expansions")


def test_criterion_4_geometric_consensus():
    rng = np.random.default_rng(20240401)
    worst_margin = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.5, 2.0))
        x = random_opinions(rng, n, d)
        dm = diameter(x)
        assert dm > 0
        x = x * (eps * float(rng.uniform(0.3, 1.0)) / dm)
        diam0 = diameter(x)
        budget = int(np.ceil(np.log(1e-9 / diam0) / np.log(0.5))) + 2
        state = OpinionState(0, x, eps)
        alpha = np.full(n, 0.5)
        steps = 0
        while diameter(state.x) > 1e-9:
            state = step(state, alpha)
            steps += 1
            assert steps <= budget, f"needed {steps} > budget {budget}"
        worst_margin = max(worst_margin, steps - budget)
    report(4, True, f"100 epsilon-trivial starts with alpha=0.5: diameter <= 1e-9 "
                    f"within ceil(log(1e-9/diam0)/log 0.5)+2 steps "
                    f"(worst slack {-worst_margin} steps)")


def test_criterion_5_powerlaw_movement():
    rng = np.random.default_rng(20240501)
    cfg = ModelConfig(initial=rng.uniform(0.0, 1.0, size=(20, 2)), epsilon=0.5,
                      schedule=StubbornnessSchedule("power_law", exponent=2.0),
                      max_steps=1100, consensus_tol=1e-300, monitors=())
    checker = Checker(cfg.epsilon, hull=False)
    traj = simulate(cfg, checker)
    assert traj.steps == 1100
    budget_violations = checker.report(traj)["violations"]["movement_bound"]
    worst_late = 0.0
    for t in range(1000, traj.steps):
        move = np.sqrt(((traj.states[t + 1] - traj.states[t]) ** 2).sum(axis=1))
        worst_late = max(worst_late, float(move.max()))
    ok = budget_violations == 0 and worst_late < 1e-6 * cfg.epsilon
    report(5, ok, f"power-law a=2, n=20, d=2: {budget_violations} step-wise movement "
                  f"bound violations; worst per-agent movement after t=1000 is "
                  f"{worst_late:.2e} < 1e-6*eps")


def test_criterion_6_settling_and_displacement_floor():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    floor_checks = 0
    for max_alpha in (0.0, 0.3, 0.9):
        for _ in range(100):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            eps = 0.5
            delta = eps / 4.0
            alpha = np.full(n, max_alpha)
            x = rng.uniform(0.0, 1.0, size=(n, d))
            tau_bound, _ = settling_bounds(n, eps, delta, max_alpha)
            horizon = int(min(tau_bound, 1e5))
            state = OpinionState(0, x, eps)
            tau = None
            for t in range(horizon + 1):
                if all(dm <= delta for dm in analyze_state(state).component_diameters):
                    tau = t
                    break
                nxt = step(state, alpha)
                verdict = floor_verdict(state, nxt, alpha, delta)
                assert verdict.applicable, verdict.reason
                assert verdict.ok, (verdict.displacement_sq_sum, verdict.floor)
                assert pushed_floor_violations(state, nxt, alpha, delta) == (
                    verdict.applicable and not verdict.ok)
                floor_checks += 1
                state = nxt
            assert tau is not None, f"no settling within horizon {horizon}"
            assert tau <= tau_bound
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(6, ok, f"300 runs (max alpha in {{0, 0.3, 0.9}}): settling always reached "
                  f"with tau <= n^10 (eps/delta)^2 / (8 (1-max alpha)^2); "
                  f"{floor_checks} displacement-floor checks, 0 violations; "
                  f"runtime {elapsed:.1f}s < 60s")


def _connected_graph_stack(n: int):
    """Stacked Laplacians and edge masks of every labeled connected graph on n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.uint32)
    reach = np.zeros((1 << m, n), dtype=np.uint16)
    for b, (i, j) in enumerate(pairs):
        has = ((masks >> b) & 1).astype(np.uint16)
        reach[:, i] |= has << j
        reach[:, j] |= has << i
    reach |= (1 << np.arange(n)).astype(np.uint16)[None, :]
    for _ in range(n):
        for v in range(n):
            acc = reach[:, v].copy()
            for u in range(n):
                has_u = ((reach[:, v] >> u) & 1).astype(bool)
                acc[has_u] |= reach[has_u, u]
            reach[:, v] = acc
    connected = reach[:, 0] == (1 << n) - 1
    conn_masks = masks[connected]
    B = len(conn_masks)
    L = np.zeros((B, n, n))
    for b, (i, j) in enumerate(pairs):
        has = ((conn_masks >> b) & 1).astype(np.float64)
        L[:, i, j] -= has
        L[:, j, i] -= has
        L[:, i, i] += has
        L[:, j, j] += has
    return pairs, conn_masks, L


def _batch_cheeger(n: int, pairs, conn_masks) -> np.ndarray:
    smasks = np.arange(1, 1 << n, dtype=np.uint32)
    pop = np.zeros_like(smasks)
    for b in range(n):
        pop += (smasks >> b) & 1
    keep = 2 * pop <= n
    smasks, pop = smasks[keep], pop[keep]
    xor_bits = np.zeros((len(pairs), len(smasks)), dtype=np.float64)
    for b, (i, j) in enumerate(pairs):
        xor_bits[b] = ((smasks >> i) & 1) ^ ((smasks >> j) & 1)
    edge_has = ((conn_masks[:, None] >> np.arange(len(pairs))[None, :]) & 1).astype(np.float64)
    boundary = edge_has @ xor_bits
    return (boundary / pop[None, :]).min(axis=1)


def test_criterion_7_spectral_suite():
    rng = np.random.default_rng(20240701)
    counts = {}
    for n in range(2, 7):
        pairs, conn_masks, L = _connected_graph_stack(n)
        counts[n] = len(conn_masks)
        w, V = eigh_batch(L)
        lam2 = w[:, 1]
        cheeg = _batch_cheeger(n, pairs, conn_masks)
        maxdeg = L[:, np.arange(n), np.arange(n)].max(axis=1)
        assert np.all(2.0 * cheeg >= lam2 - 1e-9), f"n={n}: Cheeger upper fails"
        assert np.all(lam2 >= cheeg**2 / (2.0 * maxdeg) - 1e-9), f"n={n}: Cheeger lower fails"
        assert np.all(lam2 > 2.0 / n**3 - 1e-9), f"n={n}: connectivity gap fails"
        # multiplicity of eigenvalue 0 is exactly one for connected graphs
        assert np.all(np.abs(w[:, 0]) <= 1e-9) and np.all(lam2 > 1e-9)
        # smallest eigenvector strictly positive after sign canonicalization
        assert np.all(V[:, :, 0] > 0.0), f"n={n}: positivity fails"
        # one stubbornness draw per graph: factorization + lambda2 chain bound
        alphas = rng.uniform(0.0, 0.9, size=(len(conn_masks), n))
        adj = -L.copy()
        adj[:, np.arange(n), np.arange(n)] = 0.0
        cnt = adj.sum(axis=2) + 1.0
        A_avg = (adj + np.eye(n)[None]) / cnt[:, :, None]
        B_op = alphas[:, :, None] * np.eye(n)[None] + (1.0 - alphas)[:, :, None] * A_avg
        Q = np.eye(n)[None] - B_op
        resid = np.abs(Q - (1.0 - alphas)[:, :, None] / cnt[:, :, None] * L).max()
        assert resid <= 1e-12, f"n={n}: factorization residual {resid}"
        wq, _ = eigh_batch(Q.transpose(0, 2, 1) @ Q)
        floor = ((1.0 - alphas.max(axis=1)) / n) ** 2 * lam2**2
        assert np.all(wq[:, 1] >= floor - 1e-9), f"n={n}: chain bound fails"
        assert np.all(np.abs(wq[:, 0]) <= 1e-9), f"n={n}: Q'Q zero eigenvalue missing"
        # scalar-solver cross-check on a subsample binds both implementations
        for idx in rng.choice(len(conn_masks), size=min(20, len(conn_masks)), replace=False):
            edges = [pairs[b] for b in range(len(pairs)) if (int(conn_masks[idx]) >> b) & 1]
            prof = Profile.from_edges(n, edges)
            rep = check_cheeger(prof)
            assert all(rep["verdicts"].values())
            assert abs(rep["lambda2"] - lam2[idx]) <= 1e-12
            assert rep["cheeger"] == cheeg[idx]
    assert counts == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

    # 100 random graphs with n <= 12 through the scalar module surface
    done = 0
    while done < 100:
        n = int(rng.integers(2, 13))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < float(rng.uniform(0.15, 0.7))]
        prof = Profile.from_edges(n, edges)
        w, _ = eigh(laplacian(prof))
        mult = int(np.sum(np.abs(w) <= 1e-9 * max(1.0, float(np.abs(w).max()))))
        assert mult == prof.num_components
        rep = check_cheeger(prof)
        assert all(rep["verdicts"].values())
        alpha = rng.uniform(0.0, 0.9, size=n)
        assert update_factorization(prof, alpha).residual <= 1e-12
        if is_connected_edges(n, edges):
            chain = lambda2_chain_check(prof, alpha, samples=200,
                                        seed=int(rng.integers(2**32)))
            assert chain["zero_simple"] and chain["chain_bound"]
            assert chain["perron_frobenius"] and chain["variational"]
        done += 1
    report(7, True, f"exhaustive connected graphs n=2..6 ({sum(counts.values())} graphs): "
                    f"Cheeger sandwich, zero-eigenvalue simplicity, positivity, "
                    f"factorization residual <= 1e-12, and the lambda2 chain bound all "
                    f"hold; plus 100 random graphs n <= 12 through the scalar solver")


def test_criterion_8_matching_sweep():
    rng = np.random.default_rng(20240801)
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 5))
        lam = rng.normal(size=n)
        lam -= lam.mean()
        pts = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 10.0))
        form = match_decomposition(lam, pts)
        ok, residual = verify_decomposition(lam, pts, form)
        assert ok, (lam, residual)
        pos_mass = float(lam[lam >= 0].sum())
        assert abs(form.positive_mass - pos_mass) <= 1e-10
    report(8, True, "10^4 random zero-sum decompositions verified "
                    "(residual and coefficient-mass identities within 1e-10)")


def test_criterion_9_reduction_equivalence():
    rng = np.random.default_rng(20240901)
    # synchronous trajectories bitwise-match an independently coded oracle
    for _ in range(100):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        cfg = ModelConfig(initial=random_opinions(rng, n, d), epsilon=float(rng.uniform(0.3, 2.0)),
                          schedule=StubbornnessSchedule("synchronous"),
                          max_steps=30, consensus_tol=1e-300, monitors=())
        traj = simulate(cfg)
        x = [[float(v) for v in row] for row in cfg.initial]
        for t in range(traj.steps):
            x = oracle_hk_step(x, cfg.epsilon)
            assert np.array(x).tobytes() == traj.states[t + 1].tobytes(), \
                f"oracle mismatch at t={t + 1}"
    # asynchronous steps change exactly one opinion
    for k in range(100):
        n = int(rng.integers(2, 9))
        cfg = ModelConfig(initial=rng.uniform(0.0, 0.4, size=(n, 2)), epsilon=1.5,
                          schedule=StubbornnessSchedule("asynchronous"),
                          max_steps=30, consensus_tol=1e-300, monitors=(), seed=k)
        traj = simulate(cfg)
        for t in range(traj.steps):
            moved = [i for i in range(n)
                     if traj.states[t][i].tobytes() != traj.states[t + 1][i].tobytes()]
            assert len(moved) == 1, f"run {k} step {t}: moved {moved}"
            assert traj.alphas[t][moved[0]] == 0.0
    report(9, True, "100 synchronous runs bitwise-match the independent plain-averaging "
                    "oracle; 100 asynchronous runs move exactly one agent per step")


def test_criterion_10_determinism_and_persistence(tmp_path):
    rng = np.random.default_rng(20241001)
    for kind in ("synchronous", "asynchronous", "constant", "power_law"):
        n = 6
        if kind == "constant":
            sched = StubbornnessSchedule(kind, alpha=rng.uniform(0, 1, n))
        elif kind == "power_law":
            sched = StubbornnessSchedule(kind, exponent=2.0)
        else:
            sched = StubbornnessSchedule(kind)
        cfg = ModelConfig(initial=rng.uniform(0, 1, size=(n, 2)), epsilon=0.6,
                          schedule=sched, max_steps=40, seed=77)
        p1 = tmp_path / f"{kind}-1.csv"
        p2 = tmp_path / f"{kind}-2.csv"
        write_trajectory(simulate(cfg), p1)
        write_trajectory(simulate(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes(), f"{kind}: runs differ"
        back = read_trajectory(p1)
        p3 = tmp_path / f"{kind}-3.csv"
        write_trajectory(back, p3)
        assert p1.read_bytes() == p3.read_bytes(), f"{kind}: round-trip differs"
    report(10, True, "identical configs produce byte-identical trajectory files for "
                     "every schedule kind; write/read/write is byte-exact")
