"""Profile graphs, hull geometry, equilibrium and merge detection."""

import numpy as np
import pytest

from mixedhk import (
    OpinionState,
    Profile,
    build_profile,
    check_delta_equilibrium,
    detect_merge_events,
    diameter,
    hull_distance,
    simulate,
    step,
    ModelConfig,
    StubbornnessSchedule,
)
from mixedhk.profile import SEPARATION_GUARD
from conftest import random_opinions


class TestBuildProfile:
    def test_example_profile(self):
        st = OpinionState(0, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), 1.0)
        prof = build_profile(st)
        assert prof.edges == frozenset({(0, 1)})
        assert tuple(prof.labels.tolist()) == (0, 0, 1)
        assert prof.components() == [[0, 1], [2]]

    def test_all_equal_complete(self):
        st = OpinionState(0, np.zeros((4, 2)), 0.5)
        prof = build_profile(st)
        assert len(prof.edges) == 6
        assert prof.num_components == 1

    def test_far_apart_edgeless(self):
        st = OpinionState(0, np.array([[0.0], [2.0]]), 1.0)
        prof = build_profile(st)
        assert prof.edges == frozenset()
        assert prof.num_components == 2

    def test_from_edges_rejects_bad(self):
        with pytest.raises(ValueError):
            Profile.from_edges(3, [(0, 0)])
        with pytest.raises(ValueError):
            Profile.from_edges(3, [(0, 3)])


class TestDiameter:
    def test_collinear(self):
        assert diameter(np.array([[0.0], [1.0], [2.0]])) == 2.0

    def test_unit_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert diameter(pts) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_single_point(self):
        assert diameter(np.array([[5.0, 5.0]])) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diameter(np.zeros((0, 2)))

    def test_ball_bound_and_hull_samples(self):
        # oracle: random convex combinations never exceed the vertex diameter
        rng = np.random.default_rng(101)
        pts = rng.normal(size=(50, 3))
        radius = float(np.linalg.norm(pts, axis=1).max())
        diam = diameter(pts)
        assert diam <= 2.0 * radius + 1e-12
        for _ in range(1000):
            w1 = rng.dirichlet(np.ones(50))
            w2 = rng.dirichlet(np.ones(50))
            dist = float(np.linalg.norm(w1 @ pts - w2 @ pts))
            assert dist <= diam + 1e-12


class TestDeltaTrivial:
    def test_single_point(self):
        assert diameter(np.array([[1.0, 2.0]])) <= 1e-9

    def test_boundary_inclusive(self):
        eps = 0.8
        assert diameter(np.array([[0.0], [eps]])) <= eps

    def test_strict_exceedance(self):
        assert not diameter(np.array([[0.0], [1.0 + 1e-6]])) <= 1.0


class TestHullDistance:
    def test_parallel_segments(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 2.0], [1.0, 2.0]])
        assert hull_distance(a, b) == pytest.approx(2.0, abs=1e-9)

    def test_point_to_segment_projection(self):
        eps = 1.0
        point = np.array([[eps / 2.0, eps]])
        seg = np.array([[0.0, 0.0], [eps, 0.0]])
        assert hull_distance(point, seg) == pytest.approx(eps, abs=1e-9)

    def test_overlapping_triangles(self):
        t1 = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        t2 = np.array([[0.5, 0.5], [3.0, 0.5], [0.5, 3.0]])
        assert hull_distance(t1, t2) == 0.0

    def test_symmetry_and_containment(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 4))))
            q = rng.normal(size=(int(rng.integers(1, 7)), p.shape[1])) + rng.normal() * 2
            ab = hull_distance(p, q)
            ba = hull_distance(q, p)
            assert abs(ab - ba) <= 1e-12 * (1.0 + ab)
            # subset of the hull: distance 0
            w = rng.dirichlet(np.ones(q.shape[0]), size=3)
            assert hull_distance(w @ q, q) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hull_distance(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_iteration_cap_reports_best_and_gap(self):
        from mixedhk import NumericalFailure

        # interior-face minimum needs the full 3-vertex corral, so a single
        # major iteration cannot close the gap
        point = np.array([[0.0, 0.0, 0.0]])
        tri = np.array([[1.0, -0.5, 1.0], [-1.0, -0.5, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(NumericalFailure) as exc:
            hull_distance(point, tri, max_iter=1)
        assert exc.value.best is not None and exc.value.gap > 0
        assert hull_distance(point, tri) == pytest.approx(1.0, abs=1e-9)


def _equilibrium_oracle(x: np.ndarray, eps: float, delta: float) -> bool:
    """Exhaustive partition search over distinct opinion values (n <= 8)."""
    unique = []
    for row in x:
        if not any(np.array_equal(row, u) for u in unique):
            unique.append(row)
    pts = np.array(unique)
    m = len(pts)

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for k in range(len(part)):
                yield part[:k] + [[first] + part[k]] + part[k + 1:]
            yield [[first]] + part

    cut = eps * (1.0 + SEPARATION_GUARD)
    for part in partitions(list(range(m))):
        if any(diameter(pts[g]) > delta for g in part):
            continue
        ok = True
        for gi in range(len(part)):
            for gj in range(gi + 1, len(part)):
                if hull_distance(pts[part[gi]], pts[part[gj]]) <= cut:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


class TestDeltaEquilibrium:
    def test_two_far_singletons(self):
        st = OpinionState(0, np.array([[0.0], [3.0]]), 1.0)
        verdict = check_delta_equilibrium(st, 0.5)
        assert verdict.exists
        assert verdict.partition == [[0], [1]]

    def test_tight_cluster_isolated(self):
        st = OpinionState(0, np.array([[0.0, 0.0], [0.05, 0.0], [10.0, 0.0]]), 1.0)
        verdict = check_delta_equilibrium(st, 0.1)
        assert verdict.exists
        assert verdict.partition == [[0, 1], [2]]

    def test_exact_epsilon_separation_fails(self):
        # hull distance exactly epsilon is inside the guard band: not separated
        st = OpinionState(0, np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 1.0]]), 1.0)
        verdict = check_delta_equilibrium(st, 1.0)
        assert not verdict.exists
        assert verdict.witness is not None
        assert verdict.witness["diameter"] > 1.0

    def test_trivial_partition_allowed(self):
        st = OpinionState(0, np.array([[0.0], [0.2]]), 1.0)
        verdict = check_delta_equilibrium(st, 0.5)
        assert verdict.exists
        assert verdict.partition == [[0, 1]]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(202)
        agree = 0
        for trial in range(120):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 3))
            eps = float(rng.uniform(0.3, 1.0))
            x = random_opinions(rng, n, d, scale=float(rng.uniform(0.5, 2.0)))
            delta = float(rng.uniform(0.1, 1.5)) * eps
            st = OpinionState(0, x, eps)
            got = check_delta_equilibrium(st, delta).exists
            want = _equilibrium_oracle(x, eps, delta)
            assert got == want, f"trial {trial}: candidate={got}, exhaustive={want}"
            agree += 1
        assert agree == 120


class TestMergeEvents:
    def test_example_merge_then_depart(self):
        config = ModelConfig(
            initial=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]),
            epsilon=1.0,
            schedule=StubbornnessSchedule(
                "table", table=(np.zeros(3), np.array([1 / 3, 0.5, 0.0]))),
            max_steps=2, consensus_tol=1e-300)
        traj = simulate(config)
        events = detect_merge_events(traj.states)
        assert events == [{"type": "merge", "t": 1, "i": 0, "j": 1, "departed": True}]
        mean_y = 1.0 / 3.0
        assert traj.states[2][0] == pytest.approx([0.5, (1 - 1 / 3) * mean_y], abs=1e-12)
        assert traj.states[2][1] == pytest.approx([0.5, 0.5 * mean_y], abs=1e-12)

    def test_constant_trajectory_no_events(self):
        states = [np.array([[0.0], [1.0]])] * 4
        assert detect_merge_events(states) == []

    def test_mutual_pair_merges_and_stays(self):
        st = OpinionState(0, np.array([[0.0], [0.5]]), 1.0)
        s1 = step(st, np.zeros(2))
        s2 = step(s1, np.zeros(2))
        events = detect_merge_events([st.x, s1.x, s2.x])
        assert events == [{"type": "merge", "t": 1, "i": 0, "j": 1, "departed": False}]

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            detect_merge_events([np.zeros((2, 1))])


class TestTrivialPreservation:
    def test_random_sweep(self):
        # states with diameter <= delta keep it after any step
        rng = np.random.default_rng(303)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            delta = float(rng.uniform(0.1, 1.0))
            x = random_opinions(rng, n, d)
            dm = diameter(x)
            if dm > 0:
                x = x * (delta * float(rng.uniform(0.2, 1.0)) / dm)
            eps = delta * float(rng.uniform(1.0, 2.0))
            st = OpinionState(0, x, eps)
            alpha = rng.uniform(0.0, 1.0, size=n)
            nxt = step(st, alpha)
            assert diameter(nxt.x) <= delta + 1e-12
