"""Laplacians, the Jacobi solvers, Cheeger constants, and the operator chain."""

import functools
import json

import numpy as np
import pytest

from mixedhk import (
    ConfigError,
    NumericalFailure,
    OpinionState,
    Profile,
    SizeLimitError,
    build_profile,
    cheeger_constant,
    check_cheeger,
    eigh,
    eigvalsh,
    is_generalized_laplacian,
    lambda2_chain_check,
    laplacian,
    update_factorization,
)
from mixedhk.dynamics import averaging_matrix
from conftest import (
    all_graphs,
    connected_graphs,
    eigh_batch,
    is_connected_edges,
    oracle_adjacency,
    oracle_averaging,
    oracle_cheeger_constant,
    oracle_eigh,
    oracle_is_generalized_laplacian,
    oracle_lambda2_chain_check,
    oracle_laplacian,
    oracle_profile,
    random_opinions,
)


def k2():
    return Profile.from_edges(2, [(0, 1)])


def p3():
    return Profile.from_edges(3, [(0, 1), (1, 2)])


class TestLaplacian:
    def test_k2(self):
        assert np.array_equal(laplacian(k2()), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_p3(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(laplacian(p3()), expected)

    def test_edgeless(self):
        assert np.array_equal(laplacian(Profile.from_edges(3, [])), np.zeros((3, 3)))

    def test_row_sums_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4]
            L = laplacian(Profile.from_edges(n, edges))
            assert np.abs(L.sum(axis=1)).max() == 0.0


class TestGeneralizedLaplacian:
    def test_laplacian_qualifies(self):
        prof = p3()
        assert is_generalized_laplacian(laplacian(prof), prof)

    def test_diagonal_unconstrained(self):
        prof = p3()
        M = laplacian(prof) + np.diag([-5.0, 7.0, 0.1])
        assert is_generalized_laplacian(M, prof)

    def test_zeroed_edge_fails(self):
        prof = p3()
        M = laplacian(prof).copy()
        M[0, 1] = M[1, 0] = 0.0
        assert not is_generalized_laplacian(M, prof)

    def test_asymmetric_rejected(self):
        prof = k2()
        M = np.array([[1.0, -1.0], [-0.5, 1.0]])
        with pytest.raises(ValueError):
            is_generalized_laplacian(M, prof)

    def test_below_diagonal_slack_is_not_judged(self):
        prof = p3()
        M = laplacian(prof)
        M[2, 0] = 5e-13  # (0, 2) is no edge; only the upper entry is judged
        assert is_generalized_laplacian(M, prof)
        M[0, 2] = 5e-13
        assert not is_generalized_laplacian(M, prof)


class TestEigh:
    def test_k2_spectrum(self):
        w, _ = eigh(laplacian(k2()))
        assert w == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_p3_spectrum(self):
        w, _ = eigh(laplacian(p3()))
        assert w == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)

    def test_identity(self):
        w, V = eigh(np.eye(4))
        assert np.array_equal(w, np.ones(4))
        assert np.array_equal(V, np.eye(4))

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            M = rng.normal(size=(n, n)) * float(rng.uniform(0.1, 10.0))
            M = (M + M.T) / 2.0
            w, V = eigh(M)
            scale = max(np.abs(M).max(), 1e-12)
            assert np.abs(w - np.linalg.eigvalsh(M)).max() <= 1e-9 * scale
            assert np.abs(M @ V - V * w).max() <= 1e-9 * scale
            assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-9

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            eigh(np.eye(65))

    def test_sweep_cap_raises_numerical_failure(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(16, 16))
        M = (M + M.T) / 2.0
        with pytest.raises(NumericalFailure):
            eigh(M, max_sweeps=1)
        with pytest.raises(ValueError):
            eigh(M, max_sweeps=0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(123)
        mats = rng.normal(size=(64, 5, 5))
        mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        wb, Vb = eigh_batch(mats)
        for k in range(64):
            ws, Vs = eigh(mats[k])
            assert np.abs(wb[k] - ws).max() <= 1e-12
            assert np.abs(Vb[k] - Vs).max() <= 1e-9


class TestCheeger:
    def test_k2(self):
        assert cheeger_constant(k2()) == 1.0

    def test_p3(self):
        assert cheeger_constant(p3()) == 1.0

    def test_disconnected_zero(self):
        prof = Profile.from_edges(4, [(0, 1), (2, 3)])
        assert cheeger_constant(prof) == 0.0

    def test_singleton_infinite(self):
        assert cheeger_constant(Profile.from_edges(1, [])) == float("inf")

    def test_complete_graph_value(self):
        # K_n: boundary of S is |S|(n-|S|), minimized ratio at |S| = floor(n/2)
        for n in (3, 4, 5, 6):
            prof = Profile.from_edges(n, [(i, j) for i in range(n)
                                          for j in range(i + 1, n)])
            expected = n - n // 2
            assert cheeger_constant(prof) == float(expected)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            cheeger_constant(Profile.from_edges(17, []))

    def test_brute_oracle_small(self):
        # independent subset enumeration via itertools on sets
        from itertools import combinations
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            prof = Profile.from_edges(n, edges)
            best = float("inf")
            for size in range(1, n // 2 + 1):
                for S in combinations(range(n), size):
                    sset = set(S)
                    boundary = sum(1 for i, j in edges if (i in sset) != (j in sset))
                    best = min(best, boundary / size)
            assert cheeger_constant(prof) == best


class TestCheckCheeger:
    def test_p3_values(self):
        rep = check_cheeger(p3())
        assert rep["lambda2"] == pytest.approx(1.0, abs=1e-12)
        assert rep["cheeger"] == 1.0
        assert rep["max_degree"] == 2
        assert all(rep["verdicts"].values())

    def test_k2_upper_tight(self):
        rep = check_cheeger(k2())
        assert rep["lambda2"] == pytest.approx(2.0, abs=1e-12)
        assert 2.0 * rep["cheeger"] == pytest.approx(rep["lambda2"], abs=1e-12)
        assert all(rep["verdicts"].values())

    def test_all_connected_up_to_5(self):
        for n in range(2, 6):
            for edges in connected_graphs(n):
                rep = check_cheeger(Profile.from_edges(n, edges))
                assert all(rep["verdicts"].values()), (n, edges, rep["verdicts"])

    def test_multiplicity_matches_components_n4(self):
        for n in range(1, 5):
            for edges in all_graphs(n):
                prof = Profile.from_edges(n, edges)
                w, _ = eigh(laplacian(prof))
                mult = int(np.sum(np.abs(w) <= 1e-9 * max(1.0, np.abs(w).max())))
                assert mult == prof.num_components
                assert w.min() >= -1e-10

    def test_multiplicity_all_graphs_up_to_6_exhaustive(self):
        # zero-eigenvalue multiplicity equals the component count for every
        # labeled graph on at most 6 vertices, via the batched solver
        for n in range(2, 7):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = len(pairs)
            masks = np.arange(1 << m, dtype=np.uint32)
            L = np.zeros((len(masks), n, n))
            for b, (i, j) in enumerate(pairs):
                has = ((masks >> b) & 1).astype(np.float64)
                L[:, i, j] -= has
                L[:, j, i] -= has
                L[:, i, i] += has
                L[:, j, j] += has
            w, _ = eigh_batch(L)
            assert float(w.min()) >= -1e-10  # PSD across the whole family
            mult = (np.abs(w) <= 1e-9).sum(axis=1)
            comps = np.empty(len(masks), dtype=np.int64)
            for g, mask in enumerate(masks):
                edges = [pairs[b] for b in range(m) if (int(mask) >> b) & 1]
                comps[g] = Profile.from_edges(n, edges).num_components
            assert np.array_equal(mult, comps)


class TestUpdateFactorization:
    def test_synchronous_complete_profile(self):
        n = 4
        st = OpinionState(0, np.zeros((n, 2)), 1.0)  # all equal: complete graph
        fact = update_factorization(build_profile(st), np.zeros(n))
        expected = np.eye(n) - np.full((n, n), 1.0 / n)
        assert np.abs(fact.I_minus_B - expected).max() <= 1e-15
        assert fact.residual <= 1e-12

    def test_isolated_agent_zero_row(self):
        st = OpinionState(0, np.array([[0.0], [10.0]]), 1.0)
        fact = update_factorization(build_profile(st), np.array([0.3, 0.3]))
        assert np.abs(fact.I_minus_B[0]).max() == 0.0
        assert np.abs(fact.I_minus_B[1]).max() == 0.0

    def test_residual_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            st = OpinionState(0, rng.uniform(-1, 1, size=(n, int(rng.integers(1, 4)))),
                              float(rng.uniform(0.3, 2.0)))
            alpha = rng.uniform(0.0, 0.999, size=n)
            assert update_factorization(build_profile(st), alpha).residual <= 1e-12

    def test_alpha_one_rejected(self):
        st = OpinionState(0, np.zeros((2, 1)), 1.0)
        with pytest.raises(ValueError):
            update_factorization(build_profile(st), np.array([1.0, 0.0]))


class TestChainCheck:
    def test_k2_synchronous(self):
        report = lambda2_chain_check(k2(), np.zeros(2))
        assert report["zero_simple"] and report["chain_bound"]
        assert report["perron_frobenius"] and report["variational"]
        # I - B on K2 with alpha=0 is [[.5,-.5],[-.5,.5]]: Q'Q eigenvalues 0, 1
        assert report["lambda2_qtq"] == pytest.approx(1.0, abs=1e-9)

    def test_p3_half_stubborn(self):
        report = lambda2_chain_check(p3(), np.full(3, 0.5))
        assert all(report[k] for k in
                   ("zero_simple", "chain_bound", "perron_frobenius", "variational"))

    def test_disconnected_rejected(self):
        prof = Profile.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            lambda2_chain_check(prof, np.zeros(4))

    def test_random_connected_sweep(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 40:
            n = int(rng.integers(2, 9))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            if not is_connected_edges(n, edges):
                continue
            alpha = rng.uniform(0.0, 0.9, size=n)
            report = lambda2_chain_check(Profile.from_edges(n, edges), alpha,
                                         samples=200, seed=int(rng.integers(2**32)))
            assert all(report[k] for k in
                       ("zero_simple", "chain_bound", "perron_frobenius", "variational"))
            done += 1

    def test_generalized_laplacian_perron_frobenius(self):
        # smallest eigenvalue simple with strictly positive eigenvector, for
        # Laplacian plus arbitrary diagonal on connected graphs
        rng = np.random.default_rng(53)
        done = 0
        while done < 30:
            n = int(rng.integers(2, 8))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.6]
            if not is_connected_edges(n, edges):
                continue
            prof = Profile.from_edges(n, edges)
            M = laplacian(prof) + np.diag(rng.uniform(-2.0, 2.0, size=n))
            assert is_generalized_laplacian(M, prof)
            w, V = eigh(M)
            assert w[1] - w[0] > 1e-9  # simple
            assert np.all(V[:, 0] > 0.0)
            done += 1


def graph_profiles():
    """Every labeled graph on at most 5 vertices, then profiles of random
    states, each checked against its independently known edge set."""
    for n in range(1, 6):
        for edges in all_graphs(n):
            prof = Profile.from_edges(n, edges)
            assert prof.edges == frozenset(edges)
            yield prof
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        state = OpinionState(0, random_opinions(rng, n, int(rng.integers(1, 4))),
                             float(rng.uniform(0.2, 2.0)))
        prof = build_profile(state)
        assert prof.edges == frozenset(oracle_profile(state.x, state.epsilon)[0])
        yield prof


class TestMaskAgainstEdgeOracles:
    """Graph quantities read off the mask equal the edge-loop routes bit for bit."""

    def test_matrices_and_degrees(self):
        for prof in graph_profiles():
            assert laplacian(prof).tobytes() == oracle_laplacian(prof).tobytes()
            assert prof.adjacency().tobytes() == oracle_adjacency(prof).tobytes()
            assert averaging_matrix(prof.mask).tobytes() == oracle_averaging(prof).tobytes()
            assert [prof.degree(i) for i in range(prof.n)] == [
                sum(i in e for e in prof.edges) for i in range(prof.n)]

    def test_generalized_laplacian_predicate(self):
        rng = np.random.default_rng(67)
        for prof in graph_profiles():
            n = prof.n
            L = laplacian(prof)
            candidates = [L, L + np.diag(rng.uniform(-2.0, 2.0, size=n))]
            gaps = [(i, j) for i in range(n) for j in range(i + 1, n)
                    if (i, j) not in prof.edges]
            if prof.edges:
                i, j = min(prof.edges)
                for value in (0.0, 0.5, np.nan):
                    M = L.copy()
                    M[i, j] = M[j, i] = value
                    candidates.append(M)
            if gaps:
                i, j = gaps[-1]
                for value in (-0.5, -0.0, 1e-300):
                    M = L.copy()
                    M[i, j] = M[j, i] = value
                    candidates.append(M)
                # asymmetric within 1e-12, below the diagonal only
                M = L.copy()
                M[j, i] = 5e-13
                candidates.append(M)
            for M in candidates:
                assert is_generalized_laplacian(M, prof) == oracle_is_generalized_laplacian(M, prof)


def random_graph(rng, n: int) -> Profile:
    """Edge probability drawn per graph, so sparse, disconnected and dense
    graphs all appear."""
    p = float(rng.uniform(0.0, 1.0))
    return Profile.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                  if rng.random() < p])


def random_connected_graph(rng, n: int) -> Profile:
    while True:
        prof = random_graph(rng, n)
        if prof.is_connected():
            return prof


def symmetric_test_matrices():
    """n = 1, zero, diagonal, repeated-eigenvalue, slightly asymmetric,
    Laplacian and random symmetric matrices up to n = 20, then one random
    symmetric and one Laplacian matrix at each n in {24, 32, 48, 64}."""
    rng = np.random.default_rng(71)
    yield from (np.array([[3.5]]), np.array([[0.0]]), np.array([[-2.0]]))
    yield from (np.zeros((4, 4)), np.eye(5), np.diag([3.0, -1.0, 0.0, 2.5, -7.0, 1e-3]))
    for n in (2, 3, 5, 8, 13):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = rng.choice([1.0, 2.0, 5.0], size=n)  # repeated eigenvalues
        yield (q * d) @ q.T
        yield laplacian(Profile.from_edges(n, [(i, j) for i in range(n)
                                               for j in range(i + 1, n)]))
    for _ in range(60):
        n = int(rng.integers(2, 21))
        M = rng.normal(size=(n, n)) * float(rng.uniform(0.1, 10.0))
        M = (M + M.T) / 2.0
        yield M
        yield M + rng.uniform(-1e-11, 1e-11, size=(n, n))  # within 1e-10 of symmetric
        yield laplacian(random_graph(rng, n))
    for n in (24, 32, 48, 64):
        M = rng.normal(size=(n, n))
        yield (M + M.T) / 2.0
        yield laplacian(random_graph(rng, n))


@functools.cache
def oracle_eigensystems() -> list:
    """(M, eigenvalues, eigenvectors) by ``oracle_eigh`` for every test
    matrix, solved once per session: the oracle takes about 0.3 s at n = 64."""
    return [(M, *oracle_eigh(M)) for M in symmetric_test_matrices()]


class TestFastRoutesMatchOracles:
    """Cheeger by subset doubling, Jacobi on Python-float row pairs and the
    variational samples drawn at once give the oracles' bits."""

    def test_cheeger_every_graph_up_to_6(self):
        for n in range(1, 7):
            for edges in all_graphs(n):
                prof = Profile.from_edges(n, edges)
                fast, slow = cheeger_constant(prof), oracle_cheeger_constant(prof)
                assert np.float64(fast).tobytes() == np.float64(slow).tobytes(), (n, edges)

    def test_cheeger_random_graphs_up_to_16(self):
        rng = np.random.default_rng(73)
        profiles = [Profile.from_edges(16, []),
                    Profile.from_edges(16, [(i, j) for i in range(16) for j in range(i + 1, 16)]),
                    Profile.from_edges(16, [(i, j) for i in range(16) for j in range(i + 1, 16)
                                            if (i < 8) == (j < 8)])]
        profiles += [random_graph(rng, int(rng.integers(7, 17))) for _ in range(30)]
        assert any(not prof.is_connected() for prof in profiles[3:])
        for prof in profiles:
            fast, slow = cheeger_constant(prof), oracle_cheeger_constant(prof)
            assert np.float64(fast).tobytes() == np.float64(slow).tobytes(), prof.edges

    def test_eigh(self):
        for M, w_oracle, V_oracle in oracle_eigensystems():
            w, V = eigh(M)
            assert w.tobytes() == w_oracle.tobytes(), M.shape
            assert V.tobytes() == V_oracle.tobytes(), M.shape

    def test_eigvalsh(self):
        # test_eigh holds eigh(M)[0] to the same bytes, so this equals it too
        for M, w_oracle, _ in oracle_eigensystems():
            assert eigvalsh(M).tobytes() == w_oracle.tobytes(), M.shape

    def test_eigh_sweep_limit_failure(self):
        rng = np.random.default_rng(79)
        for n, sweeps in ((16, 1), (20, 1), (9, 2)):
            M = rng.normal(size=(n, n))
            M = (M + M.T) / 2.0
            with pytest.raises(NumericalFailure) as slow:
                oracle_eigh(M, max_sweeps=sweeps)
            for solve in (eigh, eigvalsh):
                with pytest.raises(NumericalFailure) as fast:
                    solve(M, max_sweeps=sweeps)
                assert str(fast.value) == str(slow.value), solve.__name__
                assert fast.value.best.tobytes() == slow.value.best.tobytes(), solve.__name__
                assert fast.value.gap == slow.value.gap, solve.__name__

    def test_lambda2_chain_check(self):
        rng = np.random.default_rng(83)
        for k in range(24):
            n = int(rng.integers(2, 17))
            prof = random_connected_graph(rng, n)
            alpha = rng.uniform(0.0, 0.95, size=n)
            alpha[rng.random(n) < 0.3] = 0.0
            for samples in ((0, 1, 200, 1000)[k % 4], (1000, 200, 1, 0)[k % 4]):
                seed = int(rng.integers(2**32))
                fast = lambda2_chain_check(prof, alpha, samples=samples, seed=seed)
                slow = oracle_lambda2_chain_check(prof, alpha, samples=samples, seed=seed)
                assert json.dumps(fast) == json.dumps(slow), (n, samples, seed)


class TestSpectralInputs:
    @pytest.mark.parametrize("where, value", [
        ((0, 0), np.inf), ((1, 1), -np.inf), ((0, 0), np.nan), ((0, 1), np.nan), ((2, 1), np.inf)])
    def test_eigh_rejects_non_finite_entries(self, where, value):
        M = laplacian(p3())
        M[where] = value
        with pytest.raises(ValueError, match="finite"):
            eigh(M)
        with pytest.raises(ValueError, match="finite"):
            eigvalsh(M)

    def test_negative_sample_count_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            lambda2_chain_check(k2(), np.zeros(2), samples=-1)
        assert lambda2_chain_check(k2(), np.zeros(2), samples=0)["variational"]

    @pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf, 1.5])
    def test_update_factorization_rejects_invalid_stubbornness(self, bad):
        with pytest.raises(ConfigError):
            update_factorization(p3(), np.array([0.0, bad, 0.0]))
        with pytest.raises(ConfigError):
            lambda2_chain_check(p3(), np.array([0.0, bad, 0.0]))
