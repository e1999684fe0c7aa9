"""ADMM solver pieces: PCG, the m- and u-steps, edge operator, full denoise."""

import re
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from gtvdenoise.bipartite import RED, approximate_bipartite
from gtvdenoise.cloud import PointCloud, add_gaussian_noise, NoiseSpec
from gtvdenoise.errors import DegenerateCloudError, MissingLinearizationError
from gtvdenoise.graph import SpatialIndex, WeightedGraph, build_knn_graph
from gtvdenoise.metrics import evaluate
from gtvdenoise.normals import affine_normals
from gtvdenoise.synthetic import jittered_plane, rounded_box, sphere_with_spacing
from gtvdenoise.solver import (
    HALO_HOPS,
    DenoiseParams,
    DiagnosticsReport,
    _denoise_core,
    _window_layout,
    admm_denoise_partite,
    assemble_edge_operator,
    denoise,
    p_update,
    soft_threshold,
)
from gtvdenoise import solver


def window_layout(points, params):
    """The windows of a cloud, laid out on its k-NN graph as denoise does."""
    graph = build_knn_graph(points, params.k, params.sigma_p)
    return _window_layout(points, graph.adjacency, params)


def random_linearizations(n, seed):
    """Normal models (A, b) of n geometrically valid random triples."""
    rng = np.random.default_rng(seed)
    triples = []
    while len(triples) < n:
        p_i, p_k, p_l = rng.normal(size=(3, 3))
        if np.linalg.norm(np.cross(p_i - p_k, p_k - p_l)) > 1e-3:
            triples.append((p_i, p_k, p_l))
    _, _, _, A, b = affine_normals(*np.array(triples).transpose(1, 0, 2))
    return A, b


def random_instance(n_nodes, seed, gamma=0.05, rho=5.0):
    """Path-graph edge operator with random linearizations plus a noisy q."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n_nodes - 1)
    graph = WeightedGraph(n_nodes, idx, idx + 1, rng.uniform(0.3, 1.0, n_nodes - 1))
    op = assemble_edge_operator(graph, *random_linearizations(n_nodes, seed + 1), rho)
    q = rng.normal(size=3 * n_nodes)
    return graph, op, q


def dense_reference(graph, A, b):
    """Dense stacked form m = B p + v: edge e's rows hold [A_i, -A_j] and b_i - b_j."""
    B = np.zeros((3 * graph.edge_count, 3 * graph.node_count))
    for e, (i, j) in enumerate(zip(graph.ei, graph.ej)):
        B[3 * e:3 * e + 3, 3 * i:3 * i + 3] = A[i]
        B[3 * e:3 * e + 3, 3 * j:3 * j + 3] = -A[j]
    return B, (b[graph.ei] - b[graph.ej]).ravel()


class TestDenoiseParams:
    def test_defaults_valid(self):
        p = DenoiseParams()
        assert p.gamma == 0.05 and p.rho == 5.0 and p.k == 8

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DenoiseParams(gamma=-0.1)
        with pytest.raises(ValueError):
            DenoiseParams(rho=0.0)
        with pytest.raises(ValueError):
            DenoiseParams(k=0)
        with pytest.raises(ValueError):
            DenoiseParams(admm_max_iter=0)
        with pytest.raises(ValueError):
            DenoiseParams(collinearity_tol=-1e-8)
        for name, value in (("k", 8.5), ("k", True), ("outer_max_iter", 2.5),
                            ("admm_max_iter", 10.5), ("window_budget", 30.5)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                DenoiseParams(**{name: value})
        for name in ("gamma", "rho", "sigma_p", "admm_tol", "collinearity_tol"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    DenoiseParams(**{name: value})

    def test_as_dict_roundtrip(self):
        p = DenoiseParams(gamma=0.1, admm_tol=1e-4)
        q = DenoiseParams(**p.as_dict())
        assert q == p


class TestSoftThreshold:
    def test_scalar_cases(self):
        assert soft_threshold(3.0, 1.0) == 2.0
        assert soft_threshold(-3.0, 1.0) == -2.0
        assert soft_threshold(0.5, 1.0) == 0.0
        assert soft_threshold(-0.5, 1.0) == 0.0
        assert soft_threshold(2.0, 0.0) == 2.0

    def test_vector_tau(self):
        out = soft_threshold(np.array([3.0, -3.0, 0.2]), np.array([1.0, 2.0, 0.5]))
        np.testing.assert_allclose(out, [2.0, -1.0, 0.0])

    def test_equals_the_sign_times_shrunk_magnitude_formula(self):
        # m - clip(m, -tau, tau) against sign(m) max(|m| - tau, 0); zeros may
        # differ in sign only, which assert_array_equal does not see
        def reference(m, tau):
            return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)

        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.normal(scale=rng.uniform(1e-3, 1e3), size=200)
            tau = rng.uniform(0.0, 2.0, size=200) * np.abs(m).mean()
            np.testing.assert_array_equal(soft_threshold(m, tau), reference(m, tau))
            np.testing.assert_array_equal(soft_threshold(m, 0.0), reference(m, 0.0))
        edges = np.array([0.0, -0.0, 1.5, -1.5, 1.5000000000000002, -1.4999999999999998,
                          np.nan, np.inf, -np.inf, 1e308, -5e-324])
        for tau in (0.0, 1.5, 5e-324, 1e308, np.inf, np.nan):
            with np.errstate(invalid="ignore"):
                np.testing.assert_array_equal(soft_threshold(edges, tau),
                                              reference(edges, tau))
        assert soft_threshold(1.5, 1.5) == 0.0 and soft_threshold(-1.5, 1.5) == 0.0

    def test_prox_property(self):
        # soft(x, tau) minimizes 0.5 (y - x)^2 + tau |y|
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal() * 3
            tau = rng.uniform(0, 2)
            y_star = soft_threshold(x, tau)
            obj = lambda y: 0.5 * (y - x) ** 2 + tau * abs(y)
            for y in (y_star - 1e-4, y_star + 1e-4):
                assert obj(y_star) <= obj(y) + 1e-12


def test_edge_thresholds_repeat(monkeypatch):
    # the m-step's thresholds: gamma w_e / rho, once for each of edge e's 3 rows
    graph = WeightedGraph(3, [0, 1], [1, 2], [0.5, 1.0])
    A, b = random_linearizations(3, 5)
    q = np.random.default_rng(5).normal(size=9)
    params = DenoiseParams(gamma=1.0, rho=5.0, admm_max_iter=2)
    _, _, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params)
    for _, tau, _ in m_steps:
        np.testing.assert_allclose(tau, [0.1, 0.1, 0.1, 0.2, 0.2, 0.2])


class TestEdgeOperator:
    def test_matches_per_edge_differences(self):
        graph = WeightedGraph(4, [0, 1, 0], [1, 2, 3], [0.5, 0.5, 0.5])
        A, b = random_linearizations(4, seed=2)
        op = assemble_edge_operator(graph, A, b, 5.0)
        assert op.D.shape == (3, 4)
        p = np.random.default_rng(3).normal(size=12)
        got = op.differences(p)
        pos = p.reshape(4, 3)
        for e, (i, j) in enumerate(zip(graph.ei, graph.ej)):
            ni = A[i] @ pos[i] + b[i]
            nj = A[j] @ pos[j] + b[j]
            np.testing.assert_allclose(got[3 * e : 3 * e + 3], ni - nj, atol=1e-12)

    def test_adjoint_and_system_match_the_dense_reference(self):
        graph = WeightedGraph(5, [0, 1, 0, 2], [1, 2, 3, 4], [0.5, 0.5, 0.5, 0.5])
        A, b = random_linearizations(5, seed=7)
        rho = 3.0
        op = assemble_edge_operator(graph, A, b, rho)
        B, v = dense_reference(graph, A, b)
        rng = np.random.default_rng(8)
        p, y = rng.normal(size=15), rng.normal(size=12)
        np.testing.assert_allclose(op.differences(p), B @ p + v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.adjoint(y), B.T @ y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.system.toarray(), 2.0 * np.eye(15) + rho * B.T @ B,
                                   rtol=0, atol=1e-12)

    def test_edgeless_graph(self):
        graph = WeightedGraph(3, [], [], [])
        op = assemble_edge_operator(graph, *random_linearizations(3, 4), 5.0)
        assert op.D.shape == (0, 3) and op.differences(np.ones(9)).size == 0
        np.testing.assert_array_equal(op.adjoint(np.zeros(0)), np.zeros(9))
        np.testing.assert_array_equal(op.system.toarray(), 2.0 * np.eye(9))
        np.testing.assert_allclose(op.preconditioner.toarray(), 0.5 * np.eye(9))

    def test_count_mismatch_rejected(self):
        graph = WeightedGraph(3, [0], [1], [0.5])
        with pytest.raises(ValueError):
            assemble_edge_operator(graph, *random_linearizations(2, 5), 5.0)

    def test_missing_linearization_rejected(self):
        graph = WeightedGraph(3, [0], [1], [0.5])
        A, b = random_linearizations(3, 6)
        b[1, 2] = np.nan
        with pytest.raises(MissingLinearizationError) as info:
            assemble_edge_operator(graph, A, b, 5.0)
        assert info.value.node == 1


class TestPUpdate:
    def test_matches_dense_solve(self):
        # small instances against a direct solve of (2I + rho B'B) p = rhs
        for seed in range(20):
            n_nodes = int(np.random.default_rng(seed).integers(3, 11))
            graph, op, q = random_instance(n_nodes, seed)
            Bd, v = dense_reference(graph, op.A, op.b)
            rng = np.random.default_rng(seed + 100)
            m = rng.normal(size=v.size)
            u = rng.normal(size=v.size)
            rho = 5.0
            A = 2.0 * np.eye(Bd.shape[1]) + rho * Bd.T @ Bd
            rhs = 2.0 * q + rho * Bd.T @ (m - u - v)
            p, info = p_update(op, rhs, q, reduction=1e-12)
            direct = np.linalg.solve(A, rhs)
            assert info.converged
            rel = np.linalg.norm(p - direct) / np.linalg.norm(direct)
            assert rel < 1e-8

    def test_spd_lower_bound(self):
        # x' (2I + rho B'B) x >= 2 ||x||^2 for any B
        _, op, _ = random_instance(8, 42)
        A = op.system.toarray()
        rng = np.random.default_rng(43)
        for _ in range(50):
            x = rng.normal(size=A.shape[1])
            assert x @ A @ x >= 2.0 * (x @ x) - 1e-9

    def test_preconditioner_blocks_are_the_diagonal_blocks_of_the_system(self):
        graph, op, _ = random_instance(7, 20)
        A, b = random_linearizations(7, 21)
        rho = 5.0
        B, _ = dense_reference(graph, A, b)
        dense = 2.0 * np.eye(21) + rho * B.T @ B
        degree = np.diff(graph.adjacency.indptr)
        inverse = op.preconditioner.toarray()
        for i in range(7):
            block = dense[3 * i:3 * i + 3, 3 * i:3 * i + 3]
            np.testing.assert_allclose(
                block, 2.0 * np.eye(3) + rho * degree[i] * A[i].T @ A[i],
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(inverse[3 * i:3 * i + 3, 3 * i:3 * i + 3] @ block,
                                       np.eye(3), rtol=0, atol=1e-12)
        assert np.count_nonzero(inverse) <= 9 * 7

    def test_one_node_with_a_300x_gain_still_matches_the_dense_solve(self):
        # Unpreconditioned CG needed 67 iterations here; block Jacobi takes 32.
        n = 40
        graph, _, q = random_instance(n, 0)
        A, b = random_linearizations(n, 1)
        A[n // 2] *= 300.0
        op = assemble_edge_operator(graph, A, b, 5.0)
        Bd, v = dense_reference(graph, A, b)
        rng = np.random.default_rng(100)
        m = rng.normal(size=v.size)
        u = rng.normal(size=v.size)
        # the 300x gain makes the residual at q about 300x ||rhs||, so
        # matching the dense solve to 1e-8 takes a 1e-12 reduction of it
        rhs = 2.0 * q + 5.0 * Bd.T @ (m - u - v)
        p, info = p_update(op, rhs, q, reduction=1e-12)
        direct = np.linalg.solve(2.0 * np.eye(3 * n) + 5.0 * Bd.T @ Bd, rhs)
        assert info.converged and info.iterations <= 40
        assert np.linalg.norm(p - direct) / np.linalg.norm(direct) < 1e-8

    def test_steps_at_the_cap_are_counted_not_warned(self, monkeypatch):
        # the cap is reported once per run, in the .diag count (and the CLI's
        # warning line), not by a warning per p-step
        graph, op, q = random_instance(10, 9)
        monkeypatch.setattr(solver, "CG_MAX_ITER", 1)
        # the right-hand side at m = u = 0
        rhs = 2.0 * q - 5.0 * op.adjoint(op.differences(np.zeros(30)))
        p, info = p_update(op, rhs, q, reduction=1e-14)
        assert not info.converged and info.iterations == 1
        assert np.all(np.isfinite(p))
        diag = DiagnosticsReport()
        params = DenoiseParams(gamma=0.5, admm_max_iter=5, admm_tol=1e-12)
        admm_denoise_partite(q, graph, op.A, op.b, params, label="x", collector=diag)
        assert 0 < diag.meta["cg_steps_at_cap"] <= diag.meta["cg_iterations"] <= len(diag.rows)


def record_admm_steps(monkeypatch, graph, A, b, q, params, collector=None, p_calls=None):
    """Run one ADMM solve; return its p-step outputs and (c, tau, m) m-steps.

    p_calls, if given, receives one (args, kwargs, p, info) per p-step.
    """
    p_steps, m_steps = [], []

    def p_step(*args, **kwargs):
        p, info = p_update(*args, **kwargs)
        p_steps.append(p.copy())
        if p_calls is not None:
            p_calls.append((args, kwargs, p.copy(), info))
        return p, info

    def m_step(c, tau):
        m = soft_threshold(c, tau)
        m_steps.append((np.array(c), np.array(tau), np.array(m)))
        return m

    with monkeypatch.context() as patch:
        patch.setattr(solver, "p_update", p_step)
        patch.setattr(solver, "soft_threshold", m_step)
        out = admm_denoise_partite(q, graph, A, b, params, collector=collector)
    return out, p_steps, m_steps


class TestMUpdate:
    def test_fixed_point_matches_closed_form(self, monkeypatch):
        # every m-step is soft(B p + v + u, gamma w / rho) at the new p
        rho, gamma = 5.0, 0.5
        params = DenoiseParams(gamma=gamma, rho=rho, admm_max_iter=20, admm_tol=1e-9)
        for seed in range(10):
            graph, _, q = random_instance(6, seed + 200)
            A, b = random_linearizations(6, seed + 201)
            B, v = dense_reference(graph, A, b)
            _, p_steps, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params)
            assert len(m_steps) == len(p_steps) >= 2
            u = np.zeros(v.size)
            for p, (c, tau, m) in zip(p_steps, m_steps):
                z = B @ p + v
                np.testing.assert_array_equal(tau, np.repeat(gamma / rho * graph.w, 3))
                np.testing.assert_allclose(c, z + u, atol=1e-12)
                np.testing.assert_array_equal(m, soft_threshold(c, tau))
                u = u + (z - m)

    def test_empty_edge_set(self, monkeypatch):
        graph = WeightedGraph(3, [], [], [])
        A, b = random_linearizations(3, 10)
        q = np.random.default_rng(10).normal(size=9)
        out, _, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, DenoiseParams())
        np.testing.assert_array_equal(out, q)
        assert len(m_steps) == 1 and m_steps[0][2].size == 0


def test_u_update_formula(monkeypatch):
    # scaled dual ascent: the m-step input is B p + v + u with
    # u_k = u_{k-1} + (B p_{k-1} + v - m_{k-1}) and u_0 = 0
    graph, _, q = random_instance(5, 11)
    A, b = random_linearizations(5, 12)
    B, v = dense_reference(graph, A, b)
    params = DenoiseParams(gamma=0.2, admm_max_iter=15, admm_tol=1e-12)
    _, p_steps, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params)
    u = np.zeros(v.size)
    for p, (c, _, m) in zip(p_steps, m_steps):
        z = B @ p + v
        np.testing.assert_allclose(c - z, u, atol=1e-12)
        u = u + (z - m)
    assert np.any(u != 0)


class TestDualResidual:
    def test_recorded_value_matches_the_scaled_dual_formula(self, monkeypatch):
        # dual_k = ||A'D'(m_k - m_{k-1})|| / ||A'D' u_k|| with m_0 = D (A q + b),
        # where A'D' is the transpose B' of the dense stacked operator
        graph, _, q = random_instance(5, 11)
        A, b = random_linearizations(5, 12)
        B, v = dense_reference(graph, A, b)
        params = DenoiseParams(gamma=0.2, admm_max_iter=15, admm_tol=1e-12)
        diag = DiagnosticsReport()
        _, p_steps, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params, diag)
        assert len(diag.rows) == len(m_steps) >= 3
        m_prev, u = B @ q + v, np.zeros(v.size)
        for row, p, (_, _, m) in zip(diag.rows, p_steps, m_steps):
            u = u + (B @ p + v - m)
            expect = (np.linalg.norm(B.T @ (m - m_prev))
                      / np.linalg.norm(B.T @ u))
            assert row[6] == pytest.approx(expect, rel=1e-12)
            m_prev = m

    @pytest.mark.parametrize("gamma", [0.2, 1.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_recorded_value_holds_over_long_passes(self, seed, gamma, monkeypatch):
        # A^T D^T u_k is read off each p-step's residual, not summed, so the
        # recorded value stays on the dense formula over hundreds of
        # iterations; 8 of these 12 passes run past 150 (3 stop at iteration
        # 2 on a primal residual at rounding level, as in the test below)
        graph, _, q = random_instance(12, seed + 11)
        A, b = random_linearizations(12, seed + 12)
        B, v = dense_reference(graph, A, b)
        params = DenoiseParams(gamma=gamma, admm_max_iter=300, admm_tol=1e-15)
        diag = DiagnosticsReport()
        _, p_steps, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params, diag)
        assert len(diag.rows) == len(m_steps) >= 2
        m_prev, u = B @ q + v, np.zeros(v.size)
        for row, p, (_, _, m) in zip(diag.rows, p_steps, m_steps):
            u = u + (B @ p + v - m)
            expect = (np.linalg.norm(B.T @ (m - m_prev))
                      / np.linalg.norm(B.T @ u))
            assert row[6] == pytest.approx(expect, rel=1e-10)
            m_prev = m

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_primal_residual_can_hide_a_large_dual_residual(self, seed,
                                                                 monkeypatch):
        # With exact p-steps, the primal-only stopping rule ends these solves
        # at iteration 2 with a primal residual at rounding level, short of
        # the optimum; the dual residual shows it. This pins today's solver
        # state at rho 5: the early stop, not the exact zero it reads on some
        # seeds, is what the test is about.
        graph, _, q = random_instance(6, seed + 200)
        A, b = random_linearizations(6, seed + 201)
        params = DenoiseParams(gamma=0.05, rho=5.0, admm_tol=1e-9)
        diag = DiagnosticsReport()
        monkeypatch.setattr(solver, "p_update", lambda *args, **kwargs: p_update(
            *args, **{**kwargs, "reduction": 1e-12}))
        admm_denoise_partite(q, graph, A, b, params, label="x", collector=diag)
        final = diag.rows[-1]
        assert final[1] == 2
        assert final[2] <= np.finfo(float).eps
        assert final[6] > params.admm_tol


def test_recorded_gtv_and_objective_match_their_definitions(monkeypatch):
    # each row's gtv is sum_e w_e ||n_i - n_j||_1 of the normals n = A p + b
    # at that iteration's p, and its objective ||q - p||^2 + gamma gtv
    graph, _, q = random_instance(5, 13)
    A, b = random_linearizations(5, 14)
    params = DenoiseParams(gamma=0.2, admm_max_iter=15, admm_tol=1e-12)
    diag = DiagnosticsReport()
    _, p_steps, _ = record_admm_steps(monkeypatch, graph, A, b, q, params, diag)
    assert len(diag.rows) == len(p_steps) >= 3
    for row, p in zip(diag.rows, p_steps):
        normals = [A[i] @ p[3 * i:3 * i + 3] + b[i] for i in range(graph.node_count)]
        gtv = sum(w * np.sum(np.abs(normals[i] - normals[j]))
                  for i, j, w in zip(graph.ei, graph.ej, graph.w))
        assert row[4] == pytest.approx(gtv, rel=1e-12)
        assert row[3] == pytest.approx(np.sum((q - p) ** 2) + params.gamma * gtv, rel=1e-12)


class TestCarriedState:
    """The loop carries A^T D^T m and each CG start residual across p-steps."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_p_step_meets_its_target_for_the_rhs_rebuilt_from_scratch(
            self, seed, monkeypatch):
        # The p-step k solves 2 q + rho B'(m_{k-1} - u_{k-1} - v) from p_{k-1};
        # its true residual against that right-hand side, rebuilt here from
        # the recorded m- and u-steps, meets the CG target of a fresh start.
        graph, _, q = random_instance(12, seed + 300)
        A, b = random_linearizations(12, seed + 301)
        B, v = dense_reference(graph, A, b)
        rho = 5.0
        system = 2.0 * np.eye(q.size) + rho * B.T @ B
        params = DenoiseParams(gamma=1.0, rho=rho, admm_max_iter=200, admm_tol=1e-15)
        calls = []
        _, _, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params, p_calls=calls)
        assert len(calls) >= 150
        assert sum(info.iterations for *_, info in calls) > 200
        p_prev, m, u = q, B @ q + v, np.zeros(v.size)
        for (_, kwargs, p, info), (_, _, m_next) in zip(calls, m_steps):
            rhs = 2.0 * q + rho * B.T @ (m - u - v)
            r0 = np.linalg.norm(rhs - system @ p_prev)
            residual = rhs - system @ p
            target = max(kwargs["reduction"] * r0, 1e-12 * np.linalg.norm(rhs))
            assert info.converged
            assert np.linalg.norm(residual) <= target * (1.0 + 1e-9)
            # the residual the step carries out is the true one, to rounding
            np.testing.assert_allclose(info.residual, residual, rtol=0,
                                       atol=1e-12 * np.linalg.norm(rhs))
            z = B @ p + v
            p_prev, m, u = p, m_next, u + (z - m_next)

    def test_one_adjoint_per_iteration_and_one_system_product_per_cg_iteration(
            self, monkeypatch):
        # Counts per p-step: one system product per CG iteration, plus the
        # true residual it is accepted on. A pass's first step also computes
        # its start residual.
        counts = {"adjoint": 0, "system": 0}

        class CountingSystem:
            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, x):
                counts["system"] += 1
                return self.matrix @ x

        def counting_operator(*args):
            op = assemble_edge_operator(*args)
            adjoint = op.adjoint

            def counting_adjoint(y):
                counts["adjoint"] += 1
                return adjoint(y)

            op.adjoint = counting_adjoint
            op.system = CountingSystem(op.system)
            return op

        steps = []

        def counting_p_update(*args, **kwargs):
            before = dict(counts)
            p, info = p_update(*args, **kwargs)
            steps.append((before, dict(counts), args[3] is None, info))
            return p, info

        monkeypatch.setattr(solver, "assemble_edge_operator", counting_operator)
        monkeypatch.setattr(solver, "p_update", counting_p_update)
        for seed, gamma in ((400, 1.0), (401, 0.5), (402, 2.0)):
            graph, _, q = random_instance(15, seed)
            A, b = random_linearizations(15, seed + 1)
            params = DenoiseParams(gamma=gamma, admm_max_iter=60, admm_tol=1e-12)
            start = dict(counts)
            steps.clear()
            admm_denoise_partite(q, graph, A, b, params)
            # two adjoints build the first right-hand side (A^T D^T m and
            # A^T D^T D b), one follows each iteration's m-step, and A^T D^T u
            # is read off the p-step's residual; none happens inside a p-step
            assert [after["adjoint"] - before["adjoint"] for before, after, *_ in steps] \
                == [0] * len(steps)
            assert [before["adjoint"] for before, *_ in steps] == \
                [start["adjoint"] + 2 + k for k in range(len(steps))]
            assert counts["adjoint"] == start["adjoint"] + 2 + len(steps)
            first = [fresh for _, _, fresh, _ in steps]
            assert first == [True] + [False] * (len(steps) - 1)
            assert steps[0][3].iterations == 0      # p-step 1 starts at its solution
            for k, (before, after, _, info) in enumerate(steps):
                assert after["system"] - before["system"] == info.iterations + 1 + (k == 0)
            assert counts["system"] == start["system"] + 1 + sum(
                info.iterations + 1 for *_, info in steps)
            assert sum(info.iterations for *_, info in steps) > len(steps)

        # a fresh start pays its own start residual, also when it iterates
        graph, op, q = random_instance(15, 403)
        op = counting_operator(graph, op.A, op.b, 5.0)
        rhs = 2.0 * q + op.rho * op.adjoint(np.ones(3 * graph.edge_count))
        for r0, extra in ((None, 1), (rhs - op.system.matrix @ q, 0)):
            before = counts["system"]
            _, info = p_update(op, rhs, q, r0)
            assert info.converged and info.iterations > 0
            assert counts["system"] - before == info.iterations + 1 + extra


class TestAdmm:
    def test_gamma_zero_returns_q(self):
        graph, op, q = random_instance(8, 13)
        A, b = random_linearizations(8, 14)
        params = DenoiseParams(gamma=0.0, admm_max_iter=50)
        out = admm_denoise_partite(q, graph, A, b, params)
        np.testing.assert_array_equal(out, q)

    def test_matches_convex_reference(self):
        # gamma large enough that the soft threshold clamps some components;
        # that is the operating regime and keeps the primal residual a
        # faithful convergence signal
        cp = pytest.importorskip("cvxpy")
        graph, op, q = random_instance(10, 15)
        gamma = 0.5
        params = DenoiseParams(
            gamma=gamma, rho=5.0,
            admm_tol=1e-10, admm_max_iter=6000,
        )
        A, b = random_linearizations(10, 16)
        got = admm_denoise_partite(q, graph, A, b, params)
        B, v = dense_reference(graph, A, b)
        w3 = np.repeat(graph.w, 3)

        p_var = cp.Variable(q.size)
        objective = cp.Minimize(
            cp.sum_squares(q - p_var)
            + gamma * cp.sum(cp.multiply(w3, cp.abs(B @ p_var + v)))
        )
        problem = cp.Problem(objective)
        problem.solve()

        def obj(p):
            return float(np.sum((q - p) ** 2) + gamma * (w3 @ np.abs(B @ p + v)))

        assert abs(obj(got) - problem.value) / abs(problem.value) < 1e-7

    def test_matches_the_offline_dual_optimum(self):
        # The same instance as the cvxpy test, against an optimum certified
        # without cvxpy: L-BFGS-B maximizes the box dual
        #   g(y) = y'c - 1/4 ||B'y||^2,  |y| <= gamma w,  c = B q + v,
        # whose maximizer gives the primal p = q - 1/2 B'y. Weak duality
        # puts the optimum f* in [g(y), f(p)].
        from scipy.optimize import minimize

        graph, op, q = random_instance(10, 15)
        gamma = 0.5
        params = DenoiseParams(gamma=gamma, rho=5.0, admm_tol=1e-10, admm_max_iter=6000)
        A, b = random_linearizations(10, 16)
        got = admm_denoise_partite(q, graph, A, b, params)
        B, v = dense_reference(graph, A, b)
        w3 = np.repeat(graph.w, 3)
        c = B @ q + v

        def objective(p):
            return float(np.sum((q - p) ** 2) + gamma * (w3 @ np.abs(B @ p + v)))

        def negative_dual(y):
            By = B.T @ y
            return -(y @ c - 0.25 * By @ By), -(c - 0.5 * B @ By)

        box = gamma * w3
        result = minimize(negative_dual, np.zeros(c.size), jac=True, method="L-BFGS-B",
                          bounds=list(zip(-box, box)),
                          options=dict(maxiter=10000, ftol=1e-16, gtol=1e-14))
        y = result.x
        lower = -negative_dual(y)[0]
        upper = objective(q - 0.5 * B.T @ y)
        gap = upper - lower
        assert gap >= 0.0
        assert gap <= 1e-9 * abs(lower)
        assert abs(objective(got) - lower) / abs(lower) < 1e-7

    def test_residual_drops_below_initial(self):
        graph, op, q = random_instance(12, 17)
        A, b = random_linearizations(12, 18)
        diag = DiagnosticsReport()
        params = DenoiseParams(admm_tol=1e-7, admm_max_iter=500)
        admm_denoise_partite(q, graph, A, b, params, label="x", collector=diag)
        res = [row[2] for row in diag.rows]
        assert len(res) >= 2
        assert res[-1] < res[0]
        assert res[-1] <= params.admm_tol


class TestDenoiseEndToEnd:
    def _noisy_plane(self, n_side=9, sigma=0.05, seed=1):
        xs, ys = np.meshgrid(np.arange(n_side), np.arange(n_side), indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(n_side * n_side)])
        clean = PointCloud(pts.astype(float))
        return clean, add_gaussian_noise(clean, NoiseSpec(sigma=sigma, seed=seed))

    def test_reduces_plane_roughness(self):
        clean, noisy = self._noisy_plane()
        params = DenoiseParams(outer_max_iter=3, admm_max_iter=300, admm_tol=1e-4,
                               collinearity_tol=0.05)
        out, diag = denoise(noisy, params)
        rms = lambda c: np.sqrt(np.mean(c.positions[:, 2] ** 2))
        assert rms(out) < rms(noisy)
        assert diag.meta["points"] == clean.n
        assert diag.meta["red_nodes"] + diag.meta["blue_nodes"] == clean.n
        assert len(diag.rows) > 0
        assert diag.final_rows()[0][0] == "outer1:red"

    @pytest.mark.parametrize("window_budget", [20000, 200], ids=["direct", "windowed"])
    def test_stage_timers_cover_the_run(self, window_budget):
        _, noisy = self._noisy_plane(n_side=16)
        params = DenoiseParams(outer_max_iter=2, admm_max_iter=20,
                               collinearity_tol=0.05, window_budget=window_budget)
        _, diag = denoise(noisy, params)
        seconds = [diag.meta[key] for key in solver.STAGE_KEYS]
        assert list(solver.STAGE_KEYS) == ["seconds_graph", "seconds_bipartition",
                                           "seconds_normals", "seconds_admm"]
        assert all(s >= 0 for s in seconds)
        assert sum(seconds) <= diag.meta["seconds_total"]
        assert diag.meta["seconds_admm"] > 0
        # one bipartition of the whole cloud, windowed or not
        assert diag.meta["bipartition_levels"] >= 1
        assert diag.meta["red_nodes"] + diag.meta["blue_nodes"] == noisy.n

    @pytest.mark.parametrize("window_budget", [20000, 200], ids=["direct", "windowed"])
    def test_readme_documents_every_diag_key(self, window_budget):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        _, noisy = self._noisy_plane(n_side=16)
        _, diag = denoise(noisy, DenoiseParams(outer_max_iter=1, admm_max_iter=5,
                                               window_budget=window_budget))
        assert ("windows" in diag.meta) == (window_budget < noisy.n)
        keys = {"param_*" if key.startswith("param_") else key for key in diag.meta}
        assert sorted(key for key in keys if f"`{key}`" not in readme) == []
        # and no stage timer is documented that the run does not record
        assert set(re.findall(r"`(seconds_\w+)`", readme)) <= set(diag.meta)

    def test_gamma_zero_identity(self):
        _, noisy = self._noisy_plane()
        out, _ = denoise(noisy, DenoiseParams(gamma=0.0, outer_max_iter=2))
        np.testing.assert_array_equal(out.positions, noisy.positions)

    def test_gamma_zero_stops_after_one_pass(self):
        # a pass that moved nothing ends the run, whatever outer_max_iter says
        _, noisy = self._noisy_plane()
        _, diag = denoise(noisy, DenoiseParams(gamma=0.0))
        assert diag.outer_changes == [("1", 0.0)]

    def test_converge_mode_plane_meets_admm_tol_in_every_pass(self):
        # With CG cutting each warm-start residual by 0.1 throughout, pass
        # outer2:red of this plane stopped at the 1500-iteration cap at primal
        # 1.86e-4; a 0.03 cut near admm_tol ends it in a few hundred.
        clean = jittered_plane(30, 30, 0.7, jitter=0.1, seed=17).positions
        noise = np.random.Generator(np.random.PCG64([17, 1])).standard_normal(clean.shape)
        params = DenoiseParams(outer_max_iter=3, admm_max_iter=1500, admm_tol=1e-4,
                               collinearity_tol=0.05)
        _, diag = denoise(PointCloud(clean + 0.1 * noise), params)
        finals = diag.final_rows()
        assert len(finals) == 6
        assert all(res <= params.admm_tol for _, _, res, *_ in finals)

    def test_deterministic(self):
        _, noisy = self._noisy_plane()
        params = DenoiseParams(outer_max_iter=2, admm_max_iter=100, admm_tol=1e-4)
        a, _ = denoise(noisy, params)
        b, _ = denoise(noisy, params)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_translated_cloud_denoises_like_the_original(self):
        # The p-step's right-hand side grows with the coordinates; when CG
        # stopped relative to it, this sphere shifted by 1000 came back
        # unchanged (ratio 1.000) without centring, while exiting cleanly.
        clean = sphere_with_spacing(600, 0.7)
        radius = float(np.mean(np.linalg.norm(clean.positions, axis=1)))
        noisy = add_gaussian_noise(clean, NoiseSpec(sigma=0.1, seed=1)).positions
        shift = np.array([1000.0, -1000.0, 1000.0])
        params = DenoiseParams(outer_max_iter=2)

        def ratio(points):
            off = lambda x: np.sqrt(np.mean((np.linalg.norm(x, axis=1) - radius) ** 2))
            return off(points) / off(noisy)

        direct, _ = denoise(PointCloud(noisy), params)
        shifted, _ = denoise(PointCloud(noisy + shift), params)
        assert ratio(direct.positions) < 0.9
        assert abs(ratio(shifted.positions - shift) - ratio(direct.positions)) <= 0.01

    def test_default_run_denoises_a_10k_sphere(self):
        # When CG stopped at cg_tol * ||rhs|| (default 1e-6), the right-hand
        # side of this sphere (radius 19.7) was large enough that p-steps
        # stopped after 0 iterations: ratio 0.902, exit 0, no warning.
        clean = sphere_with_spacing(10000, 0.7)
        radius = float(np.mean(np.linalg.norm(clean.positions, axis=1)))
        noisy = add_gaussian_noise(clean, NoiseSpec(0.1, 1)).positions
        out, _ = denoise(PointCloud(noisy))
        off = lambda x: np.sqrt(np.mean((np.linalg.norm(x, axis=1) - radius) ** 2))
        assert off(out.positions) / off(noisy) < 0.75

    def test_too_small_cloud_rejected(self):
        with pytest.raises(DegenerateCloudError):
            denoise(PointCloud(np.zeros((3, 3))), DenoiseParams())

    def test_windowed_solve_covers_all_points(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(0, 10, size=(300, 3))
        cloud = PointCloud(pts)
        params = DenoiseParams(outer_max_iter=1, admm_max_iter=30, admm_tol=1e-3,
                               window_budget=150, collinearity_tol=0.05)
        out, diag = denoise(cloud, params)
        assert diag.meta["windows"] >= 2
        assert 0 < diag.meta["windows_oversized"] <= diag.meta["windows"]
        assert np.all(np.isfinite(out.positions))
        assert out.n == 300

    def test_windowed_single_window_is_bit_identical_to_direct(self):
        # a cloud within the budget is one window: the core solve of the
        # whole cloud on its graph and bipartition, with unprefixed labels
        _, noisy = self._noisy_plane(n_side=7)
        params = DenoiseParams(outer_max_iter=2, admm_max_iter=100,
                               admm_tol=1e-4, collinearity_tol=0.05)
        assert params.window_budget >= noisy.n
        out, diag = denoise(noisy, params)
        pts = noisy.positions - noisy.positions.mean(axis=0)
        graph = build_knn_graph(pts, params.k, params.sigma_p)
        (core, members), = _window_layout(pts, graph.adjacency, params)
        np.testing.assert_array_equal(core, np.arange(noisy.n))
        np.testing.assert_array_equal(members, np.arange(noisy.n))
        bp = approximate_bipartite(graph)
        direct = _denoise_core(pts, graph, bp.assignment, params, DiagnosticsReport(),
                               label_prefix="")
        np.testing.assert_array_equal(out.positions, noisy.positions + (direct - pts))
        assert "windows" not in diag.meta
        assert diag.final_rows()[0][0] == "outer1:red"

    @pytest.mark.parametrize("window_budget", [20000, 500], ids=["direct", "windowed"])
    def test_one_graph_and_one_bipartition_per_cloud(self, monkeypatch, window_budget):
        # windows only split the passes: the k-NN graph and the bipartition
        # are built once, on all points, from node 0; the class graphs are
        # built with the normals, outside the solver module
        clean = rounded_box(800, 0.7, 2.0, seed=1)
        noisy = add_gaussian_noise(clean, NoiseSpec(sigma=0.1, seed=1))
        params = DenoiseParams(window_budget=window_budget, outer_max_iter=1,
                               admm_max_iter=5)
        graph_sizes, bipartitions = [], []

        def graph_spy(points, k, sigma_p):
            graph_sizes.append(len(points))
            return build_knn_graph(points, k, sigma_p)

        def bipartition_spy(graph, **kwargs):
            bp = approximate_bipartite(graph, **kwargs)
            bipartitions.append((graph.node_count, kwargs, bp.assignment[0]))
            return bp

        monkeypatch.setattr(solver, "build_knn_graph", graph_spy)
        monkeypatch.setattr(solver, "approximate_bipartite", bipartition_spy)
        out, diag = denoise(noisy, params)
        assert np.all(np.isfinite(out.positions))
        assert bipartitions == [(noisy.n, {}, RED)]
        assert graph_sizes == [noisy.n]
        assert diag.meta["red_nodes"] + diag.meta["blue_nodes"] == noisy.n
        assert diag.meta.get("windows", 1) == (1 if window_budget > noisy.n else 4)

    def test_window_cores_partition_and_halos_cover_the_hops(self):
        clean = rounded_box(800, 0.7, 2.0, seed=7)
        pts = add_gaussian_noise(clean, NoiseSpec(sigma=0.1, seed=7)).positions
        n = pts.shape[0]
        params = DenoiseParams(window_budget=500)
        windows = window_layout(pts, params)
        cores = np.concatenate([core for core, _ in windows])
        np.testing.assert_array_equal(np.sort(cores), np.arange(n))
        assert min(core.size for core, _ in windows) > 1
        assert max(members.size for _, members in windows) <= params.window_budget
        assert sum(members.size for _, members in windows) / n <= 2.5

        graph = build_knn_graph(pts, params.k, params.sigma_p)
        adjacency = csr_matrix((graph.w, (graph.ei, graph.ej)), shape=(n, n))
        hops = shortest_path(adjacency, directed=False, unweighted=True)
        for core, members in windows:
            near = np.flatnonzero(hops[core].min(axis=0) <= HALO_HOPS)
            assert np.all(np.isin(near, members))

    def test_tiny_budget_terminates_counts_oversized_and_covers_every_point(self):
        pts = np.random.default_rng(19).uniform(0, 10, size=(300, 3))
        params = DenoiseParams(outer_max_iter=1, admm_max_iter=30, admm_tol=1e-3,
                               window_budget=10, collinearity_tol=0.05)
        windows = window_layout(pts, params)
        assert len(windows) >= 2
        assert min(members.size for _, members in windows) > params.window_budget
        cores = np.concatenate([core for core, _ in windows])
        np.testing.assert_array_equal(np.sort(cores), np.arange(300))
        out, diag = denoise(PointCloud(pts), params)
        rerun, _ = denoise(PointCloud(pts), params)
        np.testing.assert_array_equal(out.positions, rerun.positions)
        assert diag.meta["windows_oversized"] == len(windows)
        assert np.all(np.isfinite(out.positions))
        moved = np.any(out.positions != pts, axis=1)
        assert moved.sum() >= 0.9 * 300

    def test_window_of_coincident_points_is_solved(self):
        # a window may hold only duplicates of one point; the cloud's graph
        # still links them, so the run needs no graph of its own there
        rng = np.random.default_rng(0)
        pts = np.vstack([np.zeros((20, 3)), rng.uniform(10, 20, size=(20, 3))])
        params = DenoiseParams(k=2, window_budget=12, outer_max_iter=1, admm_max_iter=5)
        out, diag = denoise(PointCloud(pts), params)
        assert diag.meta["windows"] > 1
        assert diag.meta["windows_oversized"] > 0
        assert np.all(np.isfinite(out.positions))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_windowed_seams_stay_close_to_the_direct_solve(self, seed):
        # Windowed and direct runs share one graph and one bipartition, so
        # the difference is the seams. Measured over seeds 1-7, as
        # RMS(windowed - direct) / sigma: 0.06-0.14 over all points and
        # 0.06-0.15 over seam points (a k-NN neighbor in another core);
        # without a halo the seam points read 0.35-0.43. Windowed c2p was
        # within -1 % .. +5 % of the direct solve's.
        sigma = 0.1
        clean = rounded_box(800, 0.7, 2.0, seed=seed)
        noisy = add_gaussian_noise(clean, NoiseSpec(sigma=sigma, seed=seed))
        # rho pinned at today's default, at which the bounds were measured
        base = dict(outer_max_iter=1, admm_max_iter=30, rho=5.0)
        params = DenoiseParams(window_budget=500, **base)
        direct, _ = denoise(noisy, DenoiseParams(**base))
        windowed, diag = denoise(noisy, params)
        windows = window_layout(noisy.positions, params)
        assert diag.meta["windows"] == len(windows) > 1

        owner = np.empty(noisy.n, dtype=np.int64)
        for w_idx, (core, _) in enumerate(windows):
            owner[core] = w_idx
        nbrs = SpatialIndex(noisy.positions).query_knn(
            noisy.positions, params.k, exclude_self=True)
        seam = np.any(owner[nbrs] != owner[:, None], axis=1)
        sq = np.sum((windowed.positions - direct.positions) ** 2, axis=1)
        assert np.sqrt(np.mean(sq)) / sigma <= 0.2
        assert np.sqrt(np.mean(sq[seam])) / sigma <= 0.2

        c2p_direct = evaluate(clean, direct).c2p_mean_sq.symmetric
        c2p_windowed = evaluate(clean, windowed).c2p_mean_sq.symmetric
        assert c2p_windowed <= 1.15 * c2p_direct
        assert c2p_windowed < evaluate(clean, noisy).c2p_mean_sq.symmetric


class TestDiagnosticsReport:
    def test_text_format_and_save(self, tmp_path):
        diag = DiagnosticsReport(meta={"points": 5})
        diag.rows.append(("outer1:red", 1, 0.5, 2.0, 1.0, 0.01, 0.125))
        diag.outer_changes.append(("1", 0.25))
        text = diag.to_text()
        assert text.startswith("# denoise diagnostics\npoints: 5\n")
        assert "outer_change_1: 0.25" in text
        assert "pass,iteration,primal_residual,objective,gtv,seconds,dual_residual\n" in text
        assert text.endswith("\nouter1:red,1,0.5,2,1,0.010000,0.125\n")
        path = tmp_path / "d.diag"
        diag.save(str(path))
        assert path.read_text() == text

    def test_final_rows_are_the_last_row_of_each_pass_in_pass_order(self):
        diag = DiagnosticsReport()
        diag.rows.append(("a", 1, 0.1, 1.0, 0.5, 0.0))
        diag.rows.append(("b", 1, 0.2, 1.0, 0.5, 0.0))
        diag.rows.append(("a", 2, 0.05, 0.9, 0.4, 0.0))
        assert diag.final_rows() == [("a", 2, 0.05, 0.9, 0.4, 0.0),
                                     ("b", 1, 0.2, 1.0, 0.5, 0.0)]
