"""End-to-end acceptance suite.

Each test checks one externally visible guarantee of the denoiser at its
documented operating point and emits a single PASS/FAIL line with the
measured numbers (see conftest.verdict). The assertions consume the same
booleans, so a FAIL line always belongs to a failing test.

The heavyweight denoising runs are shared between tests through
module-scoped fixtures:

- improvement_run: sigma=0.1 denoise of a ~3000-point sampling of a
  jittered plane, judged against a 16x denser clean sampling of the same
  surface. Error metrics use the test->reference direction; the
  reference->test direction only measures how sparsely the test cloud
  samples the surface and is blind to denoising quality.
- planar_run: the 500-point flat-cloud oracle at sigma=0.05.
- small_run: a 144-point cloud denoised twice with identical inputs, for
  the determinism and residual-health checks.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gtvdenoise.bipartite import DELTA, RED, approximate_bipartite
from gtvdenoise.cloud import NoiseSpec, PointCloud, add_gaussian_noise, load_cloud, save_cloud
from gtvdenoise.graph import WeightedGraph, build_knn_graph
from gtvdenoise.metrics import evaluate
from gtvdenoise.normals import affine_normals, estimate_normal_field
from gtvdenoise.solver import DenoiseParams, denoise, p_update
from gtvdenoise.synthetic import jittered_plane, sphere_with_spacing

from reference import induced_bipartite_graph, kld, laplacian
from test_bipartite import cycle_graph, grid_graph, path_graph, removed_intra_edges
from test_solver import (dense_reference, random_instance, random_linearizations,
                         record_admm_steps)

# Every pass runs until its primal residual reaches admm_tol, well short of
# the iteration cap.
SOLVER_KNOBS = dict(
    admm_max_iter=1500,
    admm_tol=1e-4,
    collinearity_tol=0.05,
)


@pytest.fixture(scope="module")
def improvement_run():
    dense = jittered_plane(220, 220, spacing=0.175, jitter=0.1, seed=99)
    sparse = jittered_plane(55, 55, spacing=0.7, jitter=0.1, seed=7)
    noisy = add_gaussian_noise(sparse, NoiseSpec(sigma=0.1, seed=5))
    params = DenoiseParams(outer_max_iter=5, **SOLVER_KNOBS)
    t0 = time.perf_counter()
    denoised, diag = denoise(noisy, params)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(
        dense=dense, noisy=noisy, denoised=denoised, diag=diag,
        seconds=seconds, params=params,
    )


@pytest.fixture(scope="module")
def planar_run():
    flat = jittered_plane(25, 20, spacing=0.7, jitter=0.1, seed=11)
    noisy = add_gaussian_noise(flat, NoiseSpec(sigma=0.05, seed=3))
    params = DenoiseParams(outer_max_iter=8, **SOLVER_KNOBS)
    t0 = time.perf_counter()
    denoised, diag = denoise(noisy, params)
    seconds = time.perf_counter() - t0
    return SimpleNamespace(
        noisy=noisy, denoised=denoised, diag=diag, seconds=seconds, params=params,
    )


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    flat = jittered_plane(12, 12, spacing=0.7, jitter=0.1, seed=21)
    noisy = add_gaussian_noise(flat, NoiseSpec(sigma=0.05, seed=6))
    params = DenoiseParams(outer_max_iter=2, **SOLVER_KNOBS)
    runs = []
    for tag in ("first", "second"):
        out, diag = denoise(noisy, params)
        path = tmp_path_factory.mktemp(tag) / "denoised.xyz"
        save_cloud(out, str(path))
        runs.append(SimpleNamespace(out=out, diag=diag, path=path))
    return SimpleNamespace(noisy=noisy, params=params, runs=runs)


def test_noise_injection_distance_lands_in_analytic_band(verdict):
    # mean 3D Gaussian displacement at sigma=0.1 is 0.1596; nearest-point
    # matching against a dense model pulls the cloud distance slightly under
    t0 = time.perf_counter()
    clean = sphere_with_spacing(2000, spacing=0.4)
    noisy = add_gaussian_noise(clean, NoiseSpec(sigma=0.1, seed=2))
    measured = [("sphere-2000", evaluate(clean, noisy).c2c_mean_dist.symmetric)]
    scan_path = os.environ.get("GTVDENOISE_SCAN")
    if scan_path:
        # optional real-scan hook, rescaled to the same density regime
        scan = load_cloud(scan_path)
        gap = float(np.mean(cKDTree(scan.positions).query(scan.positions, k=2)[0][:, 1]))
        scaled = PointCloud(scan.positions * (0.4 / gap))
        noisy_scan = add_gaussian_noise(scaled, NoiseSpec(sigma=0.1, seed=2))
        measured.append((os.path.basename(scan_path),
                         evaluate(scaled, noisy_scan).c2c_mean_dist.symmetric))
    seconds = time.perf_counter() - t0
    ok = seconds < 10.0 and all(0.145 <= v <= 0.160 for _, v in measured)
    detail = ", ".join(f"{name} c2c {v:.4f}" for name, v in measured)
    assert verdict(ok, "noise distance in [0.145, 0.160]", f"{detail}; {seconds:.1f}s < 10s")


def test_denoising_improves_both_error_metrics_on_subsampled_model(verdict, improvement_run):
    r = improvement_run
    denoised, noisy = evaluate(r.dense, r.denoised), evaluate(r.dense, r.noisy)
    c2c_ratio = denoised.c2c_mean_dist.backward / noisy.c2c_mean_dist.backward
    c2p_ratio = denoised.c2p_mean_sq.backward / noisy.c2p_mean_sq.backward
    ok = c2p_ratio <= 0.70 and c2c_ratio <= 0.90 and r.seconds < 120.0
    assert verdict(
        ok,
        "denoising improvement vs dense reference",
        f"c2c ratio {c2c_ratio:.3f} <= 0.90, c2p ratio {c2p_ratio:.3f} <= 0.70, "
        f"{r.seconds:.0f}s < 120s",
    )


def test_flat_cloud_flattens_and_normals_realign(verdict, planar_run):
    r = planar_run
    rms = lambda cloud: float(np.sqrt(np.mean(cloud.positions[:, 2] ** 2)))
    ratio = rms(r.denoised) / rms(r.noisy)
    graph = build_knn_graph(r.denoised.positions, k=r.params.k, sigma_p=r.params.sigma_p)
    assign = approximate_bipartite(graph).assignment
    # measurement uses a stricter conditioning cutoff than the solver:
    # near-sliver support triples the solver tolerated would turn leftover
    # jitter into wildly tilted normals and say nothing about alignment
    field, failed = estimate_normal_field(
        r.denoised.positions, graph, assign, RED, r.params.k, r.params.sigma_p, tol=0.2
    )
    angles = np.degrees(np.arccos(np.clip(np.abs(field.normals[:, 2]), 0.0, 1.0)))
    aligned = float(np.mean(angles <= 10.0))
    ok = ratio <= 0.5 and aligned >= 0.95 and not failed and r.seconds < 30.0
    assert verdict(
        ok,
        "flat cloud flattens and normals realign",
        f"rms ratio {ratio:.3f} <= 0.5, {aligned:.1%} of red normals within 10deg "
        f"of +-z (>= 95%), {r.seconds:.0f}s < 30s",
    )


def test_admm_m_step_satisfies_l1_optimality(verdict, monkeypatch):
    # m minimizes gamma w |m| + rho/2 (c - m)^2 componentwise exactly when
    # rho (c - m) is in gamma w d|m|: c - m = tau sign(m) where m != 0 and
    # |c| <= tau where m == 0, with tau = gamma w / rho
    rho, gamma = 5.0, 0.5
    params = DenoiseParams(gamma=gamma, rho=rho, admm_max_iter=30, admm_tol=1e-9)
    worst = 0.0
    steps = clamped = 0
    thresholds_ok = True
    for seed in range(100):
        graph, _, q = random_instance(6, seed)
        A, b = random_linearizations(6, seed + 1000)
        _, _, m_steps = record_admm_steps(monkeypatch, graph, A, b, q, params)
        for c, tau, m in m_steps:
            thresholds_ok &= np.array_equal(tau, np.repeat(gamma / rho * graph.w, 3))
            zero = m == 0
            violation = np.where(zero, np.abs(c) - tau, np.abs(c - m - tau * np.sign(m)))
            worst = max(worst, float(np.max(violation, initial=0.0)))
            clamped += int(zero.sum())
            steps += 1
    ok = thresholds_ok and worst <= 1e-12 and clamped > 0
    assert verdict(
        ok,
        "ADMM m-step satisfies the l1 optimality condition",
        f"100 instances, {steps} m-steps ({clamped} components clamped to 0), "
        f"thresholds gamma w / rho: {thresholds_ok}, worst violation {worst:.2e} <= 1e-12",
    )


def test_position_update_agrees_with_dense_solve_and_system_is_spd(verdict):
    rho = 5.0
    worst_rel = 0.0
    min_curvature = np.inf
    all_converged = True
    for seed in range(20):
        n_nodes = int(np.random.default_rng(seed).integers(3, 11))  # <= 30 unknowns
        graph, op, q = random_instance(n_nodes, seed, rho=rho)
        Bd, v = dense_reference(graph, op.A, op.b)
        rng = np.random.default_rng(seed + 500)
        m = rng.normal(size=v.size)
        u = rng.normal(size=v.size)
        A = 2.0 * np.eye(Bd.shape[1]) + rho * Bd.T @ Bd
        rhs = 2.0 * q + rho * Bd.T @ (m - u - v)
        p, info = p_update(op, rhs, q, reduction=1e-12)
        all_converged &= info.converged
        direct = np.linalg.solve(A, rhs)
        worst_rel = max(worst_rel, float(np.linalg.norm(p - direct) / np.linalg.norm(direct)))
        for x in rng.normal(size=(10, Bd.shape[1])):
            min_curvature = min(min_curvature, float(x @ A @ x) / float(x @ x))
    ok = all_converged and worst_rel <= 1e-8 and min_curvature >= 2.0 * (1.0 - 1e-12)
    assert verdict(
        ok,
        "position update matches dense solve on an SPD system",
        f"20 instances, worst relative error {worst_rel:.2e} <= 1e-8, "
        f"min x'Ax/|x|^2 = {min_curvature:.6f} >= 2",
    )


def test_normal_linear_form_reproduces_cross_product(verdict):
    rng = np.random.default_rng(1)
    p_i, p_k, p_l = rng.normal(size=(3, 2000, 3))
    direct = np.cross(p_i - p_k, p_k - p_l)
    keep = np.flatnonzero(np.linalg.norm(direct, axis=1) > 1e-3)[:1000]  # skip near-degenerate
    p_i, p_k, p_l, direct = p_i[keep], p_k[keep], p_l[keep], direct[keep]
    count = keep.size
    _, C, d, _, _ = affine_normals(p_i, p_k, p_l)
    worst = float(np.max(np.abs(np.einsum("nij,nj->ni", C, p_i) + d - direct)))
    ok = worst <= 1e-12 and count == 1000
    assert verdict(
        ok,
        "affine normal form reproduces the cross product",
        f"{count} random triples, worst |difference| {worst:.2e} <= 1e-12",
    )


def test_two_coloring_recovery_and_divergence_sanity(verdict):
    recovery_klds = []
    zero_removed = True
    observed = []
    for graph in (path_graph(6), path_graph(11), cycle_graph(8), cycle_graph(12),
                  grid_graph(4, 5)):
        bp = approximate_bipartite(graph)
        zero_removed &= removed_intra_edges(graph, bp) == 0
        final = kld(laplacian(graph), laplacian(induced_bipartite_graph(graph, bp)), DELTA)
        recovery_klds.append(final)
        # every scored decision; the seed, first, is not scored
        observed.extend(bp.d_red[1:].tolist() + bp.d_blue[1:].tolist())
    triangle = WeightedGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 1.0])
    one_removed = removed_intra_edges(triangle, approximate_bipartite(triangle)) == 1
    L = laplacian(path_graph(5))
    self_kld = kld(L, L, DELTA)
    observed.extend(recovery_klds)
    observed.append(self_kld)
    ok = (
        zero_removed
        and one_removed
        and max(recovery_klds) <= 1e-9
        and abs(self_kld) <= 1e-9
        and min(observed) >= -1e-9
    )
    assert verdict(
        ok,
        "two-coloring recovery and divergence sanity",
        f"paths/cycles/grid removed 0 intra edges (max final kld {max(recovery_klds):.1e}"
        f" <= 1e-9), triangle removed exactly 1, self kld {self_kld:.1e}, "
        f"min observed kld {min(observed):.1e} >= -1e-9",
    )


def test_zero_strength_identity_and_bit_exact_reruns(verdict, small_run):
    out0, _ = denoise(small_run.noisy, DenoiseParams(gamma=0.0))
    identity_ok = np.array_equal(out0.positions, small_run.noisy.positions)
    first, second = small_run.runs
    bytes_ok = first.path.read_bytes() == second.path.read_bytes()
    positions_ok = np.array_equal(first.out.positions, second.out.positions)
    # diagnostics rows carry wall-clock times; compare everything but those
    rows_ok = [r[:5] for r in first.diag.rows] == [r[:5] for r in second.diag.rows]
    ok = identity_ok and bytes_ok and positions_ok and rows_ok
    assert verdict(
        ok,
        "zero-strength identity and bit-exact reruns",
        f"gamma=0 returns input exactly: {identity_ok}; rerun files byte-identical: "
        f"{bytes_ok}; rerun iterates identical: {positions_ok and rows_ok}",
    )


def test_solver_residuals_converged_on_every_denoise_run(
    verdict, improvement_run, planar_run, small_run
):
    checked = 0
    worst_final = 0.0
    healthy = True
    runs = [
        (improvement_run.diag, improvement_run.params),
        (planar_run.diag, planar_run.params),
        (small_run.runs[0].diag, small_run.params),
    ]
    for diag, params in runs:
        first = {row[0]: row[2] for row in diag.rows if row[1] == 1}
        for label, _, final_res, *_ in diag.final_rows():
            first_res = first[label]
            healthy &= final_res <= params.admm_tol and final_res < first_res
            worst_final = max(worst_final, final_res)
            checked += 1
    ok = healthy and checked > 0
    assert verdict(
        ok,
        "solver residuals converged on every denoise run",
        f"{checked} red/blue passes across 3 fixtures, worst final primal residual "
        f"{worst_final:.2e} <= 1e-4, every pass ended below its start",
    )
