"""ADMM denoiser: quadratic fidelity plus graph total variation of normals.

Per node class (red / blue) each node's normal is affine in its own
position, n_i = A_i p_i + b_i, and the solver minimizes

    ||q - p||^2 + gamma * sum_edges w_ij ||m_ij||_1,
    m = D n = D (A p + b),

where D is the class graph's E x V incidence (+1 at e_i, -1 at e_j), so
m_ij = n_i - n_j. The scaled-form ADMM splits are:

    p-step:  (2 I + rho A^T (L (x) I_3) A) p = 2 q + rho A^T D^T (m - u - D b)
             with L = D^T D; the system is assembled once per solve on L's
             pattern and solved by conjugate gradient, block-Jacobi
             preconditioned with the inverses of its 3x3 diagonal blocks
             2 I + rho deg_i A_i^T A_i, from the previous iterate until the
             residual falls to a tenth of its starting value
    m-step:  m = soft(D (A p + b) + u, gamma w_ij / rho)   (exact: m enters its
             subproblem alone, so the l1 prox has this closed form)
    u-step:  u += D (A p + b) - m

Each p-step is thus inexact, but its error shrinks by a fixed factor per
step, which keeps ADMM convergent (Eckstein & Bertsekas 1992, Math.
Programming 55); near admm_tol the cut tightens (Eisenstat & Walker 1996),
so a slow pass does not stall short of it. The stopping rule is on the
primal residual; the scaled dual residual ||A^T D^T (m_k - m_{k-1})|| /
||A^T D^T u_k|| is recorded in the diagnostics only.

An iteration makes two adjoint products, those of the dual residual: the
first updates a running A^T D^T m, which with A^T D^T D b, formed once per
pass, gives the next right-hand side without an adjoint of its own. CG
starts from the previous step's true residual moved to the new right-hand
side, so only a pass's first step computes its start residual; every
accepted step is still verified against a true residual (see p_update).

Red and blue passes alternate; each pass re-estimates support pairs from
the other class's current positions, and linearizations and the class's
own k-NN graph, which also orients the normals, from its own.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import bsr_matrix, csr_matrix

from .bipartite import BLUE, RED, approximate_bipartite
from .cloud import PointCloud
from .errors import AdmmDivergenceError, DegenerateCloudError, MissingLinearizationError
from .graph import WeightedGraph, build_knn_graph
from .normals import DEFAULT_COLLINEARITY_TOL, estimate_normal_field


@dataclass
class DenoiseParams:
    """All tuning knobs of the denoiser with working defaults.

    gamma=0.1 tends to work better at noise sigma around 0.3; gamma=0.05
    suits sigma around 0.05-0.1. rho is the ADMM penalty.
    """

    gamma: float = 0.05          # GTV regularization strength
    rho: float = 5.0             # ADMM penalty
    sigma_p: float = 1.5         # Gaussian kernel bandwidth for edge weights
    k: int = 8                   # neighbors per node in k-NN graphs
    admm_tol: float = 1e-5
    admm_max_iter: int = 100
    outer_max_iter: int = 2      # red/blue passes; 2 beat 10 at these defaults
    collinearity_tol: float = DEFAULT_COLLINEARITY_TOL
    window_budget: int = 20000   # clouds above this size are solved in windows

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            if isinstance(f.default, int) and type(value) is not int:  # bool too
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        for name in ("gamma", "collinearity_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("rho", "sigma_p", "admm_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("k", "admm_max_iter", "outer_max_iter", "window_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(eq=False)
class EdgeOperator:
    """Normal differences m = D (A p + b) of one class graph, and its p-step system.

    A (V, 3, 3) and b (V, 3) are the nodes' normal models n = A p + b; D is
    the class graph's E x V incidence (+1 at e_i, -1 at e_j). system is
    2 I + rho A^T (L (x) I_3) A with L = D^T D, and preconditioner holds the
    inverses of its 3x3 diagonal blocks.
    """

    A: np.ndarray
    b: np.ndarray
    D: csr_matrix
    Dt: csr_matrix               # D^T in CSR: D.T would rebuild it on every adjoint
    rho: float
    system: csr_matrix
    preconditioner: csr_matrix

    def differences(self, p: np.ndarray) -> np.ndarray:
        """Stacked edge normal differences D (A p + b), shape (3E,)."""
        normals = np.einsum("vij,vj->vi", self.A, p.reshape(-1, 3)) + self.b
        return (self.D @ normals).ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T D^T y for stacked edge vectors y, shape (3V,)."""
        return np.einsum("vji,vj->vi", self.A, self.Dt @ y.reshape(-1, 3)).ravel()


# Each p-step's CG cuts its warm-start residual by CG_REDUCTION in at most
# CG_MAX_ITER iterations, by CG_REDUCTION_NEAR_TOL after a primal residual
# below NEAR_TOL_FACTOR * admm_tol.
CG_REDUCTION = 0.1
CG_REDUCTION_NEAR_TOL = 0.03
NEAR_TOL_FACTOR = 10.0
CG_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class CgResult:
    iterations: int
    converged: bool
    residual: np.ndarray         # rhs - system p at the returned p


@dataclass(eq=False)
class DiagnosticsReport:
    """Run metadata plus per-iteration solver records.

    rows: (pass label, iteration, primal residual, objective, gtv, seconds,
    dual residual).
    """

    meta: dict = field(default_factory=dict)
    rows: list[tuple] = field(default_factory=list)
    outer_changes: list[tuple] = field(default_factory=list)

    def final_rows(self) -> list[tuple]:
        """The last row of each pass, in pass order."""
        return list({row[0]: row for row in self.rows}.values())

    def to_text(self) -> str:
        lines = ["# denoise diagnostics"]
        for key, value in self.meta.items():
            lines.append(f"{key}: {value}")
        for outer, change in self.outer_changes:
            lines.append(f"outer_change_{outer}: {change:.17g}")
        lines.append("[iterations]")
        lines.append("pass,iteration,primal_residual,objective,gtv,seconds,dual_residual")
        for label, it, res, obj, gtv, secs, dual in self.rows:
            lines.append(f"{label},{it},{res:.17g},{obj:.17g},{gtv:.17g},{secs:.6f},"
                         f"{dual:.17g}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def assemble_edge_operator(
    class_graph: WeightedGraph, A: np.ndarray, b: np.ndarray, rho: float
) -> EdgeOperator:
    """The incidence D of a class graph and the p-step system for penalty rho.

    A (n, 3, 3) and b (n, 3) hold the normal models of the n graph nodes; a
    node whose row of A or b is not finite has no model. The system is built
    on the pattern of L = D^T D: block (i, j) is rho L_ij A_i^T A_j, plus 2 I
    on the diagonal, so it is SPD with smallest eigenvalue >= 2. Diagonal
    block i, 2 I + rho deg_i A_i^T A_i, is inverted for the block-Jacobi
    preconditioner, which absorbs the spread of per-node gains ||A_i|| that
    slows unpreconditioned CG (Saad 2003, Iterative Methods for Sparse Linear
    Systems, section 10.1). A block that is singular in floating point, as a
    near-degenerate support triple's gain makes it, raises DegenerateCloudError.
    """
    n = class_graph.node_count
    if A.shape != (n, 3, 3) or b.shape != (n, 3):
        raise ValueError(f"normal models of shapes {A.shape}, {b.shape} for {n} nodes")
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
    if not finite.all():
        raise MissingLinearizationError(int(np.flatnonzero(~finite)[0]))
    nodes = np.arange(n)
    ends = np.concatenate([class_graph.ei, class_graph.ej])
    others = np.concatenate([class_graph.ej, class_graph.ei])
    e = class_graph.edge_count
    D = csr_matrix((np.repeat([1.0, -1.0], e), (np.tile(np.arange(e), 2), ends)),
                   shape=(e, n))
    # L = D^T D: -1 per edge and deg_i on the diagonal, stored even where
    # deg_i = 0 so that every node gets its 2 I block
    L = csr_matrix((np.concatenate([-np.ones(2 * e), np.bincount(ends, minlength=n)]),
                    (np.concatenate([ends, nodes]), np.concatenate([others, nodes]))),
                   shape=(n, n))
    rows = np.repeat(nodes, np.diff(L.indptr))
    blocks = rho * L.data[:, None, None] * np.einsum("kji,kjl->kil", A[rows], A[L.indices])
    diagonal = rows == L.indices
    blocks[diagonal] += 2.0 * np.eye(3)
    system = bsr_matrix((blocks, L.indices, L.indptr), shape=(3 * n, 3 * n)).tocsr()
    try:
        inverses = np.linalg.inv(blocks[diagonal])
    except np.linalg.LinAlgError:
        largest = np.abs(A).max()
        raise DegenerateCloudError(f"position system singular: normal model entries reach "
                                   f"{largest:.3g} (near-degenerate support triple)") from None
    preconditioner = bsr_matrix((inverses, nodes, np.arange(n + 1)), shape=system.shape).tocsr()
    return EdgeOperator(A, b, D, D.T.tocsr(), rho, system, preconditioner)


def p_update(
    op: EdgeOperator,
    rhs: np.ndarray,
    p0: np.ndarray,
    r0: np.ndarray | None = None,
    reduction: float = CG_REDUCTION,
) -> tuple[np.ndarray, CgResult]:
    """Solve the p-step op.system p = rhs by block-Jacobi PCG from p0.

    In ADMM, rhs = 2 q + rho A^T D^T (m - u - D b). r0 is the residual
    rhs - op.system p0, computed here when None. CG stops once the
    unpreconditioned residual is at most max(reduction ||r0||,
    1e-12 ||rhs||), or after CG_MAX_ITER iterations with converged False.
    The floor ends a solve that starts at its solution, where r0 is
    rounding noise. A residual that meets the target, r0 included, is
    accepted only if the true residual, computed afresh, also meets it;
    the result carries the true residual at the returned p, also at the
    cap, from which the next step's r0 follows.
    """
    system = op.system
    x = p0.copy()
    r = rhs - system @ x if r0 is None else r0.copy()
    rnorm = float(np.linalg.norm(r))
    target = max(reduction * rnorm, 1e-12 * float(np.linalg.norm(rhs)))
    iterations = 0
    p = None
    while True:
        if rnorm <= target:
            # Drift check: accept only if the true residual agrees.
            r = rhs - system @ x
            rnorm = float(np.linalg.norm(r))
            if rnorm <= target:
                return x, CgResult(iterations, True, r)
        if iterations == CG_MAX_ITER:
            return x, CgResult(iterations, False, rhs - system @ x)
        z = op.preconditioner @ r
        rz_new = float(r @ z)
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        ap = system @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rnorm = float(np.linalg.norm(r))
        iterations += 1


def soft_threshold(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Componentwise soft threshold of m by tau >= 0: shrink toward zero, clip at zero.

    m - clip(m, -tau, tau) equals sign(m) max(|m| - tau, 0) everywhere,
    NaN and infinities included, up to the sign of a zero result; the clip
    is spelled out, which is faster than np.clip.
    """
    return m - np.minimum(np.maximum(m, -tau), tau)


def _require_finite(stacked: np.ndarray, message: str) -> None:
    """Raise AdmmDivergenceError naming the first 3-vector with a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(stacked))
    if bad.size:
        raise AdmmDivergenceError(f"{message} {bad[0] // 3}")


def admm_denoise_partite(
    q: np.ndarray,
    class_graph: WeightedGraph,
    A: np.ndarray,
    b: np.ndarray,
    params: DenoiseParams,
    label: str = "admm",
    collector: DiagnosticsReport | None = None,
) -> np.ndarray:
    """Run ADMM for one node class; returns optimized stacked positions.

    q is the observed (noisy) stacked position vector of the class, which
    also initializes p; A and b are the nodes' normal models (see
    assemble_edge_operator). With gamma = 0 the solve returns q unchanged.
    """
    op = assemble_edge_operator(class_graph, A, b, params.rho)
    q = np.asarray(q, dtype=np.float64).ravel()
    p = q.copy()
    m = op.differences(p)
    u = np.zeros_like(m)
    # A^T D^T m, kept as a running sum of the m-steps' changes, A^T D^T u and
    # the constant A^T D^T D b: the p-step right-hand side is
    # 2 q + rho (g_m - (g_u + g_b))
    g_m = op.adjoint(m)
    g_u = np.zeros_like(q)
    g_b = op.adjoint((op.D @ op.b).ravel())
    w3 = np.repeat(class_graph.w, 3)
    tau = (params.gamma / params.rho) * w3
    tiny = np.finfo(np.float64).tiny

    t0 = time.perf_counter()
    first_residual = None
    near_tol = NEAR_TOL_FACTOR * params.admm_tol
    streak = 0
    for iteration in range(1, params.admm_max_iter + 1):
        cut = CG_REDUCTION_NEAR_TOL if iteration > 1 and residual < near_tol else CG_REDUCTION
        rhs = 2.0 * q + op.rho * (g_m - (g_u + g_b))
        # the previous step's true residual, moved to the new right-hand side
        r0 = None if iteration == 1 else info.residual + (rhs - rhs_prev)
        p, info = p_update(op, rhs, p, r0, reduction=cut)
        rhs_prev = rhs
        _require_finite(p, f"{label}: non-finite p-step value at node index")
        z = op.differences(p)
        m_prev = m
        m = soft_threshold(z + u, tau)
        _require_finite(m, f"{label}: non-finite m-step value at edge index")
        u = u + (z - m)
        g_step = op.adjoint(m - m_prev)
        g_m += g_step
        g_u = op.adjoint(u)

        residual = float(np.linalg.norm(z - m)) / max(float(np.linalg.norm(m)), 1.0)
        # scaled dual residual (Boyd et al. 2011, section 3.3.1); recorded only
        dual = float(np.linalg.norm(g_step)) / max(float(np.linalg.norm(g_u)), tiny)
        gtv = float(w3 @ np.abs(z))
        objective = float(np.sum((q - p) ** 2)) + params.gamma * gtv
        if not np.isfinite(objective):
            raise AdmmDivergenceError(f"{label}: objective became non-finite")
        if collector is not None:
            collector.rows.append((label, iteration, residual, objective, gtv,
                                   time.perf_counter() - t0, dual))
            meta = collector.meta
            meta["cg_iterations"] = meta.get("cg_iterations", 0) + info.iterations
            meta["cg_steps_at_cap"] = (meta.get("cg_steps_at_cap", 0)
                                       + (not info.converged))
        if residual <= params.admm_tol:
            break
        if first_residual is None:
            first_residual = residual
        elif residual > 10.0 * first_residual:
            streak += 1
            if streak >= 5:
                raise AdmmDivergenceError(
                    f"{label}: primal residual {residual:.3e} stayed 10x above its "
                    f"initial value {first_residual:.3e} for {streak} iterations"
                )
        else:
            streak = 0
    return p


# Stage timers of DiagnosticsReport.meta, in pipeline order.
STAGE_KEYS = ("seconds_graph", "seconds_bipartition", "seconds_normals", "seconds_admm")


@contextmanager
def _stage(diag: DiagnosticsReport, key: str):
    """Add the wall time of the with-block to diag.meta[key]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        diag.meta[key] = diag.meta.get(key, 0.0) + time.perf_counter() - t0


def _class_pass(
    p_cur: np.ndarray,
    q_obs: np.ndarray,
    graph: WeightedGraph,
    assignment: np.ndarray,
    cls: int,
    params: DenoiseParams,
    label: str,
    diag: DiagnosticsReport,
) -> int:
    """One red or blue pass: estimate normals and the class graph, run ADMM.

    Mutates p_cur in place for the optimized nodes; returns the number of
    nodes skipped for lack of a support pair.
    """
    with _stage(diag, "seconds_normals"):
        field_, failed = estimate_normal_field(p_cur, graph, assignment, cls, params.k,
                                               params.sigma_p, params.collinearity_tol)
    active = field_.ids
    if active.size == 0:
        return len(failed)
    with _stage(diag, "seconds_admm"):
        p_new = admm_denoise_partite(q_obs[active].ravel(), field_.graph, field_.A, field_.b,
                                     params, label=label, collector=diag)
    p_cur[active] = p_new.reshape(-1, 3)
    return len(failed)


def centred_knn_graph(
    cloud: PointCloud, params: DenoiseParams, diag: DiagnosticsReport
) -> tuple[np.ndarray, WeightedGraph]:
    """The centroid-centred positions and their k-NN graph, as denoise solves with them.

    Adds the graph's wall time to diag's seconds_graph.
    """
    centred = cloud.positions - cloud.positions.mean(axis=0)
    with _stage(diag, "seconds_graph"):
        graph = build_knn_graph(centred, min(params.k, cloud.n - 1), params.sigma_p)
    return centred, graph


def denoise(
    cloud: PointCloud, params: DenoiseParams | None = None
) -> tuple[PointCloud, DiagnosticsReport]:
    """Denoise a cloud; returns the result plus a diagnostics report.

    Builds the k-NN graph (centred_knn_graph) and the red/blue bipartition
    of the noisy input once per cloud, then runs outer_max_iter red/blue ADMM
    passes, ending early after a pass that moved no point. Nodes without a
    valid support pair stay at their observed positions. Clouds larger than
    window_budget run their passes in overlapping spatial windows, each on
    the cloud's graph and bipartition restricted to its points. The
    bipartition starts at point 0 with approximate_bipartite's 2-hop view.

    The solve runs on centroid-centred coordinates, because the p-step's
    right-hand side grows with the distance from the origin, and with it
    CG's absolute floor and the rounding error of its residuals; the solved
    displacements are added back to the input, so unmoved points keep their
    input coordinates exactly. The meta key passes_at_cap counts passes
    that stopped at admm_max_iter with a primal residual above admm_tol;
    cg_iterations totals the CG iterations of all p-steps, and
    cg_steps_at_cap counts p-steps that stopped at CG_MAX_ITER short of
    their residual target. seconds_graph and seconds_bipartition
    time the cloud's graph and bipartition; seconds_normals (support pairs,
    class graph and orientation) and seconds_admm sum each stage over passes
    and windows. bipartition_levels counts the bipartition's dependency levels,
    and red_nodes and blue_nodes its class sizes. A windowed run records
    windows, window_points (their summed sizes) and windows_oversized, the
    windows solved above window_budget.
    """
    if params is None:
        params = DenoiseParams()
    if cloud.n < 4:
        raise DegenerateCloudError(f"denoising needs at least 4 points, got {cloud.n}")
    diag = DiagnosticsReport()
    diag.meta["points"] = cloud.n
    diag.meta.update({f"param_{k}": v for k, v in params.as_dict().items()})
    diag.meta.update(cg_iterations=0, cg_steps_at_cap=0, bipartition_levels=0)
    diag.meta.update(dict.fromkeys(STAGE_KEYS, 0.0))
    t0 = time.perf_counter()
    centred, graph = centred_knn_graph(cloud, params, diag)
    with _stage(diag, "seconds_bipartition"):
        bp = approximate_bipartite(graph)
    diag.meta.update(bipartition_levels=bp.levels, red_nodes=int(bp.red.size),
                     blue_nodes=int(bp.blue.size))

    windows = _window_layout(centred, graph.adjacency, params)
    if len(windows) > 1:
        diag.meta["windows"] = len(windows)
        diag.meta["window_points"] = int(sum(members.size for _, members in windows))
        diag.meta["windows_oversized"] = sum(members.size > params.window_budget
                                             for _, members in windows)
    solved = np.empty_like(centred)
    for w_idx, (core, members) in enumerate(windows):
        prefix = f"w{w_idx}:" if len(windows) > 1 else ""
        window = _denoise_core(centred[members], graph.subgraph(members),
                               bp.assignment[members], params, diag, prefix)
        solved[core] = window[np.searchsorted(members, core)]
    diag.meta["seconds_total"] = round(time.perf_counter() - t0, 6)
    diag.meta.update({key: round(diag.meta[key], 6) for key in STAGE_KEYS})
    diag.meta["passes_at_cap"] = sum(
        it >= params.admm_max_iter and res > params.admm_tol
        for _, it, res, *_ in diag.final_rows()
    )
    return PointCloud(cloud.positions + (solved - centred)), diag


def _denoise_core(
    q_obs: np.ndarray,
    graph: WeightedGraph,
    assignment: np.ndarray,
    params: DenoiseParams,
    diag: DiagnosticsReport,
    label_prefix: str,
) -> np.ndarray:
    """outer_max_iter red/blue passes over one window's points; one that moves none ends them.

    graph and assignment are the cloud's k-NN graph and bipartition
    restricted to the window, in the order of q_obs.
    """
    p_cur = q_obs.copy()
    skipped = 0
    for outer in range(1, params.outer_max_iter + 1):
        prev = p_cur.copy()
        for cls, name in ((RED, "red"), (BLUE, "blue")):
            skipped += _class_pass(
                p_cur, q_obs, graph, assignment, cls, params,
                f"{label_prefix}outer{outer}:{name}", diag,
            )
        denom = max(float(np.linalg.norm(prev)), np.finfo(np.float64).tiny)
        change = float(np.linalg.norm(p_cur - prev)) / denom
        diag.outer_changes.append((f"{label_prefix}{outer}", change))
        if change == 0.0:
            break
    diag.meta["no_support_pair_events"] = diag.meta.get("no_support_pair_events", 0) + skipped
    return p_cur


# A window's halo holds its core's support-pair candidates (one hop), class-graph
# neighbours (mostly two hops, across the bipartition) and their support pairs.
HALO_HOPS = 3


def _window_layout(
    q_obs: np.ndarray, adjacency: csr_matrix, params: DenoiseParams
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(core, members) index pairs of the windows, both ascending.

    adjacency is the cloud's k-NN graph. Starting from the whole cloud, a
    core is split at the median of its bounding box's longest axis while
    its window, the core plus every point within HALO_HOPS hops of it in
    that graph, exceeds window_budget. A cloud within the budget is one
    window. A core whose halo alone reaches the budget is not split
    further, since its children's windows would be mostly halo; such
    windows are solved oversized.
    """
    n = q_obs.shape[0]
    windows: list[tuple[np.ndarray, np.ndarray]] = []
    stack = [np.arange(n)]
    while stack:
        core = stack.pop()
        reach = np.zeros(n, dtype=bool)
        reach[core] = True
        for _ in range(HALO_HOPS):
            reach |= (adjacency @ reach).astype(bool)
        members = np.flatnonzero(reach)
        if (members.size > params.window_budget and core.size > 1
                and members.size - core.size < params.window_budget):
            pts = q_obs[core]
            axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
            order = np.argsort(pts[:, axis], kind="stable")
            half = core.size // 2
            # right half pushed first, so windows come out left to right
            stack.append(np.sort(core[order[half:]]))
            stack.append(np.sort(core[order[:half]]))
            continue
        windows.append((core, members))
    return windows
