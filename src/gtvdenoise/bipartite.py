"""Bipartite approximation of a weighted graph.

A graph is interpreted as a Gauss-Markov random field with precision
matrix L + delta*I. Nodes are assigned one at a time, in BFS order, to
one of two classes (red / blue); intra-class edges are dropped. Each
assignment picks the class whose resulting field stays closest to the
original in Kullback-Leibler divergence, evaluated on a local view of
the graph around the candidate node so the cost stays bounded: the
view's dense weight matrix W scores each candidate class by the field of
W with only its cross-class weights kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import breadth_first_order

from .graph import WeightedGraph

RED = 0
BLUE = 1
CLASS_NAMES = ("red", "blue")

# Relative tolerance under which the two candidate divergences count as equal.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class GreedyStep:
    """Record of one greedy assignment: both candidate divergences and the pick."""

    node: int
    d_red: float
    d_blue: float
    chosen: int
    tie: bool
    seed: bool = False
    forced: bool = False


@dataclass(eq=False)
class Bipartition:
    """Node class assignment: 0 = red, 1 = blue, one entry per node."""

    assignment: np.ndarray
    trace: list[GreedyStep] | None = field(default=None, repr=False)

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int8).ravel()
        if a.size < 1:
            raise ValueError("assignment must cover at least one node")
        if not np.all((a == RED) | (a == BLUE)):
            raise ValueError("assignment entries must be 0 (red) or 1 (blue)")
        if a.size >= 2 and (np.all(a == RED) or np.all(a == BLUE)):
            raise ValueError("neither class may be empty for 2 or more nodes")
        self.assignment = a

    @property
    def red(self) -> np.ndarray:
        return np.flatnonzero(self.assignment == RED)

    @property
    def blue(self) -> np.ndarray:
        return np.flatnonzero(self.assignment == BLUE)


def _logdet_and_inverse(a: np.ndarray):
    fac = cho_factor(a, lower=False, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(fac[0]))))
    inv = cho_solve(fac, np.eye(a.shape[0]), check_finite=False)
    return logdet, inv


def _logdet(a: np.ndarray) -> float:
    fac = cho_factor(a, lower=False, check_finite=False)
    return 2.0 * float(np.sum(np.log(np.diag(fac[0]))))


def _divergence(logdet_o: float, sigma: np.ndarray, p_b: np.ndarray) -> float:
    """0.5 * (tr(P_b Sigma) + logdet(P_o) - logdet(P_b) - n), with Sigma = P_o^-1."""
    trace = float(np.sum(p_b * sigma))
    return 0.5 * (trace + logdet_o - _logdet(p_b) - p_b.shape[0])


def _dense_laplacian(w: np.ndarray) -> np.ndarray:
    """L(W) = diag(W 1) - W of a dense symmetric weight matrix."""
    return np.diag(w.sum(axis=1)) - w


def kld(l_orig, l_bip, delta: float) -> float:
    """Divergence of the field (l_bip + delta*I)^-1 from (l_orig + delta*I)^-1.

    Both arguments are Laplacians (dense or scipy sparse) of graphs on the
    same node set. Returns
        0.5 * (tr(P_b * Sigma) + logdet(P_o) - logdet(P_b) - n)
    with P_o = l_orig + delta*I, P_b = l_bip + delta*I, Sigma = P_o^-1.
    Zero iff the two fields coincide; always >= 0 up to round-off.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    a = np.asarray(l_orig.toarray() if hasattr(l_orig, "toarray") else l_orig, dtype=np.float64)
    b = np.asarray(l_bip.toarray() if hasattr(l_bip, "toarray") else l_bip, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"Laplacian shapes must match and be square, got {a.shape} and {b.shape}")
    eye = np.eye(a.shape[0])
    try:
        logdet_o, sigma = _logdet_and_inverse(a + delta * eye)
        return _divergence(logdet_o, sigma, b + delta * eye)
    except LinAlgError as exc:
        raise ValueError("Laplacian plus delta*I is not positive definite") from exc


class _GreedyState:
    """Working state for one bipartition run over one graph."""

    def __init__(self, graph: WeightedGraph, delta: float, view_hops: int):
        self.adj = graph.adjacency
        self.delta = delta
        self.assign = np.full(graph.node_count, -1, dtype=np.int8)
        self.local = np.full(graph.node_count, -1, dtype=np.int64)  # global -> view index
        # Pattern of (I + A)^view_hops: row c holds every node within view_hops of c.
        step = csr_matrix((np.ones(self.adj.nnz), self.adj.indices, self.adj.indptr),
                          shape=self.adj.shape) + identity(graph.node_count, format="csr")
        reach = step
        for _ in range(view_hops - 1):
            reach = reach @ step
            reach.data[:] = 1.0
        reach.sort_indices()
        self.reach = reach

    def local_view(self, c: int) -> np.ndarray:
        """Assigned nodes within view_hops of c (graph distance), plus c, ascending."""
        ball = self.reach.indices[self.reach.indptr[c]:self.reach.indptr[c + 1]]
        return ball[(self.assign[ball] >= 0) | (ball == c)]

    def candidate_divergences(self, c: int) -> tuple[float, float]:
        """KLD of assigning c to red / to blue, on the local view.

        The view's weights W give P_o = L(W) + delta*I; candidate g gives
        P_g = L(W masked to pairs of differing class, c in class g) + delta*I.
        """
        view = self.local_view(c)
        n = view.size
        self.local[view] = np.arange(n)
        lc = self.local[c]
        # The adjacency rows of the view, read through positions pos; every
        # entry whose column lies in the view is a weight of W.
        starts = self.adj.indptr[view]
        counts = self.adj.indptr[view + 1] - starts
        pos = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        rows = np.repeat(np.arange(n), counts)
        cols = self.local[self.adj.indices[pos]]
        self.local[view] = -1
        inside = cols >= 0
        w = np.zeros((n, n))
        w[rows[inside], cols[inside]] = self.adj.data[pos[inside]]

        delta_eye = self.delta * np.eye(n)
        logdet_o, sigma = _logdet_and_inverse(_dense_laplacian(w) + delta_eye)
        cls = self.assign[view]
        out = []
        for g in (RED, BLUE):
            cls[lc] = g
            cross = w * (cls[:, None] != cls[None, :])
            out.append(_divergence(logdet_o, sigma, _dense_laplacian(cross) + delta_eye))
        return out[0], out[1]


def approximate_bipartite(
    graph: WeightedGraph,
    delta: float = 0.01,
    start_node: int = 0,
    view_hops: int = 2,
    record_trace: bool = False,
) -> Bipartition:
    """Greedy BFS bipartition driven by the divergence criterion.

    The start node goes to red. Every later node joins red if the blue
    candidate diverges more, blue otherwise; near-equal divergences
    alternate, red first. Disconnected graphs are processed per component,
    each seeded at its lowest-index unassigned node. Deterministic for a
    fixed input.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if view_hops < 1:
        raise ValueError("view_hops must be >= 1")
    n = graph.node_count
    if not (0 <= start_node < n):
        raise ValueError(f"start_node {start_node} out of range for {n} nodes")

    state = _GreedyState(graph, delta, view_hops)
    trace: list[GreedyStep] | None = [] if record_trace else None
    tie_next = RED  # alternation state: first tie goes to red
    assigned_count = 0

    def assign(c: int, g: int, step: GreedyStep | None):
        nonlocal assigned_count
        state.assign[c] = g
        assigned_count += 1
        if trace is not None and step is not None:
            trace.append(step)

    seeds = [start_node] + [i for i in range(n) if i != start_node]
    first_seed = True
    for seed in seeds:
        if state.assign[seed] >= 0:
            continue
        # One BFS covers the seed's whole component, none of it assigned yet;
        # neighbours are queued in ascending index order.
        for c in breadth_first_order(state.adj, seed, directed=True,
                                     return_predecessors=False):
            c = int(c)
            if first_seed:
                # The very first node initializes the red class.
                assign(c, RED, GreedyStep(c, 0.0, 0.0, RED, tie=False, seed=True))
                first_seed = False
                continue
            d_red, d_blue = state.candidate_divergences(c)
            tie = abs(d_blue - d_red) <= TIE_RTOL * max(1.0, abs(d_red))
            forced = False
            if tie:
                g = tie_next
                tie_next = BLUE if tie_next == RED else RED
                # Keep both classes non-empty: the last node may not
                # land a tie into the only populated class.
                if (
                    assigned_count == n - 1
                    and n >= 2
                    and not np.any(state.assign == (BLUE if g == RED else RED))
                    and np.any(state.assign == g)
                ):
                    g = BLUE if g == RED else RED
                    forced = True
            else:
                g = RED if d_blue > d_red else BLUE
            assign(c, g, GreedyStep(c, d_red, d_blue, g, tie=tie, forced=forced))

    return Bipartition(state.assign.copy(), trace=trace)


def induced_bipartite_graph(graph: WeightedGraph, bp: Bipartition) -> WeightedGraph:
    """Subgraph keeping only cross-class edges, same node set and weights."""
    if bp.assignment.size != graph.node_count:
        raise ValueError(
            f"assignment covers {bp.assignment.size} nodes, graph has {graph.node_count}"
        )
    keep = bp.assignment[graph.ei] != bp.assignment[graph.ej]
    return WeightedGraph(graph.node_count, graph.ei[keep], graph.ej[keep], graph.w[keep])


def bipartition_lines(bp: Bipartition):
    """Yield 'node class' debug lines."""
    for i, g in enumerate(bp.assignment):
        yield f"{i} {CLASS_NAMES[g]}"
