"""Dense references for the bipartition's divergence criterion.

The library scores candidates only in batches (bipartite._divergences);
these whole-graph forms check it. kld factors with slogdet and solve, not
with the greedy's Cholesky-and-inverse kernel, so the check is independent.
"""

import numpy as np

from gtvdenoise.bipartite import Bipartition
from gtvdenoise.graph import WeightedGraph


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """Dense combinatorial Laplacian L = D - W (symmetric PSD, zero row sums)."""
    w = graph.adjacency.toarray()
    return np.diag(w.sum(axis=1)) - w


def kld(l_orig: np.ndarray, l_bip: np.ndarray, delta: float) -> float:
    """Divergence of the field (l_bip + delta*I)^-1 from (l_orig + delta*I)^-1.

    Both arguments are dense Laplacians of graphs on the same node set.
    Returns
        0.5 * (tr(P_b * Sigma) + logdet(P_o) - logdet(P_b) - n)
    with P_o = l_orig + delta*I, P_b = l_bip + delta*I, Sigma = P_o^-1.
    Zero iff the two fields coincide; always >= 0 up to round-off.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if l_orig.shape != l_bip.shape or l_orig.ndim != 2 or l_orig.shape[0] != l_orig.shape[1]:
        raise ValueError(f"Laplacian shapes must match and be square, "
                         f"got {l_orig.shape} and {l_bip.shape}")
    n = l_orig.shape[0]
    p_o = l_orig + delta * np.eye(n)
    p_b = l_bip + delta * np.eye(n)
    (sign_o, logdet_o), (sign_b, logdet_b) = np.linalg.slogdet(p_o), np.linalg.slogdet(p_b)
    assert sign_o > 0 and sign_b > 0  # a Laplacian plus delta*I is positive definite
    # tr(P_b Sigma) = tr(Sigma P_b)
    return 0.5 * (float(np.trace(np.linalg.solve(p_o, p_b))) + logdet_o - logdet_b - n)


def induced_bipartite_graph(graph: WeightedGraph, bp: Bipartition) -> WeightedGraph:
    """Subgraph keeping only cross-class edges, same node set and weights."""
    if bp.assignment.size != graph.node_count:
        raise ValueError(
            f"assignment covers {bp.assignment.size} nodes, graph has {graph.node_count}"
        )
    keep = bp.assignment[graph.ei] != bp.assignment[graph.ej]
    return WeightedGraph(graph.node_count, graph.ei[keep], graph.ej[keep], graph.w[keep])
