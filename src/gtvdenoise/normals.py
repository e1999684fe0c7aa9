"""Surface normal estimation as a linear function of node position.

A node's normal is the unit cross product (p_i - p_k) x (p_k - p_l) of
its position with a support pair (k, l) drawn from the opposite class.
That cross product is affine in p_i:

    (p_i - p_k) x (p_k - p_l) = C p_i + d,
    C = skew(p_l - p_k),  d = p_k x p_l,

where skew(v) is the matrix with skew(v) @ x == v x x. Dividing by the
norm at a chosen linearization point gives n_i ~ A p_i + b. Signs are
made globally consistent with a minimum spanning tree walk. A class's
models are kept as stacked arrays (see affine_normals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, minimum_spanning_tree

from .errors import NoSupportPairError
from .graph import SpatialIndex, WeightedGraph, knn_adjacency

DEFAULT_COLLINEARITY_TOL = 1e-8


@dataclass(eq=False)
class NormalField:
    """Oriented normals plus their affine models n(p) = A p + b for a set of nodes.

    Row t belongs to node ids[t]; A and b are frozen at the node's position
    when the field was estimated, where ||A p + b|| = 1.
    """

    ids: np.ndarray              # (m,) global node indices, ascending
    normals: np.ndarray          # (m, 3) oriented unit normals at the linearization point
    A: np.ndarray                # (m, 3, 3)
    b: np.ndarray                # (m, 3)
    alpha: np.ndarray            # (m,) orientation signs, +1 or -1
    pairs: np.ndarray            # (m, 2) support pair (k, l) of each node


def affine_normals(p_i: np.ndarray, p_k: np.ndarray, p_l: np.ndarray):
    """Affine normal models of support triples, one per row of p_i, p_k, p_l.

    Returns (n, C, d, A, b), each with a leading axis over the triples:
    C p + d == (p - p_k) x (p_k - p_l) for every p, with C = skew(p_l - p_k)
    and d = p_k x p_l; r = ||C p_i + d||; n = (C p_i + d) / r is the unit
    normal at p_i; A = C / r and b = d / r, so ||A p_i + b|| = 1. Sign the
    model of row t by multiplying n[t], A[t] and b[t] by the same +1 or -1.
    """
    p_i, p_k, p_l = (np.asarray(x, dtype=np.float64) for x in (p_i, p_k, p_l))
    v = p_l - p_k
    C = np.zeros((v.shape[0], 3, 3))
    C[:, 0, 1] = -v[:, 2]
    C[:, 0, 2] = v[:, 1]
    C[:, 1, 0] = v[:, 2]
    C[:, 1, 2] = -v[:, 0]
    C[:, 2, 0] = -v[:, 1]
    C[:, 2, 1] = v[:, 0]
    d = np.cross(p_k, p_l)
    vec = np.einsum("nij,nj->ni", C, p_i) + d
    norms = np.linalg.norm(vec, axis=1)
    scale = 1.0 / norms
    return vec / norms[:, None], C, d, scale[:, None, None] * C, scale[:, None] * d


def _is_valid_triple(p_i, p_k, p_l, tol: float) -> bool:
    cross = np.cross(p_i - p_k, p_k - p_l)
    return float(np.linalg.norm(cross)) > tol * float(
        np.linalg.norm(p_i - p_k) * np.linalg.norm(p_k - p_l)
    )


def select_support_pair(
    node: int,
    p_i: np.ndarray,
    candidate_ids: np.ndarray,
    candidate_positions: np.ndarray,
    tol: float = DEFAULT_COLLINEARITY_TOL,
) -> tuple[int, int]:
    """First non-collinear (k, l) from distance-ordered candidates.

    Candidates must already be sorted by (distance to p_i, index). k walks
    the candidates nearest-first; for each k, l is the nearest other
    candidate passing the collinearity test; if none passes, k advances.
    """
    m = len(candidate_ids)
    if m < 2:
        raise NoSupportPairError(node, f"node {node}: only {m} opposite-class candidates")
    p_i = np.asarray(p_i, dtype=np.float64)
    for a in range(m):
        for b in range(m):
            if b == a:
                continue
            if _is_valid_triple(p_i, candidate_positions[a], candidate_positions[b], tol):
                return int(candidate_ids[a]), int(candidate_ids[b])
    raise NoSupportPairError(node)


def orient_normals(positions: np.ndarray, normals: np.ndarray, k: int) -> np.ndarray:
    """Sign choices (+1/-1) making normals of nearby nodes agree.

    Builds the union-symmetrized k-NN graph over the nodes with edge cost
    max(1 - |n_i . n_j|, tiny), takes a minimum spanning forest of it
    (scipy.sparse.csgraph; exactly tied costs follow scipy's tie rule),
    roots each tree at its maximum-z node (smaller index on ties) with the
    root's normal signed toward non-negative z, and propagates signs so
    every tree edge has (alpha_i n_i) . (alpha_j n_j) >= 0. The tiny floor
    keeps zero-cost edges, which scipy would drop, without reordering
    costs: the smallest positive 1 - |dot| is about 1.1e-16.
    """
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    n = positions.shape[0]
    if normals.shape != (n, 3):
        raise ValueError(f"normals shape {normals.shape} does not match {n} nodes")

    adj = knn_adjacency(positions, min(k, n - 1))
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    dots = np.einsum("ij,ij->i", normals[rows], normals[adj.indices])
    costs = csr_matrix(
        (np.maximum(1.0 - np.abs(dots), np.finfo(np.float64).tiny), adj.indices, adj.indptr),
        shape=(n, n),
    )
    forest = minimum_spanning_tree(costs)
    n_comp, labels = connected_components(forest, directed=False)
    alphas = np.ones(n, dtype=np.int8)
    for comp in range(n_comp):
        members = np.flatnonzero(labels == comp)
        root = int(members[np.argmax(positions[members, 2])])  # first max = smallest index
        alphas[root] = 1 if normals[root, 2] >= 0 else -1
        order, parent = breadth_first_order(forest, root, directed=False)
        for u in order[1:]:
            alphas[u] = alphas[parent[u]] * (1 if normals[parent[u]] @ normals[u] >= 0 else -1)
    return alphas


def estimate_normal_field(
    positions: np.ndarray,
    graph: WeightedGraph,
    assignment: np.ndarray,
    opt_class: int,
    k: int,
    tol: float = DEFAULT_COLLINEARITY_TOL,
) -> tuple[NormalField, list[int]]:
    """Support pairs, oriented normals and linearizations for one class.

    positions are the current coordinates of all nodes; graph is the
    original k-NN graph (fixed topology); assignment maps nodes to
    classes. For each node of opt_class the candidate pool is its graph
    neighbors of the other class, ordered by current distance; when that
    pool is too small or fully collinear, a global query over the other
    class expands it (k, then 2k, then 4k candidates, capped). Nodes with
    no valid pair are skipped and returned in the failure list.
    """
    positions = np.asarray(positions, dtype=np.float64)
    assignment = np.asarray(assignment)
    opt_ids = np.flatnonzero(assignment == opt_class)
    other_ids = np.flatnonzero(assignment != opt_class)
    other_index: SpatialIndex | None = None

    pairs: list[tuple[int, int]] = []
    ok_ids: list[int] = []
    failed: list[int] = []
    adj = graph.adjacency

    def ordered(ids: np.ndarray, p_i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = positions[ids]
        dist = np.linalg.norm(pos - p_i, axis=1)
        order = np.lexsort((ids, dist))
        return ids[order], pos[order]

    for i in opt_ids:
        i = int(i)
        p_i = positions[i]
        nbrs = adj.indices[adj.indptr[i]:adj.indptr[i + 1]]
        local = nbrs[assignment[nbrs] != opt_class]
        pair = None
        try:
            ids_o, pos_o = ordered(local, p_i)
            pair = select_support_pair(i, p_i, ids_o, pos_o, tol)
        except NoSupportPairError:
            if other_index is None and other_ids.size >= 2:
                other_index = SpatialIndex(positions[other_ids])
            if other_index is not None:
                for kk in (k, 2 * k, 4 * k):
                    kk = min(kk, other_ids.size)
                    cand = other_ids[other_index.query_knn(p_i, kk)[0]]
                    try:
                        ids_o, pos_o = ordered(cand, p_i)
                        pair = select_support_pair(i, p_i, ids_o, pos_o, tol)
                        break
                    except NoSupportPairError:
                        if kk == other_ids.size:
                            break
        if pair is None:
            failed.append(i)
        else:
            pairs.append(pair)
            ok_ids.append(i)

    if not ok_ids:
        empty = np.zeros((0, 3))
        return NormalField(np.array([], dtype=np.int64), empty, np.zeros((0, 3, 3)),
                           empty, np.zeros(0, dtype=np.int8),
                           np.zeros((0, 2), dtype=np.int64)), failed

    ids_arr = np.array(ok_ids, dtype=np.int64)
    pairs_arr = np.array(pairs, dtype=np.int64)
    pi = positions[ids_arr]
    raw, _, _, A, b = affine_normals(pi, positions[pairs_arr[:, 0]], positions[pairs_arr[:, 1]])
    alphas = orient_normals(pi, raw, k)
    A *= alphas[:, None, None]
    b *= alphas[:, None]
    return NormalField(ids_arr, raw * alphas[:, None], A, b, alphas, pairs_arr), failed


def normal_field_lines(field: NormalField):
    """Yield 'node nx ny nz alpha k l' debug lines."""
    for t, i in enumerate(field.ids):
        nx, ny, nz = field.normals[t]
        k, l = field.pairs[t]
        yield f"{i} {nx:.17g} {ny:.17g} {nz:.17g} {field.alpha[t]:+d} {k} {l}"
